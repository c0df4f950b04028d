(** A deterministic, cycle-stamped flight recorder for the VMM stack.

    The cost model already tells us {e how much} a run cost; the trace tells
    us {e when} each boundary crossing happened, {e which context} caused it,
    and {e how latency distributes} per event class. Events are stamped with
    the VMM's deterministic cycle clock (never wall time), so two runs from
    the same seed produce byte-identical traces — which is what lets the
    invariant pass ({!Check}) double every fault campaign as a trace oracle.

    The recorder has two sinks:

    - {!null} — the compile-out path. Shared, allocation-free, records
      nothing, and (like every sink) charges zero model cycles; wiring it
      through the stack can never perturb E1–E11 numbers.
    - {!ring} — a bounded ring that keeps the most recent [cap] events and
      counts evictions in {!dropped}. *)

(** {1 Event model} *)

type ctx =
  | Vmm           (** inside the trusted computing base *)
  | Kernel        (** the untrusted guest kernel / uncloaked world *)
  | Cloaked of int  (** a cloaked application, by asid *)

type kind =
  | World_switch
  | Shadow_walk
  | Shadow_fill
  | Hidden_fault
  | Guest_fault
  | Hypercall
  | Syscall_trap
  | Syscall
  | Page_encrypt
  | Page_decrypt
  | Page_zero
  | Mac_check
  | Plaintext_access
  | Journal_append
  | Journal_ckpt
  | Seal_capture
  | Seal_restore
  | Seal_gen_bump
  | Disk_read
  | Disk_write
  | Frame_scrub
  | Frame_free
  | Quarantine
  | Restart
  | Migration

type phase = Instant | Enter | Exit | Abort
(** [Abort] closes a span that was unwound by an exception: no latency is
    recorded, but the event keeps the stream well-nested so re-readers
    (the profiler, the Chrome export) can pair every enter. *)

type event = {
  kind : kind;
  phase : phase;
  cycles : int;  (** the cost-model clock at emission *)
  ctx : ctx;     (** active context when the event fired *)
  page : int;    (** logical page index or device block; -1 when absent *)
  pid : int;     (** owner pid — or the machine page number (mpn) for
                     frame-level events: page crypto, scrub, free *)
  site : string; (** resource tag / device / syscall name; "" when absent *)
  aux : int;     (** kind-specific: metadata version (crypto / MAC events),
                     seal generation (seal events), attempt (restart) *)
}

val kind_name : kind -> string
val all_kinds : kind list

(** {1 Sinks} *)

type t

val null : t
(** The shared no-op sink. Emission is a single branch; nothing is stored,
    nothing is allocated. *)

val ring : ?cap:int -> unit -> t
(** A live recorder keeping the last [cap] events (default {!default_cap}).
    Older events are evicted oldest-first; {!dropped} counts evictions. *)

val default_cap : int
val enabled : t -> bool
(** [false] exactly for {!null}. Guard payload computation (e.g. building a
    resource tag string) on this so the null path stays allocation-free. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the cycle clock (the VMM points this at its cost model). Events
    emitted before a clock is installed are stamped 0. No-op on {!null}. *)

val set_ctx : t -> ctx -> unit
(** Announce the active context; subsequent events without an explicit
    [?ctx] carry it. No-op on {!null}. *)

(** {1 Emission} *)

val emit :
  t -> ?ctx:ctx -> ?page:int -> ?pid:int -> ?site:string -> ?aux:int -> kind -> unit
(** Record an [Instant] event. *)

val span_enter :
  t -> ?ctx:ctx -> ?page:int -> ?pid:int -> ?site:string -> ?aux:int -> kind -> unit

val span_exit :
  t -> ?ctx:ctx -> ?page:int -> ?pid:int -> ?site:string -> ?aux:int -> kind -> unit
(** Close the most recent open span of this kind: records an [Exit] event
    and adds the enter→exit latency to the kind's histogram. An exit with
    no open span records the event but updates no histogram. *)

val span_abort : t -> kind -> unit
(** Close the most recent open span of this kind without recording a
    latency — for spans unwound by an exception, so a later exit cannot
    pair with an abandoned enter. Records an [Abort] event (stamped at
    the unwind clock) so the stream itself stays well-nested; the
    invariant pass ignores [Abort] events entirely. *)

val with_span :
  t -> ?ctx:ctx -> ?page:int -> ?pid:int -> ?site:string -> ?aux:int -> kind ->
  (unit -> 'a) -> 'a
(** [with_span t kind f] runs [f] inside an enter/exit pair, aborting the
    span (and re-raising) if [f] raises. *)

(** {1 Inspection} *)

val count : t -> int
(** Events ever recorded, including evicted ones. *)

val dropped : t -> int
val capacity : t -> int
val events : t -> event list
(** Retained events, oldest first. *)

val iter : t -> (event -> unit) -> unit
(** Re-read the retained stream in order without materializing a list —
    the cheap path for consumers (the profiler, the invariant pass) that
    fold the stream more than once. *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a

(** {1 Latency histograms}

    Span latencies accumulate into per-kind log2-bucket histograms: bucket
    0 holds exactly the value 0 and bucket [i ≥ 1] holds [2^(i-1) .. 2^i-1].
    Percentile extraction returns bounds guaranteed to bracket the true
    order statistic. *)

module Hist : sig
  type h

  val count : h -> int
  val total : h -> int
  val min_value : h -> int
  val max_value : h -> int

  val buckets : h -> (int * int * int) list
  (** Non-empty buckets as [(lo, hi, count)], ascending. *)

  val percentile_bounds : h -> float -> int * int
  (** [percentile_bounds h p] with [p] in [0, 1]: bounds [(lo, hi)] such
      that the [⌈p·n⌉]-th smallest recorded value v satisfies
      [lo <= v <= hi]. [(0, 0)] on an empty histogram. *)

  val percentile : h -> float -> int
  (** The upper bound of {!percentile_bounds}. *)

  (** Standalone construction, for tests. *)

  val create : unit -> h
  val add : h -> int -> unit

  val merge : h -> h -> h
  (** Per-bucket sum into a fresh histogram; both inputs are untouched.
      Associative and commutative (every field combines by [+], [min] or
      [max] over the same fixed bucketing), so per-VMM histograms fold
      into a fleet histogram in any order. {!percentile_bounds} on the
      merged histogram still brackets the true order statistic of the
      combined sample. *)
end

val histogram : t -> kind -> Hist.h option
(** The kind's latency histogram, if any span of that kind completed. *)

val span_classes : t -> (kind * Hist.h) list
(** All kinds with at least one completed span, in {!all_kinds} order. *)

(** {1 Rendering} *)

val pp_decomposition : Format.formatter -> t -> unit
(** The E4-style overhead decomposition: per span class, count, total
    cycles, and p50/p95/p99 latency. *)

val to_chrome_json : ?host:int * string -> t -> string
(** The retained events as Chrome [trace_event] JSON (load in
    chrome://tracing or Perfetto). Timestamps are model cycles. Without
    [?host] each context is its own process (pid = tid = context track) —
    the single-VMM layout. With [~host:(pid, name)] every event lands
    under one process row named [name], with contexts as threads, so
    multiple hosts can share a timeline without colliding on track ids. *)

val to_chrome_fleet : (int * string * t) list -> string
(** Merge several sinks into one Chrome trace: each [(pid, name, sink)]
    becomes a distinct process row (see {!to_chrome_json} with [?host]),
    so a multi-VMM fleet renders as one timeline with per-host rows. *)

(** {1 Trace-checked invariants} *)

module Check : sig
  val run : event list -> string list
  (** Replay a recorded stream and return one message per violated
      ordering invariant ([[]] = all hold):

      - every cloaked-page decrypt is preceded by a MAC check of that
        page's current version;
      - every free of a frame that held cloaked plaintext is preceded by a
        scrub (or re-encryption) of that frame;
      - every seal restore follows a generation bump to at least the
        restored generation;
      - no plaintext-access event occurs outside the owner's context;
      - no-stale-version-mapped: no decrypt maps a page version older
        than the highest version sealed for that page (anti-replay),
        modulo authorized resets (fresh page zero, seal restore,
        quarantine teardown);
      - no-cross-asid-alias: a plaintext access whose resolved frame
        (aux = mpn+1) still holds live plaintext of a {e different}
        cloaked page means two cloaked mappings alias one frame.

      All rules are prefix-closed: a stream truncated by a crash never
      fails an invariant that the full stream would have satisfied. *)

  val verdict : t -> string list
  (** {!run} on the sink's retained events. Ring eviction truncates the
      {e head} of the stream, which could orphan an event from its
      required predecessor and fail an invariant spuriously — so when
      {!truncated} holds the pass is skipped and [verdict] returns [[]];
      callers should surface the truncation instead. *)

  val truncated : t -> bool
  (** Whether eviction dropped events, making an ordering pass unsound. *)
end
