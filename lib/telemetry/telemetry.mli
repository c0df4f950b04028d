(** Fleet-wide windowed telemetry: time-series metrics, SLO burn-rate
    monitoring, and causal cross-host request tracing.

    The flight recorder ({!Trace}) answers "what happened on this VMM";
    telemetry answers "how is the fleet doing over time". Samples are
    stamped with the deterministic model-cycle clock and bucketed into
    fixed cycle-width windows, so two runs from the same seed produce
    byte-identical series. Per-VMM registries merge associatively into
    fleet-level series ({!merge}), which is what lets a supervisor
    aggregate hosts in any order.

    Like the recorder's null sink, the disabled path ({!null}) records
    nothing, allocates nothing on the sampling path, and charges zero
    model cycles — wiring it through the stack can never perturb
    benchmark numbers (proven by [make telemetry]).

    Three instrument kinds share the registry:

    - {e counters} — monotonic per-window increments (admissions, errors);
    - {e gauges} — last-write-wins point samples per window, with window
      min/max (queue depth, load);
    - {e histograms} — log2-bucket latency distributions per window,
      backed by {!Trace.Hist} so percentile extraction and merge follow
      the recorder's bracketing guarantees.

    Series are keyed by name and an optional small-int host label, so one
    registry can hold per-host series and still answer fleet-level
    queries ({!counter_windows_all}, {!hist_windows_all}). *)

(** {1 Registry} *)

type t

val null : t
(** The shared disabled registry: every write is a single branch, every
    read returns empty. *)

val create : ?window_cycles:int -> ?span_cap:int -> unit -> t
(** A live registry bucketing samples into windows of [window_cycles]
    model cycles (default {!default_window_cycles}) and retaining at most
    [span_cap] causal spans (default {!default_span_cap}; older spans are
    never evicted — excess ones are counted in {!spans_dropped}). *)

val default_window_cycles : int
val default_span_cap : int
val enabled : t -> bool
(** [false] exactly for {!null}. Guard sample-payload computation on this
    so the disabled path stays allocation-free. *)

val window_cycles : t -> int
val window_of : t -> int -> int
(** [window_of t cycles] is the window index holding stamp [cycles]. *)

(** {1 Sampling}

    All writes are no-ops on {!null}. [?host] defaults to [-1] (the
    unlabelled series); [at] is the model-cycle stamp. Writing a name
    with two different instrument kinds raises [Invalid_argument]. *)

val incr : t -> ?host:int -> ?by:int -> at:int -> string -> unit
(** Add [by] (default 1) to the counter [name] in the window of [at]. *)

val gauge : t -> ?host:int -> at:int -> string -> int -> unit
(** Record a point sample: the window keeps the last-written value (by
    stamp) plus its min/max over the window. *)

val observe : t -> ?host:int -> at:int -> string -> int -> unit
(** Add a value to the histogram [name] in the window of [at]. *)

val span :
  ?host:int -> t -> tid:int -> hop:string -> seq:int -> t0:int -> t1:int -> unit
(** Record a causal span: request [tid] passed through [hop] on [host]
    from cycle [t0] to [t1]; [seq] is the request's hop sequence number
    (minted by the caller, totally ordering the request's hops across
    hosts). Dropped (and counted) beyond the registry's span cap. *)

(** {1 Reading} *)

val samples : t -> int
(** Metric samples ever recorded (counter incrs + gauge writes +
    histogram observations). *)

val span_count : t -> int
val spans_dropped : t -> int

val names : t -> string list
(** Distinct series names, sorted. *)

val hosts : t -> string -> int list
(** Host labels carrying series [name], sorted ([-1] = unlabelled). *)

val counter_windows : t -> ?host:int -> string -> (int * int) list
(** Per-window totals [(window, total)] for one host's counter, ascending
    by window; empty windows are absent. *)

val counter_total : t -> ?host:int -> string -> int

val counter_windows_all : t -> string -> (int * int) list
(** Per-window totals summed across all hosts carrying [name]. *)

val gauge_last : t -> ?host:int -> string -> (int * int) option
(** The most recent gauge sample as [(stamp, value)], across windows. *)

val gauge_windows : t -> ?host:int -> string -> (int * int * int * int) list
(** Per-window [(window, last, min, max)], ascending. *)

val hist_windows : t -> ?host:int -> string -> (int * Trace.Hist.h) list
(** Per-window histograms for one host's series, ascending by window. *)

val hist_total : t -> ?host:int -> string -> Trace.Hist.h option
(** All of one host's windows merged into a single histogram. *)

val hist_windows_all : t -> string -> (int * Trace.Hist.h) list
(** Per-window histograms merged across all hosts carrying [name]. *)

(** {1 Causal traces} *)

module Causal : sig
  type span = {
    cs_tid : int;   (** request id, minted at admission *)
    cs_host : int;  (** VMM host index; -1 = outside any host *)
    cs_hop : string;(** stage name: "admission", "drain", "adopt", ... *)
    cs_seq : int;   (** per-request hop sequence number *)
    cs_t0 : int;
    cs_t1 : int;
  }

  type hop = {
    h_hop : string;
    h_host : int;
    h_seq : int;
    h_cycles : int;     (** t1 - t0 *)
    h_exclusive : int;  (** h_cycles minus cycles covered by nested hops
                            of the same request on the same host *)
  }

  type trace = {
    tr_tid : int;
    tr_hosts : int list;   (** distinct hosts touched, in hop order *)
    tr_hops : hop list;    (** ascending by seq *)
    tr_cycles : int;       (** wall span: max t1 - min t0 *)
    tr_critical : int;     (** sum of exclusive cycles across hops *)
    tr_complete : bool;    (** reached a "completion" hop *)
  }

  val stitch : span list -> trace list
  (** Group spans by request id and stitch each group into a causal
      trace, ascending by tid. Exclusive time charges each hop only for
      cycles not covered by a nested hop (same request, same host, span
      strictly inside), so {!trace.tr_critical} is the critical path:
      cycles attributable to exactly one hop each. *)

  val pp_trace : Format.formatter -> trace -> unit
end

val spans : t -> Causal.span list
(** Retained spans in canonical order (tid, seq, host, t0, hop) — the
    order is a function of the span {e set}, so merging registries in any
    order yields the same list. *)

(** {1 Merge} *)

val merge : t -> t -> t
(** A fresh registry holding both inputs' samples: counters add, gauges
    keep the later write (and combine min/max), histograms merge
    per-bucket, spans concatenate. Associative and commutative up to the
    canonical accessor orders above. Raises [Invalid_argument] if the
    window widths differ or a name's instrument kinds disagree.
    [merge null t] and [merge t null] return a copy of [t]. *)

val merge_all : t list -> t
(** Fold {!merge} over the list; {!null} on []. *)

(** {1 SLO burn-rate monitoring} *)

module Slo : sig
  type config = {
    target : float;       (** in-budget fraction objective, e.g. 0.99 *)
    fast_windows : int;   (** lookback for the fast (page) alert *)
    fast_burn : float;    (** burn-rate threshold for the fast alert *)
    slow_windows : int;   (** lookback for the slow (ticket) alert *)
    slow_burn : float;
    hysteresis : float;   (** an active alert clears only when burn drops
                              to [<= threshold * hysteresis] *)
  }

  val default : config
  (** target 0.99, fast 2 windows @ burn 6.0, slow 6 windows @ burn 2.0,
      hysteresis 0.5. *)

  type alert = {
    a_window : int;    (** window index the alert fired at *)
    a_fast : bool;     (** fast or slow alert *)
    a_burn : float;    (** burn rate at firing *)
  }

  type eval = {
    ev_windows : (int * float * float) list;
      (** per evaluated window: (window, goodput fraction, worst burn) *)
    ev_fast_fires : int;
    ev_slow_fires : int;
    ev_worst_burn : float;
    ev_alerts : alert list;  (** firing transitions only, ascending *)
  }

  val evaluate :
    ?config:config ->
    good:(int * int) list -> total:(int * int) list -> unit -> eval
  (** Replay per-window [good] and [total] counter series (as returned by
      {!counter_windows_all}) through the burn-rate monitor. The burn
      rate over a lookback of [k] windows ending at [w] is
      [(error fraction over those windows) / (1 - target)]; an alert
      fires on the transition past its threshold and clears (hysteresis)
      before it can fire again. Windows with no traffic contribute
      nothing to the lookback. *)
end
