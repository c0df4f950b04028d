(** Fleet telemetry: an append-only sample log with windowed read-time
    folds, SLO burn-rate monitoring, and causal cross-host request
    tracing.

    The flight recorder ({!Trace}) answers "what happened on this VMM";
    telemetry answers "how is the fleet doing over time". A registry is
    a log of samples, each a name, a model-cycle stamp and an int value
    (an event counts 1, a latency its cycles),
    plus the causal spans. Nothing is bucketed at write time: a reader
    picks a window width and folds the log into per-window sums
    ({!window_sums}) or latency histograms ({!window_hists}). Stamps are
    the deterministic model-cycle clock, so two runs from the same seed
    fold into byte-identical series. One registry serves a whole fleet:
    spans carry their host, and no reader splits samples by host.

    Like the recorder's null sink, the disabled registry ({!null}) is an
    immutable constant: it records nothing, allocates nothing on the
    sampling path, and charges zero model cycles — wiring it through the
    stack can never perturb benchmark numbers (proven by
    [make telemetry]). *)

(** {1 Registry} *)

type t

val null : t
(** The disabled registry: every write is a single branch, every read
    returns empty. *)

val create : unit -> t
(** A fresh, live, empty registry. *)

val enabled : t -> bool
(** [false] exactly for {!null}. Guard sample-payload computation on this
    so the disabled path stays allocation-free. *)

(** {1 Writing}

    Both writes are no-ops on {!null}. *)

val sample : t -> at:int -> string -> int -> unit
(** [sample t ~at name v] appends one sample of series [name] with value
    [v], stamped at model cycle [at]. *)

val span :
  ?host:int -> t -> tid:int -> hop:string -> seq:int -> t0:int -> t1:int -> unit
(** Record a causal span: request [tid] passed through [hop] on [host]
    (default [-1], outside any host) from cycle [t0] to [t1]; [seq] is
    the request's hop sequence number (minted by the caller, totally
    ordering the request's hops across hosts). *)

(** {1 Reading} *)

val samples : t -> int
(** Samples ever recorded, across every series. *)

val span_count : t -> int

val window_sums : t -> width:int -> string -> (int * int) list
(** The values of series [name] summed per window of [width] model
    cycles (window [at / width]; a negative stamp falls in window 0), as
    [(window, sum)] ascending. Windows with no sample are absent.
    Raises [Invalid_argument] unless [width > 0]. *)

val window_hists : t -> width:int -> string -> (int * Trace.Hist.h) list
(** The values of series [name] per window, as log2 histograms
    ({!Trace.Hist}, so percentile extraction keeps the recorder's
    bracketing guarantee); windows as in {!window_sums}. *)

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
(** Recorded spans in canonical order (tid, seq, host, t0, hop) — a
    function of the span {e set}, so the list does not depend on the
    order in which hosts wrote them. *)

(** {1 SLO burn-rate monitoring} *)

module Slo : sig
  type alert = {
    a_window : int;    (** window index the alert fired at *)
    a_fast : bool;     (** fast or slow alert *)
    a_burn : float;    (** burn rate at firing *)
  }

  type eval = {
    ev_fast_fires : int;
    ev_slow_fires : int;
    ev_worst_burn : float;
    ev_alerts : alert list;  (** firing transitions only, ascending *)
  }

  val evaluate : good:(int * int) list -> total:(int * int) list -> eval
  (** Replay per-window [good] and [total] counts (as returned by
      {!window_sums}) through the burn-rate monitor against a 0.99
      in-budget objective. The burn rate over a lookback of [k] windows
      ending at [w] is [(error fraction over those windows) / 0.01]; the
      fast (page) alert looks back 2 windows and fires past burn 6.0, the
      slow (ticket) alert 6 windows past burn 2.0. An alert fires on the
      transition past its threshold and clears only once the burn drops to
      half the threshold, before it can fire again. Windows with no
      traffic contribute nothing to the lookback. *)
end
