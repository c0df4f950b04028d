(** Observability harness: the telemetry plane's two-sided proof.

    One hostile fleet scenario ({!Fleet.fleet_plan}) is run twice at the
    same seed — per-host registries disabled ({!Telemetry.null}), then
    enabled — and the harness demands:

    - {b free when off} — the charged model-cycle totals of the two runs
      are bit-identical. Request trace ids are minted and ride the
      MIGF1 header whether or not a registry is live, so enabling
      telemetry changes no wire byte, no MAC length, no cycle. The
      overlay's routing must agree too: the router reads each host's
      queue depth itself, and the [queue-depth] gauge only records it.
    - {b load-bearing when on} — the enabled run actually observed the
      scenario: samples and spans were recorded, every committed
      failover stitched into a complete cross-host causal trace, a dead
      host tripped the burn-rate monitor, and a fault-free replay of
      the same seed paged nobody. *)

type report = {
  o_seed : int;
  o_cycles_off : int;  (** hostile run, registries disabled *)
  o_cycles_on : int;   (** same plan and seed, registries enabled *)
  o_samples : int;     (** enabled run: fleet + overlay metric samples *)
  o_spans : int;
  o_failovers : int;
  o_stitched : int;    (** complete causal traces spanning ≥ 2 hosts *)
  o_traces : Telemetry.Causal.trace list;
  o_fast_alerts : int;  (** hostile overlays, supervised + unsupervised *)
  o_slow_alerts : int;
  o_worst_burn : float;
  o_sup_timeline : (int * int * int * int) list;
      (** [(window, admitted, good, p99)] — hostile supervised overlay *)
  o_unsup_timeline : (int * int * int * int) list;
  o_chrome_json : string;
      (** fleet-wide Chrome trace: one pid row per VMM host *)
  o_failures : string list;
}

val run : ?seed:int -> unit -> report
(** Three fleet scenarios (hostile off, hostile on, fault-free) at
    [seed] (default 7, the regression sentinel's pin). *)

val delta : report -> int
(** [o_cycles_on - o_cycles_off] — must be 0. *)

val zero_overhead : report -> bool

val held : string
(** What a report with no [o_failures] proved. *)

val fields : report -> (string * Report.t) list
(** The BENCH summary fields ([telemetry]), per-window timelines
    included. *)

val pp_report : Format.formatter -> report -> unit
