(** Live-migration harness: drain a supervised cloaked process at a
    source VMM, ship its sealed checkpoint over the hostile channel
    ({!Cloak.Migrate}), adopt and resume it at a destination VMM — under
    load, under injected channel faults, and across a crash matrix.

    Per seed the runner performs a clean-channel migration, the same
    scenario twice under a seed-derived hostile plan (drop, duplicate,
    delay, reorder, bit-flip, truncate on [Mig_send]/[Mig_recv]/
    [Mig_ack]), and checks:

    - {b exactly one incarnation}: committed ⇒ the source retires with
      {!Guest.Kernel.migrated_exit_status} and the destination finishes
      every unit; aborted ⇒ the source completes as if migration were
      never requested (nothing staled, no lost progress);
    - {b privacy on the wire}: the canary sealed into the service's
      cloaked state never appears in any transported frame, on either
      machine's OS-visible surfaces, or in the blobs;
    - {b replay/tamper resistance}: post-run probes re-unseal the
      migrated blob at the source, re-adopt it at the destination and
      replay the recorded wire log — all must die in [Stale_checkpoint];
      a bit-flipped frame is rejected [Bad_mac], unacknowledged;
    - {b bounded downtime}: drain windows plus destination install stay
      under {!downtime_bound} model cycles;
    - {b determinism}: identical seeds and plans reproduce bit-identical
      audit logs. *)

val rounds : int
(** Units of work the service completes (source + destination combined). *)

val service : Guest.Abi.program
(** The restart-aware migratable workload: {!Soak.service} for {!rounds}
    units without the vault file (cloaked state page, canary, progress
    file, checkpoint per unit). *)

val antagonist : Guest.Abi.program
(** Uncloaked noise run beside the service on both machines. *)

val kconfig : Guest.Kernel.config
val policy : Guest.Kernel.restart_policy

val max_attempts : int
(** Migration attempts before the drain handler's circuit breaker gives
    up and leaves the process at the source for good. *)

val downtime_bound : int
(** Acceptance ceiling on a committed run's downtime, in model cycles. *)

val abort_downtime_bound : int
(** Ceiling on the stall cycles a fully-aborted migration may have cost
    the source ([max_attempts] deadline-bounded drain windows, dominated
    by chunk-resend MAC charges). *)

val hostile_plan : seed:int -> Inject.plan
(** Bounded bursts of channel mayhem on the [Mig_*] sites only. *)

val blackhole_plan : seed:int -> Inject.plan
(** Drops every forward frame forever: no attempt can commit, so the run
    must walk the whole abort path — per-attempt deadline abort, re-arm,
    circuit breaker — with the source finishing untouched. *)

type seed_report = {
  seed : int;
  clean_committed : bool;
  clean_downtime : int;
  hostile_committed : bool;
  hostile_attempts : int;
  hostile_breaker : bool;
  hostile_downtime : int;
  attempts : int;  (** clean + hostile migration attempts (drain count) *)
  completed : int;
  aborts : int;
  retries : int;  (** transfer-round retries under the shared backoff *)
  mac_failures : int;
      (** frames the migration sessions refused for a bad MAC, both ends
          ({!Guest.Migration.outcome}); the post-run tamper and replay
          probes are not counted *)
  downtime_cycles : int;
  breaker_trips : int;  (** runs that exhausted the attempt budget *)
  wire_frames : int;
  audit_dropped : int;
  failures : string list;  (** broken invariants; empty = passed *)
}

(** {1 Crash matrix}

    Power the source off at every calibrated occurrence of every channel
    site and post-mortem the split-brain invariants: fenced ⇒ the
    destination holds the verified blob and adopts it exactly once (a
    second adoption dies stale); not fenced ⇒ the receiver never
    committed and the source's latest checkpoint still unseals. *)

type crash_outcome = {
  point : Crash.point;
  crash_seed : int;
  crashed : bool;
  fenced : bool;  (** the source had retired the migrated generation *)
  crash_failures : string list;
}

val run_crash_point : seed:int -> Crash.point -> crash_outcome
(** Run the scenario twice with a [Crash_point] armed at the point
    (determinism included in the checks) and post-mortem the survivors. *)

type crash_report = {
  crash_points : int;
  crash_fenced : int;
  crash_sites : Inject.site list;  (** [Mig_*] sites that got a crash point *)
  matrix_failures : (string * string) list;  (** (point, failure) *)
}

val run_crash_matrix : seeds:int list -> crash_report
(** Calibrate each seed's clean run for [Mig_*] occurrence counts, then
    run up to 4 crash points per site ({!Crash.sample}). *)

(** {1 The sweep}

    [run_seed] makes four full runs (clean, hostile twice for
    determinism, blackhole for the abort path) plus the invariant checks
    and adversarial probes. The BENCH summary ([migration]) carries the
    commit/abort split, retries, MAC rejects, breaker trips, downtime
    percentiles and wire frames, plus the channel crash matrix over the
    first 3 sweep seeds. Sweep-level failures: any crash-matrix failure,
    a [Mig_*] site without a crash point, no crash point after the
    fence, hostile plans that cost neither a retry nor a MAC reject, or
    unpopulated downtime percentiles. *)

include Sweep.S with type seed_report := seed_report
