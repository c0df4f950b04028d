(** Availability soak: supervised restart under sustained hostile fire.

    Each seed derives a fault plan that repeatedly kills a restart-aware
    cloaked service mid-run (IV-reuse and ciphertext bit-flips trigger
    security kills; allocator exhaustion triggers OOM kills), then runs
    the identical workload three ways: fault-free (the useful-work
    baseline), supervised (sealed checkpoints + restart-with-backoff), and
    unsupervised (first fatal kill is final). Three invariants must hold
    for every seed:

    - {b privacy across restarts}: the canary planted in the service's
      cloaked state never appears on any OS-visible surface — machine
      memory, RAM remanence, disk or swap blocks, or {e inside the sealed
      checkpoint blobs themselves};
    - {b no stale-checkpoint acceptance}: after the run, offering the
      supervisor's previous (validly MAC'd) checkpoint back to the VMM
      raises [Stale_checkpoint], while the latest checkpoint still
      unseals — supervised restart is not a rollback oracle;
    - {b determinism}: the same seed in the same mode yields bit-identical
      audit logs.

    Across the whole seed set, supervision must strictly beat its absence:
    total supervised units > total unsupervised units under the same
    plans (a sweep-level failure of {!summary}). *)

val canary : string

val rounds : int
(** Units of work a fault-free service completes. *)

val kconfig : Guest.Kernel.config
(** Tight guest memory plus a metadata journal (seal generations must be
    anchored for the stale-checkpoint invariant to mean anything). *)

val policy : Guest.Kernel.restart_policy

val soak_plan : seed:int -> Inject.plan
(** The seed's chaos plan plus recurring lethal rules. [Seal_write] and
    [Restore] rules are excluded (the harness's own post-run unseal probes
    must observe staleness, not injected tampering; those sites are
    covered deterministically by the seal tests). *)

type seed_report = {
  seed : int;
  units_ff : int;        (** fault-free useful work *)
  units_sup : int;       (** useful work, supervised, under faults *)
  units_unsup : int;     (** useful work, unsupervised, same plan *)
  restarts : int;
  circuit_breaks : int;
  checkpoints : int;
  recovery_cycles : int;
  audit_dropped : int;
      (** worst audit-ring truncation across the seed's four runs *)
  trace_dropped : int;
      (** worst flight-recorder ring truncation across the seed's runs *)
  hot_spots : (string * int) list;
      (** the supervised run's top self-cycle call contexts
          ({!Stack.hot_spots}) — where a flagged perf regression most
          likely lives; empty when that run's trace ring wrapped *)
  failures : string list;
      (** broken invariants: {!Stack.failures} plus the checkpoint-blob
          canary scan for every run, each prefixed by its mode
          (["fault-free: "], ["supervised: "], ["supervised replay: "],
          ["unsupervised: "]), then the stale-checkpoint probe and
          determinism; empty = passed *)
}

(** {1 The sweep}

    [run_seed] makes four runs (fault-free, supervised twice for
    determinism, unsupervised) plus the invariant checks. The BENCH
    summary ([availability]) carries mean availability supervised vs
    unsupervised, MTTR, restarts, circuit breaks, checkpoints and useful
    work. Sweep-level failures: no restart, no sealed checkpoint, or
    supervised useful work not strictly above unsupervised (a tie is not
    a win). *)

include Sweep.S with type seed_report := seed_report
