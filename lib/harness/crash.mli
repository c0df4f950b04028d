(** Crash-point matrix: systematic power cuts at every durable-write site.

    For each seed, a calibration run (no faults) counts how often each
    crash site fires; the matrix then re-runs the workload once per
    sampled (site, occurrence) pair with a single {!Inject.Crash_point}
    rule, catches the {!Inject.Vmm_crash} power cut, and drives
    {!Cloak.Recovery.replay} against the surviving block devices with a
    fresh same-seed VMM. Three invariants must hold at every crash point:

    - {b no committed-data loss}: every page binding the journal reported
      durably committed (observed through the ledger oracle installed with
      {!Cloak.Journal.set_observer}) is recovered intact, or its resource
      is loudly quarantined — never silently missing;
    - {b no torn-state acceptance}: every page recovery installs is
      independently re-authenticated against the journaled metadata and
      the on-device bytes, and every torn resource is condemned in the
      recovered VMM;
    - {b deterministic replay}: the crash run and the recovery replay
      produce bit-identical audit trails when repeated from the same
      seed. *)

val crash_sites : Inject.site list
(** The durable-write sites the matrix covers: journal appends, journal
    checkpoints, device-block writes, device-block frees. *)

val kconfig : Guest.Kernel.config
(** Tight guest memory, a 16-block journal and a short checkpoint cadence,
    so swap traffic and mid-run checkpoints land inside the matrix. *)

val protagonist : Guest.Abi.program
(** Cloaked workload: two protected objects saved and synced, one
    re-opened and re-saved (freeing journal-referenced blocks), plus
    cloaked anonymous memory that joins the swap churn. *)

val antagonist : Guest.Abi.program
(** Uncloaked memory/disk pressure that pushes shm pages through swap. *)

type point = { site : Inject.site; occurrence : int }

val point_to_string : point -> string

(** {1 Calibration} *)

type journal_stats = {
  records : int;            (** journal records appended in a clean run *)
  store_writes : int;       (** journal store block writes (overhead) *)
  checkpoints : int;
  data_writes : int;        (** non-journal device block writes *)
  occurrences : (Inject.site * int) list;
      (** how often each crash site fired in the clean run *)
}

val calibrate : seed:int -> journal_stats
(** One fault-free run: the occurrence counts bound the crash matrix and
    the journal counters feed the overhead benchmark. *)

val sample : per_site:int -> int -> int list
(** [sample ~per_site total]: the crash-point sampler. Every occurrence
    [1..total] when [total <= per_site]; otherwise [per_site] distinct,
    evenly spaced occurrences that include both [1] and [total] (one point,
    occurrence 1, when [per_site = 1]). *)

val points : per_site:int -> (Inject.site * int) list -> point list
(** {!sample} applied to each [(site, occurrences)] pair. *)

(** {1 One crash point} *)

type outcome = {
  point : point;
  seed : int;
  crashed : bool;           (** the power cut actually fired *)
  ledger_committed : int;   (** durable bindings at the moment of the cut *)
  committed : int;          (** recovery classification counts *)
  redone : int;
  torn : int;
  quarantined : int;
  replay_s : float;
      (** host wall-clock seconds spent in {!Cloak.Recovery.replay} *)
  failures : string list;
      (** broken invariants (durability, authentication, and the
          flight-recorder trace checks over both the crash run and the
          recovery); empty on success *)
  audit : string list;      (** crash-run trail followed by recovery trail *)
  audit_dropped : int;      (** audit entries lost to the bounded window,
                                summed over both runs *)
  trace_dropped : int;      (** trace events evicted, summed over both rings *)
}

val run_point : seed:int -> point -> outcome
(** Run the workload until the crash point fires, recover on a fresh
    same-seed VMM from the surviving devices, and check invariants 1-2. *)

(** {1 The matrix}

    One sweep seed calibrates, then runs every sampled crash point twice
    (the second run checks audit determinism). The BENCH summary
    ([recovery]) carries crash-point coverage per site, the recovery
    classification totals, replay host time and the journal overhead. *)

type seed_report = {
  seed : int;
  stats : journal_stats;
  outcomes : outcome list;  (** the first run of each sampled point *)
  failures : string list;
      (** ["site#n: what"] per broken invariant, plus ["site#n never
          fired"] for a cut that did not happen *)
}

include Sweep.S with type seed_report := seed_report
(** [run_seed] samples 6 points per site. *)

val pp_outcome : Format.formatter -> outcome -> unit

val recover : seed:int -> point -> int
(** Narrate one crash point on stdout — its classification, then the
    crash-run and recovery audit trail — and return the process exit
    status ({!Sweep.exit_code} over its failures). *)
