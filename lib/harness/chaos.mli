(** Chaos harness: hostile-world testing of the whole stack.

    Each seed derives a random fault plan ({!Inject.random_plan}) and runs
    a fixed mixed workload under it: a cloaked protagonist that moves a
    known secret through anonymous memory, a protected file, fork and a
    pipe, and an uncloaked antagonist generating memory pressure and disk
    traffic. Three invariants must hold for every seed:

    - {b containment}: no exception escapes the kernel loop — injected
      faults end as errno results, contained process kills or quarantines;
    - {b privacy}: the plaintext secret never appears on any OS-visible
      surface (machine memory after the run, RAM remanence, disk or swap
      blocks);
    - {b determinism}: running the same seed twice produces bit-identical
      audit logs, so any chaos failure is replayable. *)

val secret : string
(** The canary planted in cloaked memory by the workload. *)

val contains_secret : bytes -> bool

val kconfig : Guest.Kernel.config
(** Deliberately tight guest memory so the workload swaps. *)

val protagonist : Guest.Abi.program
(** Cloaked workload moving the secret through every targeted subsystem. *)

val antagonist : Guest.Abi.program
(** Uncloaked memory pressure and disk traffic. *)

type report = {
  seed : int;
  plan : Inject.plan;
  crash : string option;   (** exception escaping [Kernel.run], if any *)
  leaks : string list;     (** OS-visible surfaces holding the secret *)
  audit : string list;
  audit_dropped : int;     (** audit-ring entries lost to the bounded window *)
  injections : int;
  contained : int;
  exit_statuses : (int * int option) list;
  trace_failures : string list;
      (** flight-recorder invariant violations ({!Trace.Check.verdict});
          empty both when the run is clean and when the trace ring wrapped
          (see [trace_dropped]) *)
  trace_dropped : int;  (** events evicted from the trace ring *)
  hot_spots : (string * int) list;
      (** top self-cycle call contexts of the run ({!Profile.hot_spots}) —
          the first places to look when the regression sentinel flags
          drift under this seed's behavior; empty when the trace ring
          wrapped (see [trace_dropped]) *)
  failures : string list;
      (** broken invariants: escaped exception, leaks and trace checks
          for one run; {!run_seed} adds the replay-determinism check *)
}

val run_once : seed:int -> report
(** One seeded chaos run (fresh stack, fresh plan). *)

(** {1 The sweep}

    Each seed runs twice; the seed's report is the first run's, with the
    determinism verdict over both audit logs added to its failures. The
    BENCH summary ([chaos]) totals injections, contained faults and
    security kills (exit status -2). *)

include Sweep.S with type seed_report = report
