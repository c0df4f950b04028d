(** Shared seed-sweep scaffolding for the antagonist harnesses.

    Chaos, crash, soak, migrate, fleet and adversary all follow the same
    shape: derive a fault plan per seed, run a canary-carrying workload
    under it on a seed-salted VMM, check the run, re-run the same seed and
    compare audit logs (tolerating a truncated bounded ring), then
    aggregate per-seed failures. The seed spacing, the determinism
    verdict, the host clock and the runner live here once; the stack and
    the per-run checks live in {!Stack}; each harness keeps only its
    workload, plan generator and own invariants, and states them through
    {!S}. *)

val seeds_from : base:int -> count:int -> int list
(** [base, base+7919, ...] — prime-spaced so sweep indices cannot alias
    the plan generators' xor salts. *)

val truncation_note : int -> string option
(** [truncation_note dropped] is the shared human-readable notice that the
    bounded audit ring wrapped ([None] when [dropped <= 0]) — the one
    phrasing every harness report uses, and the prefix of the truncated
    branch of {!determinism_failure}. *)

val determinism_failure :
  audit_a:string list -> audit_b:string list -> dropped:int -> string option
(** The replay-determinism verdict over two same-seed audit logs: [None]
    when bit-identical; a truncation notice when the bounded audit ring
    dropped entries (the windows may legitimately differ); otherwise the
    nondeterminism failure. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] once and returns its result with the elapsed host
    wall-clock seconds ([CLOCK_MONOTONIC]). Every [wall_s] in the BENCH
    files comes from here. *)

(** {1 The harness contract} *)

type summary = {
  lines : string list;  (** human summary, printed after the seeds *)
  fields : (string * Report.t) list;
      (** BENCH fields in file order; the runner appends [wall_s] and
          [failures] *)
  failures : string list;
      (** sweep-level bars that broke (e.g. soak's strict win) *)
}

(** One seed sweep. A module of this type is all a sweep subcommand, its
    [--bench-out] writer and its make target need. *)
module type S = sig
  val name : string  (** the CLI subcommand *)

  val bench_name : string  (** the BENCH file's ["benchmark"] value *)

  val doc : string  (** one line for [--help] and the usage listing *)

  val default_seeds : int  (** the seed count [make ci] runs *)

  val held : string  (** printed when no invariant broke *)

  type seed_report

  val run_seed : seed:int -> seed_report
  val failures : seed_report -> string list
  val pp_seed_report : Format.formatter -> seed_report -> unit

  val summary : seed_report list -> summary
  (** Aggregate a whole sweep (in seed order) into BENCH fields plus any
      sweep-level failures. May run extra work, e.g. a crash matrix over
      the first seeds. *)
end

val exit_code : 'a list -> int
(** The one process-exit policy: [0] iff there are no failures. *)

val finish :
  name:string ->
  held:string ->
  wall_s:float ->
  bench_out:string option ->
  (string * Report.t) list ->
  string list ->
  int
(** [finish ~name ~held ~wall_s ~bench_out fields failures] writes the
    BENCH summary [name] (the [fields], then [wall_s] and the failure
    count) when [bench_out] is given, prints [held] or one [FAILED] line
    per failure, and returns {!exit_code}. *)

val run :
  (module S) -> seeds:int -> base:int -> verbose:bool -> bench_out:string option -> int
(** The generic sweep: run [seeds] seeds from {!seeds_from} [~base],
    printing each seed's report when [verbose] or when it failed; time the
    seeds plus the summary on the host clock; print the summary lines and
    {!finish}. Per-seed failures read ["seed N: what"]. *)
