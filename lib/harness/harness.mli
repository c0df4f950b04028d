(** Experiment driver shared by the benchmark harness, the examples and the
    CLI: builds a fresh VMM + kernel stack, runs a scenario, and reports
    deterministic cycle counts and event counters. *)

module Sweep = Sweep
(** Re-export: the shared seed-sweep scaffolding every antagonist harness
    is built on (canary scans, per-seed configs, determinism check, host
    clock, and the generic runner {!Sweep.run}). *)

module type S = Sweep.S
(** The harness contract: Chaos, Crash, Soak, Migrate, Fleet and
    Adversary each implement it, and the CLI builds one sweep subcommand
    per module. *)

module Chaos = Chaos
(** Re-export: the seeded chaos harness (randomized fault plans over a
    mixed cloaked/uncloaked workload). *)

module Crash = Crash
(** Re-export: the crash-point matrix (power cuts at every durable-write
    site, followed by recovery replay). *)

module Soak = Soak
(** Re-export: the availability soak (supervised restart from sealed
    checkpoints under sustained lethal fault plans). *)

module Migrate = Migrate
(** Re-export: live migration of a cloaked process over a hostile, lossy
    channel, with a crash matrix on both sides). *)

module Balancer = Cloak.Balancer
(** Re-export: the fleet supervision policy layer (suspicion scoring,
    admission control, routing) the fleet harness drives. *)

module Fleet = Fleet
(** Re-export: the multi-VMM fleet under open-loop load — failure
    detection, migration-based failover, graceful degradation). *)

module Observe = Observe
(** Re-export: the observability harness — the telemetry plane's
    zero-cycles-when-off / load-bearing-when-on proof over one hostile
    fleet scenario (see {!Observe.run}). *)

module Adversary = Adversary
(** Re-export: the adversarial-OS sweep (every workload under the
    malicious-kernel personality, per attack class). *)

type result = {
  cycles : int;                 (** model cycles consumed by the scenario *)
  counters : Machine.Counters.t;(** event deltas over the scenario *)
  exit_statuses : (int * int option) list;  (** per spawned pid *)
  violations : (int * Cloak.Violation.t) list;
  audit : string list;
      (** the VMM's deterministic event trail: every injection, violation,
          quarantine and machine check, in order *)
  injections : int;  (** fault-plan rule firings during the run *)
}

val run :
  ?vconfig:Cloak.Vmm.config ->
  ?kconfig:Guest.Kernel.config ->
  ?engine:Inject.t ->
  ?trace:Trace.t ->
  spawn:(Guest.Kernel.t -> int list) ->
  unit ->
  result
(** Create a stack, let [spawn] start processes (returning their pids) and
    run to completion. Counter and cycle deltas cover the whole run. With
    [engine], the stack runs under that fault-injection plan. With [trace],
    the stack records into that flight recorder (default {!Trace.null}). *)

val run_program :
  ?vconfig:Cloak.Vmm.config ->
  ?kconfig:Guest.Kernel.config ->
  ?engine:Inject.t ->
  ?trace:Trace.t ->
  ?cloaked:bool ->
  Guest.Abi.program ->
  result
(** Single-process convenience wrapper. *)

val all_exited_zero : result -> bool

(** {1 Table rendering} *)

module Table : sig
  val print :
    title:string -> ?note:string -> headers:string list -> string list list -> unit
  (** Fixed-width aligned table on stdout. *)

  val ratio : int -> int -> string
  (** ["3.42x"] formatting of a slowdown factor. *)

  val percent_overhead : base:int -> int -> string
  (** ["+2.3%"] formatting of (value - base) / base. *)

  val cycles : int -> string
  (** Human-readable cycle count ("1.24 Mcy"). *)
end
