(** The adversary sweep: every workload under a fully malicious OS.

    Where chaos/soak model an {e environmentally} faulty world (lost
    writes, bit flips, crashes) this harness points
    {!Attacks.Adversary} — a seeded malicious-kernel personality — at
    each workload: one sweep cell is a workload x an attack class x a
    seed, run twice for audit determinism, against a fault-free baseline
    of the same stack.

    The contract checked per cell:
    - {b no plaintext leak}: the cloaked canary never appears on an
      OS-visible surface, whatever the kernel does;
    - {b no silent corruption}: the victim either completes with its
      fault-free digest, or dies a typed death — a
      {!Oshim.Shim.Hostile_os} refusal (exit 81), a bounded errno
      degradation (exit 82), or VMM/kernel containment (-2/-3/137/139).
      Wrong output with a clean exit is the one forbidden outcome;
    - {b determinism}: two runs of the same cell produce bit-identical
      audit streams (modulo bounded-ring truncation). *)

val secret : string

val exit_refused : int
(** 81: the victim's [Hostile_os] exit. *)

val exit_degraded : int
(** 82: the victim's typed-errno exit. *)

val kconfig : Guest.Kernel.config

(** {1 Victims} *)

type workload = {
  w_name : string;
  program : digest:int option ref -> Guest.Abi.program;
}

val workloads : workload list
(** The E2/E3 set: every SPEC-style kernel plus the fileio mix, each
    carrying the cloaked canary and publishing an output digest. *)

val workload_for : seed:int -> workload

(** {1 Verdicts} *)

type outcome =
  | Survived  (** exited 0 with the fault-free digest *)
  | Refused   (** typed [Hostile_os] refusal, exit 81 *)
  | Degraded  (** typed errno degradation, exit 82 *)
  | Killed of int  (** VMM/kernel containment: -2, -3, 137, 139 *)
  | Silent of string  (** the one forbidden outcome *)

val outcome_name : outcome -> string

type class_report = {
  cls : Attacks.Adversary.cls;
  attacks : int;
  lies_detected : int;
  refusals : int;
  outcome : outcome;
  cr_failures : string list;
}

type seed_report = {
  seed : int;
  workload : string;
  classes : class_report list;
  attacks : int;
  lies_detected : int;
  refusals : int;
  survived : int;
  refused : int;
  degraded : int;
  killed : int;
  audit_dropped : int;
  failures : string list;
}

(** {1 The sweep}

    [run_seed] makes one fault-free baseline plus every attack class
    twice (9 stacks). The BENCH summary ([adversary]) carries attack,
    lie-detection and refusal totals and the outcome tallies. *)

include Sweep.S with type seed_report := seed_report
