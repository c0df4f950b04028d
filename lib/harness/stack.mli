(** One seed-sweep stack and the verdict every run of it must pass.

    Chaos, soak, adversary, migrate and fleet all boot the same thing — a
    seed-salted VMM recording into a fresh flight-recorder ring, with a
    guest kernel on it — run it until the guest is done or an exception
    escapes, and then prove the same things about the run: nothing
    escaped, the canary sits on no OS-visible surface, the trace
    invariants hold, and the same seed replays to the same audit log.
    This module is that shape, once. Each harness keeps only its workload,
    plans and its own extra invariants. *)

val vconfig : salt:int -> seed:int -> Cloak.Vmm.config
(** The per-seed VMM config every harness derives: default config with
    [seed = salt lxor (seed * 0x2545F491)]. Stacks sharing a salt and seed
    share the fleet master secret (what migration and fleet need); distinct
    salts keep harnesses' key material independent. *)

type t = { vmm : Cloak.Vmm.t; k : Guest.Kernel.t; trace : Trace.t }

val boot : ?engine:Inject.t -> salt:int -> seed:int -> Guest.Kernel.config -> t
(** A {!vconfig}[ ~salt ~seed] VMM recording into a fresh {!Trace.ring},
    with a kernel of the given config on it. [engine] is passed to
    {!Cloak.Vmm.create} as is. *)

val run : t -> string option
(** Run the kernel to completion: [None], or [Some msg] naming the
    exception that escaped [Kernel.run]. *)

val contains_pattern : string -> bytes -> bool
(** Substring scan — the canary detector shared by every privacy check. *)

(** {1 The run verdict} *)

type obs = {
  crash : string option;  (** exception escaping the run, if any *)
  leaks : string list;  (** OS-visible surfaces holding the canary *)
  trace_failures : string list;
      (** flight-recorder invariant violations ({!Trace.Check.verdict});
          empty both when the run is clean and when a ring wrapped (see
          [trace_dropped]) *)
  trace_dropped : int;  (** events evicted, worst stack *)
  audit : string list;  (** the first stack's audit log *)
  audit_dropped : int;  (** audit-ring entries lost to the bounded window *)
}

val observe :
  canary:string -> wire:bytes list -> crash:string option -> (string * t) list -> obs
(** Observe a finished run over its labelled stacks. Leaks: every
    allocated machine page, RAM remanence, disk and swap block of each
    stack holding [canary], as ["<label> disk block 3"] (no prefix for an
    empty label), then every [wire] frame holding it, as
    ["wire frame i"]. Trace failures: {!Trace.Check.verdict} per stack,
    as ["<label>: what"]. Audit: the first stack's log (stacks sharing an
    engine share one log). *)

val failures : obs -> string list
(** The escape, leak and trace lines: ["uncaught exception: ..."], one
    ["canary leaked to: a, b"] and one ["trace invariant: ..."] per trace
    failure. Callers prefix the run's label. *)

val replay : obs -> obs -> string option
(** The replay-determinism verdict over two same-seed runs
    ({!Sweep.determinism_failure}, with the larger of the two dropped
    counts). *)

val hot_spots : root:string -> t -> (string * int) list
(** The stack's top three self-cycle call contexts ({!Profile.hot_spots})
    — where a flagged perf regression most likely lives; empty when the
    trace ring wrapped. *)

val pp_hot_spots : trace_dropped:int -> Format.formatter -> (string * int) list -> unit
(** One indented report line: the hot spots, or why they are missing
    when the ring dropped events; nothing otherwise. *)
