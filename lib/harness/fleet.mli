(** Fleet supervisor harness: a multi-VMM fleet of cloaked services
    behind a load balancer, driven open-loop under a hostile antagonist.

    Three full VMM + kernel stacks share one fault-injection engine (a
    single deterministic audit stream) and the fleet master secret, each
    running the migration harness's restart-aware cloaked service under
    a supervision hook that fires at every checkpoint quiesce:

    - {b detection} — each hook invocation is a heartbeat. The beat rides
      the hostile network ([Inject.Hb_send]: a fired rule is a lost
      beat), the host's power feed is probed ([Inject.Host_power]: a
      [Crash_point] kills the whole VMM), and contained faults feed the
      balancer's error term. {!Cloak.Balancer.suspicion} accrues
      phi-accrual-style evidence over all three.
    - {b failover} — a suspect host's cloaked process is drained onto a
      healthy peer through the authenticated {!Cloak.Migrate} protocol,
      inheriting the seal-generation fence: the source is staled before
      COMMIT, so no failover can ever resume twice. A host that dies
      outright has its last sealed checkpoint rescued the same way; a
      blackholed channel exhausts the attempt budget and the process is
      honestly counted lost — degraded, never duplicated. Drain and
      rescue share one failover step (target, session, driver call,
      commit record); a committed drain takes the source out of service,
      an aborted one leaves it serving for the next attempt.
    - {b graceful degradation} — an open-loop overlay (deterministic
      Poisson arrivals at 60% of fleet capacity, bounded per-host
      queues) routes through {!Cloak.Balancer}: requests that cannot be
      placed are shed with a typed reason, never queued unboundedly, and
      lost capacity halves the admission bound fleet-wide. Dead hosts
      re-admit after a backoff at reduced service. The same arrival
      process replayed without a supervisor (dead backends keep soaking
      traffic) is the goodput baseline the supervised fleet must beat. *)

val n_hosts : int

val service : Guest.Abi.program
val antagonist : Guest.Abi.program
val kconfig : Guest.Kernel.config
val policy : Guest.Kernel.restart_policy

val max_drain_attempts : int
(** Aborted drain attempts per suspect host before the supervisor stops
    trying. *)

val max_failover_attempts : int
(** Transfer attempts when rescuing a dead host's last checkpoint. *)

(** {1 Plans} *)

val fleet_plan : seed:int -> Inject.plan
(** Lossy heartbeat bursts, one guaranteed mid-run power cut, bounded
    channel mayhem on the failover path. *)

val blackhole_plan : seed:int -> Inject.plan
(** An early power cut with every failover frame eaten: rescue is
    impossible, the fleet must degrade without duplicating anyone. *)

(** {1 The open-loop overlay} *)

type sim = {
  sim_admitted : int;
  sim_within_budget : int;
  sim_sheds_overload : int;
  sim_sheds_no_capacity : int;
  sim_p95 : int;
  sim_p99 : int;
  sim_samples : int;  (** telemetry samples this sim recorded *)
  sim_timeline : (int * int * int * int) list;
      (** per window: [(window, admitted, good, p99 latency)] — the
          time-series behind the end-of-run aggregates *)
  sim_fast_alerts : int;  (** fast burn-rate alert firings *)
  sim_slow_alerts : int;
  sim_worst_burn : float;
}

val sheds_total : sim -> int
val budget_pct : sim -> float
val goodput : sim -> int
(** Requests answered within the latency budget. *)

(** {1 One scenario} *)

type run = {
  r_deaths : int;
  r_drains : int;
  r_failovers : int;  (** committed: drains + post-crash rescues *)
  r_lost : int;
  r_hb_timeouts : int;
  r_double_resumes : int;
  r_downtimes : int list;  (** per committed failover, oldest first *)
  r_cycles : int;  (** total model cycles across every host VMM *)
  r_sup : sim;
  r_unsup : sim;
  r_tel : Telemetry.t;
      (** every host's registry merged — counters summed, spans pooled *)
  r_stitched : int;
      (** complete causal traces spanning ≥ 2 hosts (each a failover
          followed cross-host from admission to completion) *)
  r_host_traces : (int * string * Trace.t) list;
      (** [(pid, name, recorder)] per host, for fleet-wide Chrome export *)
  r_leaks : string list;
  r_trace_failures : string list;
  r_mech_failures : string list;
  r_audit : string list;
  r_audit_dropped : int;
  r_crash : string option;
}

val run_once : ?telemetry:bool -> plan:Inject.plan -> seed:int -> unit -> run
(** One scenario. [telemetry] (default true) selects a live registry per
    host; [false] threads {!Telemetry.null} everywhere instead — the
    instrumented paths all become no-ops, and because host [i]'s request
    trace id is [i + 1] either way the wire bytes (hence every cycle
    count) are identical. The overlay routes on each host's queue depth
    directly, so its decisions do not depend on the registry either.
    That equality is the zero-overhead proof {!Observe} checks. *)

(** {1 Seed sweep} *)

type seed_report = {
  seed : int;
  ff_budget_pct : float;
  deaths : int;
  drains : int;
  failovers : int;
  lost_procs : int;
  hb_timeouts : int;
  sup_goodput : int;
  unsup_goodput : int;
  sheds : int;
  sheds_overload : int;
  sheds_no_capacity : int;
  p95_latency : int;
  p99_latency : int;
  downtimes : int list;
  double_resumes : int;
  audit_dropped : int;
  tel_samples : int;  (** metric samples, hostile run (fleet + overlays) *)
  tel_spans : int;  (** causal spans recorded by the hostile fleet run *)
  stitched_traces : int;  (** cross-host causal traces, hostile run *)
  burn_fast_alerts : int;  (** hostile run, supervised + unsupervised *)
  burn_slow_alerts : int;
  sup_timeline : (int * int * int * int) list;
      (** hostile supervised overlay: [(window, admitted, good, p99)] *)
  unsup_timeline : (int * int * int * int) list;
  failures : string list;
}

(** {1 The sweep}

    [run_seed] makes four full fleet runs: fault-free (the latency SLO
    must hold for ≥99% of admitted requests), the hostile plan twice
    (audit-stream determinism), and the blackhole plan (graceful
    degradation). Every committed failover is probed for double resume at
    both ends. The BENCH summary ([fleet]) carries deaths, drains,
    failovers, sheds, goodput supervised vs unsupervised, worst-seed tail
    latency, failover downtime percentiles and telemetry totals; the
    per-window timelines are printed by [fleet --verbose] instead. *)

include Sweep.S with type seed_report := seed_report
