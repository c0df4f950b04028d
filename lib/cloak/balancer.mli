(** Fleet supervision policy: failure detection, admission control and
    load routing for a fleet of VMM hosts serving cloaked processes.

    This is the pure policy half of fleet supervision — the driver
    ({!Harness.Fleet}) feeds in heartbeats, misses and error counts and
    asks three questions:

    - {b is this host sick?} {!suspicion} accrues phi-accrual-style
      evidence: consecutive missed heartbeats (a unit each), how overdue
      the next beat is relative to the learned EWMA inter-beat gap
      (capped at one unit) and a bounded error-rate term. Crossing
      {!threshold} makes the host [Suspect] — the driver then drains its
      cloaked processes onto healthy peers via {!Cloak.Migrate}.
    - {b where does this request go?} {!route} picks the least-loaded
      routable host (lowest index on ties, so routing is deterministic)
      under a per-host admission bound. A request that cannot be placed
      is shed with a typed {!shed_reason} — never queued unboundedly,
      never silently dropped.
    - {b when does a lost host come back?} {!tick} promotes [Dead] hosts
      to [Rejoining] (reduced admission) after a backoff, then to
      [Healthy] after another interval of good behaviour.

    State machine: [Healthy → Suspect] (suspicion crossed threshold),
    [Suspect → Healthy] (heartbeat received), [any → Dead] ({!mark_dead}:
    the host's processes were drained away or it crashed), [Dead →
    Rejoining → Healthy] ({!tick}, backoff-gated). A drain that aborts
    leaves the state alone: the host keeps serving and may be drained
    again. Losing any host also flips the fleet into reduced service:
    every host's admission bound halves, trading sheds for bounded
    queues. *)

type state = Healthy | Suspect | Dead | Rejoining

val state_to_string : state -> string

(** Why a request was shed. Every rejection is typed and immediate — the
    client never hangs on a host that will not answer. *)
type shed_reason =
  | Overload     (** every routable host is at its admission bound *)
  | No_capacity  (** no routable host at all (reduced service floor) *)

val shed_to_string : shed_reason -> string

val threshold : float
(** The suspicion level that marks a host Suspect: 2.0, two whole missed
    beats. *)

val queue_bound : int
(** The per-host admission bound: 6, halved in reduced service and for
    rejoining hosts. *)

type t

val create : hosts:int -> ?rejoin_backoff:int -> unit -> t
(** [rejoin_backoff] (default 0 = never) is the cycles a dead host sits
    out before re-admission. *)

val state : t -> int -> state

(** {1 Failure detection} *)

val heartbeat : t -> int -> now:int -> unit
(** Host [i] checked in at cycle [now]: updates the EWMA gap, clears
    consecutive misses, recovers [Suspect → Healthy]. *)

val missed_heartbeat : t -> int -> unit
(** A heartbeat from host [i] was lost in the hostile network. *)

val record_error : t -> int -> unit
(** One contained fault observed on host [i]. *)

val suspicion : t -> int -> now:int -> float
val suspect : t -> int -> now:int -> bool
(** [suspect] also latches [Healthy → Suspect] when the threshold is
    crossed. *)

val mean_gap : t -> int -> float
(** The learned inter-heartbeat gap for host [i] (0 until two beats) —
    what a driver multiplies by {!threshold} to get the detection
    latency of a silent crash. *)

(** {1 State machine} *)

val mark_dead : t -> int -> now:int -> unit
(** Take host [i] out of service at cycle [now]: its processes were
    drained away, or it crashed. The only way out of service. *)

val tick : t -> now:int -> unit
(** Advance re-admission: [Dead → Rejoining → Healthy] as backoffs
    expire. No-op when [rejoin_backoff] is 0. *)

(** {1 Routing} *)

val serving : t -> int
(** Routable hosts (Healthy, Suspect or Rejoining). *)

val reduced_service : t -> bool
(** Some capacity is lost; admission bounds are halved fleet-wide. *)

val route : t -> load:(int -> int) -> (int, shed_reason) result
(** Place one request: least-loaded routable host under its admission
    bound, or a typed shed. [load i] is host [i]'s current queue depth;
    it is asked of routable hosts only. *)
