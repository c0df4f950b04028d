(* Fleet supervision policy: phi-accrual-style suspicion from heartbeat
   gaps, a per-host availability state machine, and admission-controlled
   least-loaded routing with typed load shedding. Pure policy over
   counters the driver feeds in — no I/O, no VMM access. See
   balancer.mli. *)

type state = Healthy | Suspect | Dead | Rejoining

let state_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Dead -> "dead"
  | Rejoining -> "rejoining"

type shed_reason = Overload | No_capacity

let shed_to_string = function
  | Overload -> "overload"
  | No_capacity -> "no-capacity"

let threshold = 2.0
let queue_bound = 6
let reduced_queue_bound = queue_bound / 2

type host = {
  mutable st : state;
  mutable beats : int;
  mutable missed : int;  (* consecutive missed heartbeats *)
  mutable errors : int;  (* contained faults charged to this host *)
  mutable last_beat : int;
  mutable mean_gap : float;  (* EWMA of inter-heartbeat gaps, cycles *)
  mutable rejoin_at : int;  (* next promotion time while Dead/Rejoining *)
}

type t = { hosts : host array; rejoin_backoff : int }

let create ~hosts ?(rejoin_backoff = 0) () =
  if hosts <= 0 then invalid_arg "Balancer.create: hosts must be positive";
  {
    hosts =
      Array.init hosts (fun _ ->
          {
            st = Healthy;
            beats = 0;
            missed = 0;
            errors = 0;
            last_beat = 0;
            mean_gap = 0.0;
            rejoin_at = 0;
          });
    rejoin_backoff;
  }

let host t i = t.hosts.(i)
let state t i = (host t i).st

(* --- heartbeats and suspicion --- *)

(* EWMA weight for the inter-beat gap estimate: heavy enough on history
   that one slow beat does not erase the baseline. *)
let gap_alpha = 0.3

let heartbeat t i ~now =
  let h = host t i in
  if h.beats > 0 then begin
    let gap = float_of_int (max 0 (now - h.last_beat)) in
    h.mean_gap <-
      (if h.mean_gap = 0.0 then gap
       else ((1.0 -. gap_alpha) *. h.mean_gap) +. (gap_alpha *. gap))
  end;
  h.beats <- h.beats + 1;
  h.last_beat <- now;
  h.missed <- 0;
  if h.st = Suspect then h.st <- Healthy

let missed_heartbeat t i =
  let h = host t i in
  h.missed <- h.missed + 1

let record_error t i =
  let h = host t i in
  h.errors <- h.errors + 1

let mean_gap t i = (host t i).mean_gap

(* Phi-accrual in spirit: each consecutive missed heartbeat is a unit of
   suspicion, plus how overdue the next beat is relative to the learned
   gap (capped at one unit: a single silent interval is at most one
   beat's worth of evidence), plus a bounded contribution from the host's
   error rate. Crossing [threshold] (two whole missed beats) marks the
   host Suspect. *)
let suspicion t i ~now =
  let h = host t i in
  let overdue =
    if h.mean_gap <= 0.0 || h.beats = 0 then 0.0
    else
      min 1.0
        (max 0.0 ((float_of_int (now - h.last_beat) /. h.mean_gap) -. 1.0))
  in
  let error_term = min 1.0 (float_of_int h.errors /. 16.0) in
  float_of_int h.missed +. overdue +. error_term

let suspect t i ~now =
  let h = host t i in
  let s = suspicion t i ~now in
  if s >= threshold && h.st = Healthy then h.st <- Suspect;
  s >= threshold

(* --- availability state machine --- *)

let mark_dead t i ~now =
  let h = host t i in
  h.st <- Dead;
  h.rejoin_at <- now + t.rejoin_backoff

(* Re-admission with backoff: a Dead host whose backoff expired rejoins
   at reduced admission (Rejoining), then earns full service after one
   more backoff interval of good behaviour. [rejoin_backoff = 0] disables
   re-admission entirely (a retired host stays Dead). *)
let tick t ~now =
  if t.rejoin_backoff > 0 then
    Array.iter
      (fun h ->
        match h.st with
        | Dead when now >= h.rejoin_at ->
            h.st <- Rejoining;
            h.missed <- 0;
            h.errors <- 0;
            h.rejoin_at <- now + t.rejoin_backoff
        | Rejoining when now >= h.rejoin_at -> h.st <- Healthy
        | _ -> ())
      t.hosts

(* --- routing --- *)

let routable h = h.st <> Dead

let serving t =
  Array.fold_left (fun n h -> if routable h then n + 1 else n) 0 t.hosts

(* Reduced-service mode: once any capacity is lost the whole fleet
   tightens its admission bound, trading sheds for bounded queues — the
   graceful-degradation half of the SLO. *)
let reduced_service t = serving t < Array.length t.hosts

let bound_for t h =
  if h.st = Rejoining || reduced_service t then reduced_queue_bound
  else queue_bound

(* Least-loaded routable host, lowest index on ties (determinism). Only
   routable hosts are polled: a dead host's queue is not a signal. A full
   fleet sheds typed: [Overload] when the least-loaded candidate is at its
   bound, [No_capacity] when nothing routes at all. *)
let route t ~load =
  let best = ref None in
  Array.iteri
    (fun i h ->
      if routable h then
        let l = load i in
        match !best with
        | Some (_, bl) when bl <= l -> ()
        | _ -> best := Some (i, l))
    t.hosts;
  match !best with
  | None -> Error No_capacity
  | Some (i, l) -> if l < bound_for t t.hosts.(i) then Ok i else Error Overload
