(* Fleet supervisor: a multi-VMM fleet of cloaked services behind a load
   balancer, driven open-loop under a hostile antagonist. Failure
   detection (phi-accrual suspicion over lossy heartbeats), drain-based
   failover through the authenticated migration protocol (inheriting the
   split-brain generation fence), and graceful degradation with typed
   load shedding. See fleet.mli for the invariants. *)

open Machine
open Guest

(* --- fleet shape and tunables --- *)

let n_hosts = 3

(* The per-host workload is the migration harness's restart-aware cloaked
   service (16 units, sealed checkpoint per unit — each checkpoint is a
   quiesce point where the supervisor's hook runs) plus its uncloaked
   antagonist, under the soak kernel config and restart policy. *)
let service = Migrate.service
let antagonist = Migrate.antagonist
let kconfig = Migrate.kconfig
let policy = Migrate.policy

let max_drain_attempts = 2
(* aborted drain attempts per suspect host before the supervisor stops
   trying and leaves the process where it is *)

let max_failover_attempts = 3
(* transfer attempts when rescuing a dead host's last checkpoint *)

(* --- layer 1: the mechanism fleet ---

   [n_hosts] full VMM + kernel stacks share one fault engine (a single
   deterministic audit stream) and the fleet master secret (same vconfig
   seed, so sealed blobs travel). Hosts run sequentially; host i first
   adopts any checkpoint drained onto it by an earlier host — the
   travelling pid claims its slot before the host's own spawns, making
   pid collisions structurally impossible — then serves under its own
   supervision hook. *)

type host = {
  idx : int;
  vmm : Cloak.Vmm.t;
  k : Kernel.t;
  htrace : Trace.t;
  tid : int;
      (* the request trace id of its own service process: [idx + 1], set
         whether or not telemetry records (never 0 — 0 means "no id" on
         the wire), so the MIGF1 frames are byte-identical either way and
         the disabled path changes no charged cycle *)
  mutable spawned : bool;
  mutable pid : int;
  mutable spawn_at : int;
  mutable adopted : (int * int * int) list;
      (* adopted pid, source host, request trace id (from the wire) *)
  mutable died : bool;
  mutable drained : bool;
  mutable drain_at : int;  (* local cycles when its process left *)
  mutable death_at : int;  (* local cycles when its power feed died *)
  mutable end_at : int;    (* local cycles when its run finished *)
  mutable drain_attempts : int;
  mutable last_contained : int;
}

(* One committed failover. Until its destination runs, it is also that
   host's pending adoption. *)
type failover = {
  fo_src : int;
  fo_dst : int;
  fo_pid : int;  (* the travelling pid *)
  fo_tid : int;  (* request trace id, learned from the authenticated wire *)
  fo_blob : bytes;  (* the destination's verified blob *)
  fo_drain : bool;  (* a suspicion drain; else a post-crash rescue *)
  fo_downtime : int;  (* source cycles the transfer took *)
}

type fleet = {
  f_seed : int;
  engine : Inject.t;
  ch : Cloak.Migrate.channel;
  bal : Cloak.Balancer.t;
  hosts : host array;
  jitter : Oscrypto.Prng.t;
  tel : Telemetry.t array;  (* per-host registries, merged after the run *)
  seqs : (int, int ref) Hashtbl.t;  (* per request: next hop sequence *)
  mutable sessions : int;
  mutable failovers : failover list;  (* committed, newest first *)
  mutable lost : int;        (* cloaked processes lost for good *)
  mutable hb_timeouts : int;  (* heartbeats the network ate, fleet-wide *)
}

let tag_of pid = Cloak.Resource.tag (Cloak.Resource.Anon pid)
let coordinator fl = fl.hosts.(0).vmm
let pending fl j = List.filter (fun fo -> fo.fo_dst = j) fl.failovers

let next_seq fl tid =
  match Hashtbl.find_opt fl.seqs tid with
  | Some r ->
      incr r;
      !r
  | None ->
      Hashtbl.replace fl.seqs tid (ref 0);
      0

(* A failover destination must not be running yet (hosts execute
   sequentially, so a later host can still adopt before it spawns), must
   look healthy to the balancer, and must not already hold a pending blob
   with the same travelling pid. Least-burdened peer wins, lowest index
   on ties. *)
let choose_target fl ~src ~travelling_pid =
  let best = ref None in
  Array.iteri
    (fun j h ->
      let queued = pending fl j in
      if
        j <> src
        && (not h.spawned)
        && Cloak.Balancer.state fl.bal j = Cloak.Balancer.Healthy
        && not (List.exists (fun fo -> fo.fo_pid = travelling_pid) queued)
      then begin
        let load = List.length queued in
        match !best with
        | Some (_, bl) when bl <= load -> ()
        | _ -> best := Some (j, load)
      end)
    fl.hosts;
  Option.map fst !best

(* The one failover step, shared by drain and rescue: one authenticated
   transfer of [h]'s process (sealed as [blob]) onto [dst] through the
   migration driver. Committed: the destination's verified blob is booked
   as a failover record and the commit cycle is returned. Aborted: None —
   nothing was staled. The session name rides the wire: [f<seed>-h<i>-s<n>]
   for a drain, [f<seed>-x<i>-s<n>] for a rescue. *)
let failover fl h ~dst ~drain blob =
  fl.sessions <- fl.sessions + 1;
  let session =
    Printf.sprintf "f%d-%c%d-s%d" fl.f_seed (if drain then 'h' else 'x') h.idx
      fl.sessions
  in
  let t0 = Cost.cycles (Cloak.Vmm.cost h.vmm) in
  let snd = Cloak.Migrate.sender h.vmm ~session ~trace_id:h.tid blob in
  let rcv = Cloak.Migrate.receiver fl.hosts.(dst).vmm ~session in
  let committed =
    (Migration.transfer fl.ch ~jitter:fl.jitter ~src:h.vmm ~tag:(tag_of h.pid)
       snd rcv).committed
  in
  match Cloak.Migrate.blob rcv with
  | Some fo_blob when committed ->
      let t1 = Cost.cycles (Cloak.Vmm.cost h.vmm) in
      fl.failovers <-
        { fo_src = h.idx; fo_dst = dst; fo_pid = h.pid;
          fo_tid = Cloak.Migrate.trace_id rcv; fo_blob; fo_drain = drain;
          fo_downtime = t1 - t0 }
        :: fl.failovers;
      let hop = if drain then "drain" else "rescue" in
      let tel = fl.tel.(h.idx) in
      Telemetry.span tel ~host:h.idx ~tid:h.tid ~hop ~seq:(next_seq fl h.tid)
        ~t0 ~t1;
      Telemetry.incr tel ~host:h.idx ~at:t1 (hop ^ "-commit");
      Some t1
  | _ -> None

(* The supervision hook: runs inside the host kernel's checkpoint syscall
   with the process quiesced. Each invocation is one heartbeat interval —
   the beat rides the hostile network ([Hb_send]), the host's power feed
   is probed ([Host_power]: a Crash_point kills the whole VMM), contained
   faults feed the balancer's error term. A host whose suspicion crosses
   the threshold gets its cloaked process drained onto a healthy peer. *)
let rec hook fl h blob =
  (match Inject.fire fl.engine Inject.Host_power with
  | Some Inject.Crash_point -> Inject.crashed Inject.Host_power
  | Some _ | None -> ());
  let now = Cost.cycles (Cloak.Vmm.cost h.vmm) in
  let tel = fl.tel.(h.idx) in
  (match Inject.fire fl.engine Inject.Hb_send with
  | Some _ ->
      Cloak.Balancer.missed_heartbeat fl.bal h.idx;
      fl.hb_timeouts <- fl.hb_timeouts + 1;
      Telemetry.incr tel ~host:h.idx ~at:now "hb-miss"
  | None ->
      Cloak.Balancer.heartbeat fl.bal h.idx ~now;
      Telemetry.incr tel ~host:h.idx ~at:now "heartbeat");
  (* each heartbeat interval is one instant hop of the host's request,
     so the causal trace shows liveness between the coarse stage hops *)
  Telemetry.span tel ~host:h.idx ~tid:h.tid ~hop:"heartbeat"
    ~seq:(next_seq fl h.tid) ~t0:now ~t1:now;
  let contained = (Cloak.Vmm.counters h.vmm).contained in
  for _ = 1 to min 32 (contained - h.last_contained) do
    Cloak.Balancer.record_error fl.bal h.idx
  done;
  h.last_contained <- contained;
  let rearm () = Kernel.request_migration h.k ~pid:h.pid (hook fl h) in
  (* Voluntary drains only while the fleet is at full redundancy: once any
     capacity is lost a second suspect rides out its suspicion — shrinking
     an already-degraded fleet trades a maybe-sick host for certain
     queueing pain. Deaths are involuntary and always handled. *)
  if
    Cloak.Balancer.suspect fl.bal h.idx ~now
    && h.drain_attempts < max_drain_attempts
    && Cloak.Balancer.serving fl.bal = n_hosts
  then begin
    h.drain_attempts <- h.drain_attempts + 1;
    match choose_target fl ~src:h.idx ~travelling_pid:h.pid with
    | None ->
        (* nowhere to drain to: keep serving and keep watching *)
        rearm ();
        Kernel.Mig_abort
    | Some dst -> (
        let site = tag_of h.pid in
        Trace.span_enter h.htrace ~ctx:Trace.Vmm ~site Trace.Migration;
        let committed = failover fl h ~dst ~drain:true blob in
        Trace.span_exit h.htrace ~ctx:Trace.Vmm ~site Trace.Migration;
        match committed with
        | Some at ->
            h.drained <- true;
            h.drain_at <- at;
            Cloak.Balancer.mark_dead fl.bal h.idx ~now:at;
            Kernel.Mig_commit
        | None ->
            (* aborted: resume at the source, nothing was staled, and the
               host stays in service for the next attempt *)
            if h.drain_attempts < max_drain_attempts then rearm ();
            Kernel.Mig_abort)
  end
  else begin
    rearm ();
    Kernel.Mig_abort
  end

(* A host's power feed died mid-run. Rescue its last sealed checkpoint
   onto a healthy peer over the same fenced protocol; a blackholed
   channel exhausts the attempt budget and the process is honestly lost —
   degraded, never duplicated. Processes the host had itself adopted die
   with it. *)
let crash_failover fl h =
  h.died <- true;
  h.death_at <- Cost.cycles (Cloak.Vmm.cost h.vmm);
  Cloak.Balancer.mark_dead fl.bal h.idx ~now:h.death_at;
  Telemetry.incr fl.tel.(h.idx) ~host:h.idx ~at:h.death_at "host-death";
  fl.lost <- fl.lost + List.length h.adopted;
  if not h.drained then
    match Kernel.supervision_stats h.k ~pid:h.pid with
    | None | Some { Kernel.sup_last_checkpoint = None; _ } ->
        (* died before its first sealed checkpoint: nothing to rescue *)
        fl.lost <- fl.lost + 1
    | Some { Kernel.sup_last_checkpoint = Some blob; _ } ->
        let rec rescue attempts =
          attempts < max_failover_attempts
          &&
          match choose_target fl ~src:h.idx ~travelling_pid:h.pid with
          | None -> false
          | Some dst ->
              failover fl h ~dst ~drain:false blob <> None
              || rescue (attempts + 1)
        in
        if not (rescue 0) then fl.lost <- fl.lost + 1

let adopt_pending fl h errors =
  List.iter
    (fun fo ->
      let t0 = Cost.cycles (Cloak.Vmm.cost h.vmm) in
      match Kernel.adopt_migrated h.k ~policy ~prog:service fo.fo_blob with
      | p ->
          let t1 = Cost.cycles (Cloak.Vmm.cost h.vmm) in
          (* the adopt hop continues the request's trace under the id
             carried (MAC-covered) in the migration frames, not a local
             guess — this is what stitches the two hosts together *)
          Telemetry.span fl.tel.(h.idx) ~host:h.idx ~tid:fo.fo_tid ~hop:"adopt"
            ~seq:(next_seq fl fo.fo_tid) ~t0 ~t1;
          Telemetry.incr fl.tel.(h.idx) ~host:h.idx ~at:t1 "adopt";
          h.adopted <- (p, fo.fo_src, fo.fo_tid) :: h.adopted
      | exception e ->
          errors :=
            Printf.sprintf "host %d refused blob drained from host %d: %s"
              h.idx fo.fo_src (Printexc.to_string e)
            :: !errors)
    (List.rev (pending fl h.idx))

(* --- layer 2: the open-loop overlay ---

   A deterministic discrete-event model of request traffic over the
   mechanism run's timeline: Poisson arrivals (inverse transform from the
   seeded PRNG) at 60% of fleet capacity, fixed service time calibrated
   to 1/200th of the mechanism horizon, bounded per-host queues. The
   supervised variant routes through {!Cloak.Balancer} fed with the
   mechanism's drain/death timeline (deaths become visible one detection
   delay later); the unsupervised baseline routes least-backlogged across
   all hosts forever — the classic dead-backend failure mode, where the
   corpse keeps soaking a share of the traffic. *)

type sim = {
  sim_admitted : int;
  sim_within_budget : int;
  sim_sheds_overload : int;
  sim_sheds_no_capacity : int;
  sim_p95 : int;
  sim_p99 : int;
  sim_samples : int;  (* telemetry samples this sim recorded *)
  sim_timeline : (int * int * int * int) list;
      (* per window: (window, admitted, good, p99 latency) *)
  sim_fast_alerts : int;
  sim_slow_alerts : int;
  sim_worst_burn : float;
}

let sheds_total s = s.sim_sheds_overload + s.sim_sheds_no_capacity

let budget_pct s =
  if s.sim_admitted = 0 then 100.0
  else 100.0 *. float_of_int s.sim_within_budget /. float_of_int s.sim_admitted

(* Goodput: requests answered within the latency budget. *)
let goodput s = s.sim_within_budget

let simulate ~seed ~mean_gap ~supervised ~telemetry (hosts : host array) =
  let n = Array.length hosts in
  let horizon = Array.fold_left (fun a h -> max a h.end_at) 1 hosts in
  (* ~24 windows over the run: coarse enough that every window sees
     traffic, fine enough that an outage spans several *)
  let tel =
    if telemetry then
      Telemetry.create ~window_cycles:(max 1 (horizon / 24)) ()
    else Telemetry.null
  in
  let svc = max 1 (horizon / 200) in
  (* queue bound 6 ⇒ an admitted request on a live host waits at most 6
     service times, so the budget of 8 is met by construction fault-free *)
  let budget = 8 * svc in
  let detect =
    int_of_float
      (2.0 *. (if mean_gap > 0.0 then mean_gap else float_of_int (4 * svc)))
  in
  let backoff = max 1 (horizon / 6) in
  let bal =
    Cloak.Balancer.create ~hosts:n
      ~rejoin_backoff:(if supervised then backoff else 0) ()
  in
  (* when the supervisor takes host i out of rotation, if ever: a drain is
     visible immediately (the supervisor did it), a death only after the
     suspicion threshold's worth of silent heartbeats *)
  let removal =
    Array.map
      (fun h ->
        if h.drained then Some h.drain_at
        else if h.died then Some (min horizon (h.death_at + detect))
        else None)
      hosts
  in
  let revive =
    Array.map
      (function Some r when supervised -> Some (r + backoff) | _ -> None)
      removal
  in
  let removed = Array.make n false in
  let revived = Array.make n false in
  let busy = Array.make n 0 in
  let depth i t = if busy.(i) <= t then 0 else (busy.(i) - t + svc - 1) / svc in
  let alive i t =
    (* is host i actually executing requests at [t]? *)
    let stop =
      if supervised && hosts.(i).drained then Some hosts.(i).drain_at
      else if hosts.(i).died then Some hosts.(i).death_at
      else None
    in
    match stop with
    | None -> true
    | Some s -> t < s || (match revive.(i) with Some r -> t >= r | None -> false)
  in
  let rng = Oscrypto.Prng.create ~seed:(seed lxor 0xF1A7) in
  let gap_mean = float_of_int (5 * svc) /. float_of_int (3 * n) in
  let next_gap () =
    let u = float_of_int (1 + Oscrypto.Prng.int rng 1_000_000) /. 1_000_001.0 in
    max 1 (int_of_float (Float.round (-.gap_mean *. log u)))
  in
  let hist = Trace.Hist.create () in
  let admitted = ref 0 and within = ref 0 in
  let sh_o = ref 0 and sh_n = ref 0 in
  let serve i t_arr =
    admitted := !admitted + 1;
    (* SLO series, stamped at admission: the outcome is known
       synchronously here, so a window's good count can never exceed its
       admitted count *)
    Telemetry.incr tel ~at:t_arr "admitted";
    let s = max t_arr busy.(i) in
    let fin = s + svc in
    busy.(i) <- fin;
    let ok =
      if not (alive i t_arr) then false
      else
        let in_revived =
          match revive.(i) with Some r -> t_arr >= r | None -> false
        in
        if in_revived then true
        else if supervised && hosts.(i).drained then
          (* connection draining: in-flight work completes gracefully *)
          true
        else if hosts.(i).died then fin <= hosts.(i).death_at
        else true
    in
    if ok then begin
      let lat = fin - t_arr in
      Trace.Hist.add hist lat;
      Telemetry.observe tel ~at:t_arr "latency" lat;
      if lat <= budget then begin
        within := !within + 1;
        Telemetry.incr tel ~at:t_arr "good"
      end
    end
  in
  let t = ref (next_gap ()) in
  while !t < horizon do
    (* the queue-depth gauge records the routing signal; the router reads
       [depth] itself, so telemetry on or off routes identically *)
    for i = 0 to n - 1 do
      Telemetry.gauge tel ~host:i ~at:!t "queue-depth" (depth i !t)
    done;
    (* a revived host restarts with an empty queue *)
    Array.iteri
      (fun i r ->
        match r with
        | Some r when (not revived.(i)) && !t >= r ->
            revived.(i) <- true;
            busy.(i) <- !t
        | _ -> ())
      revive;
    if supervised then begin
      Array.iteri
        (fun i rm ->
          match rm with
          | Some at when (not removed.(i)) && !t >= at ->
              removed.(i) <- true;
              Cloak.Balancer.mark_dead bal i ~now:!t
          | _ -> ())
        removal;
      Cloak.Balancer.tick bal ~now:!t;
      match Cloak.Balancer.route bal ~load:(fun i -> depth i !t) with
      | Ok i -> serve i !t
      | Error Cloak.Balancer.Overload -> sh_o := !sh_o + 1
      | Error Cloak.Balancer.No_capacity -> sh_n := !sh_n + 1
    end
    else begin
      (* no supervisor: least-backlogged host, dead or not *)
      let best = ref 0 in
      for i = 1 to n - 1 do
        if depth i !t < depth !best !t then best := i
      done;
      if depth !best !t < Cloak.Balancer.queue_bound then serve !best !t
      else sh_o := !sh_o + 1
    end;
    t := !t + next_gap ()
  done;
  let goods = Telemetry.counter_windows_all tel "good" in
  let totals = Telemetry.counter_windows_all tel "admitted" in
  let lat_windows = Telemetry.hist_windows_all tel "latency" in
  let timeline =
    List.map
      (fun (w, total) ->
        let good = try List.assoc w goods with Not_found -> 0 in
        let p99 =
          match List.assoc_opt w lat_windows with
          | Some h -> Trace.Hist.percentile h 0.99
          | None -> 0
        in
        (w, total, good, p99))
      totals
  in
  let ev = Telemetry.Slo.evaluate ~good:goods ~total:totals () in
  {
    sim_admitted = !admitted;
    sim_within_budget = !within;
    sim_sheds_overload = !sh_o;
    sim_sheds_no_capacity = !sh_n;
    sim_p95 = Trace.Hist.percentile hist 0.95;
    sim_p99 = Trace.Hist.percentile hist 0.99;
    sim_samples = Telemetry.samples tel;
    sim_timeline = timeline;
    sim_fast_alerts = ev.Telemetry.Slo.ev_fast_fires;
    sim_slow_alerts = ev.Telemetry.Slo.ev_slow_fires;
    sim_worst_burn = ev.Telemetry.Slo.ev_worst_burn;
  }

(* --- one fleet scenario --- *)

type run = {
  r_deaths : int;
  r_drains : int;
  r_failovers : int;  (* committed: drains + post-crash rescues *)
  r_lost : int;
  r_hb_timeouts : int;
  r_double_resumes : int;
  r_downtimes : int list;
  r_cycles : int;  (* total charged model cycles across all hosts *)
  r_sup : sim;
  r_unsup : sim;
  r_tel : Telemetry.t;  (* the hosts' registries merged fleet-level *)
  r_stitched : int;  (* complete cross-host causal traces *)
  r_host_traces : (int * string * Trace.t) list;  (* per-host flight recorders *)
  r_leaks : string list;
  r_trace_failures : string list;
  r_mech_failures : string list;
  r_audit : string list;
  r_audit_dropped : int;
  r_crash : string option;  (* an exception that escaped the harness *)
}

let run_once ?(telemetry = true) ~plan ~seed () =
  let engine = Inject.create plan in
  (* every host shares the fleet master secret: same vconfig seed *)
  let vconfig = Sweep.vconfig ~salt:0xF1EE7 ~seed in
  let mk idx =
    let htrace = Trace.ring () in
    let vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace:htrace () in
    let k = Kernel.create ~config:kconfig vmm in
    {
      idx; vmm; k; htrace; tid = idx + 1; spawned = false; pid = -1;
      spawn_at = 0; adopted = []; died = false; drained = false; drain_at = 0;
      death_at = 0; end_at = 0; drain_attempts = 0; last_contained = 0;
    }
  in
  let hosts = Array.init n_hosts mk in
  let fl =
    {
      f_seed = seed;
      engine;
      ch = Cloak.Migrate.channel ~engine ();
      bal = Cloak.Balancer.create ~hosts:n_hosts ();
      hosts;
      jitter = Oscrypto.Prng.create ~seed:(seed lxor 0xF7EE);
      tel =
        Array.init n_hosts (fun _ ->
            if telemetry then Telemetry.create () else Telemetry.null);
      seqs = Hashtbl.create 8;
      sessions = 0;
      failovers = [];
      lost = 0;
      hb_timeouts = 0;
    }
  in
  let errors = ref [] in
  let escaped = ref None in
  Array.iter
    (fun h ->
      if !escaped = None then begin
        let tel = fl.tel.(h.idx) in
        adopt_pending fl h errors;
        (* admit the request before the process exists, and reserve the
           service hop's sequence slot so the span (only emitted once its
           end is known) still sorts before the heartbeats it encloses *)
        let t_adm = Cost.cycles (Cloak.Vmm.cost h.vmm) in
        Telemetry.span tel ~host:h.idx ~tid:h.tid ~hop:"admission"
          ~seq:(next_seq fl h.tid) ~t0:t_adm ~t1:t_adm;
        let svc_seq = next_seq fl h.tid in
        h.pid <- Kernel.spawn_supervised h.k ~policy service;
        h.spawn_at <- Cost.cycles (Cloak.Vmm.cost h.vmm);
        ignore (Kernel.spawn h.k antagonist);
        h.spawned <- true;
        Kernel.request_migration h.k ~pid:h.pid (hook fl h);
        (try Kernel.run h.k with
        | Inject.Vmm_crash _ -> crash_failover fl h
        | e -> escaped := Some (Printexc.to_string e));
        h.end_at <- Cost.cycles (Cloak.Vmm.cost h.vmm);
        let svc_end =
          if h.drained then h.drain_at
          else if h.died then h.death_at
          else h.end_at
        in
        Telemetry.span tel ~host:h.idx ~tid:h.tid ~hop:"service" ~seq:svc_seq
          ~t0:h.spawn_at ~t1:svc_end;
        if !escaped = None && not h.died then begin
          if
            (not h.drained)
            && Kernel.exit_status h.k ~pid:h.pid = Some 0
          then
            Telemetry.span tel ~host:h.idx ~tid:h.tid ~hop:"completion"
              ~seq:(next_seq fl h.tid) ~t0:h.end_at ~t1:h.end_at;
          (* adopted requests that ran to exit complete here, closing the
             cross-host trace their migration frames carried over *)
          List.iter
            (fun (pid, _src, tid) ->
              if Kernel.exit_status h.k ~pid = Some 0 then
                Telemetry.span tel ~host:h.idx ~tid ~hop:"completion"
                  ~seq:(next_seq fl tid) ~t0:h.end_at ~t1:h.end_at)
            h.adopted
        end
      end)
    hosts;
  (* snapshot the deterministic surfaces before the probes below append
     to the shared audit trail *)
  let audit = Inject.Audit.lines (Cloak.Vmm.audit (coordinator fl)) in
  let audit_dropped = Inject.Audit.dropped (Cloak.Vmm.audit (coordinator fl)) in
  (* every process failed over onto a surviving host must have finished *)
  Array.iter
    (fun h ->
      if h.spawned && not h.died then
        List.iter
          (fun (pid, src, _tid) ->
            if Kernel.exit_status h.k ~pid <> Some 0 then
              errors :=
                Printf.sprintf
                  "process failed over from host %d did not finish on host %d"
                  src h.idx
                :: !errors)
          h.adopted)
    hosts;
  (* exactly-once: the fence at the source and consumption at the
     destination must both refuse a second resume of every failover *)
  let double_resumes = ref 0 in
  if !escaped = None then
    List.iter
      (fun r ->
        (match Cloak.Seal.unseal fl.hosts.(r.fo_src).vmm r.fo_blob with
        | _ -> incr double_resumes
        | exception e when Migration.is_stale e -> ());
        match
          Kernel.adopt_migrated fl.hosts.(r.fo_dst).k ~policy ~prog:service
            r.fo_blob
        with
        | _ -> incr double_resumes
        | exception e when Migration.is_stale e -> ())
      fl.failovers;
  let wire = Cloak.Migrate.wire_log fl.ch in
  let leaks =
    List.concat_map
      (fun h ->
        List.map
          (fun s -> Printf.sprintf "host %d %s" h.idx s)
          (Soak.scan_leaks h.vmm h.k))
      (Array.to_list hosts)
    @ List.concat
        (List.mapi
           (fun i w ->
             if Soak.contains_canary w then [ Printf.sprintf "wire frame %d" i ]
             else [])
           wire)
  in
  let trace_failures =
    List.concat_map
      (fun h ->
        List.map
          (fun f -> Printf.sprintf "host %d: %s" h.idx f)
          (Trace.Check.verdict h.htrace))
      (Array.to_list hosts)
  in
  let mean_gap =
    let sum = ref 0.0 and cnt = ref 0 in
    Array.iteri
      (fun i _ ->
        let g = Cloak.Balancer.mean_gap fl.bal i in
        if g > 0.0 then begin
          sum := !sum +. g;
          incr cnt
        end)
      hosts;
    if !cnt = 0 then 0.0 else !sum /. float_of_int !cnt
  in
  let sup = simulate ~seed ~mean_gap ~supervised:true ~telemetry hosts in
  let unsup = simulate ~seed ~mean_gap ~supervised:false ~telemetry hosts in
  let deaths =
    Array.fold_left (fun a h -> if h.died then a + 1 else a) 0 hosts
  in
  (* fleet-level series: the per-host registries merged (associatively —
     any order gives the same series), then every committed failover
     checked for its stitched cross-host causal trace *)
  let r_tel = Telemetry.merge_all (Array.to_list fl.tel) in
  let stitched =
    if not (Telemetry.enabled r_tel) then 0
    else begin
      let traces = Telemetry.Causal.stitch (Telemetry.spans r_tel) in
      if !escaped = None then
        List.iter
          (fun rc ->
            let dst = fl.hosts.(rc.fo_dst) in
            if not dst.died then
              let ok =
                List.exists
                  (fun tr ->
                    tr.Telemetry.Causal.tr_tid = rc.fo_tid
                    && tr.tr_complete
                    && List.mem rc.fo_src tr.tr_hosts
                    && List.mem rc.fo_dst tr.tr_hosts)
                  traces
              in
              if not ok then
                errors :=
                  Printf.sprintf
                    "failover %d->%d (request %d) left no stitched \
                     cross-host trace"
                    rc.fo_src rc.fo_dst rc.fo_tid
                  :: !errors)
          fl.failovers;
      List.length
        (List.filter
           (fun tr ->
             tr.Telemetry.Causal.tr_complete
             && List.length tr.Telemetry.Causal.tr_hosts >= 2)
           traces)
    end
  in
  {
    r_deaths = deaths;
    r_drains = List.length (List.filter (fun fo -> fo.fo_drain) fl.failovers);
    r_failovers = List.length fl.failovers;
    r_lost = fl.lost;
    r_hb_timeouts = fl.hb_timeouts;
    r_double_resumes = !double_resumes;
    r_downtimes = List.rev_map (fun fo -> fo.fo_downtime) fl.failovers;
    r_cycles =
      Array.fold_left
        (fun a h -> a + Cost.cycles (Cloak.Vmm.cost h.vmm))
        0 hosts;
    r_sup = sup;
    r_unsup = unsup;
    r_tel;
    r_stitched = stitched;
    r_host_traces =
      List.map
        (fun h -> (h.idx, Printf.sprintf "host %d" h.idx, h.htrace))
        (Array.to_list hosts);
    r_leaks = leaks;
    r_trace_failures = trace_failures;
    r_mech_failures = List.rev !errors;
    r_audit = audit;
    r_audit_dropped = audit_dropped;
    r_crash = !escaped;
  }

(* --- hostile fleet plans --- *)

(* Lossy heartbeats (bursts of consecutive drops, so suspicion can
   accrue), one guaranteed power cut early enough that the surviving
   window exposes the supervised/unsupervised gap, and bounded channel
   mayhem on the failover path. Crash_point never rides the Mig_* sites:
   a host dies at its power feed, not mid-protocol. *)
let fleet_plan ~seed =
  let r = Oscrypto.Prng.create ~seed:(seed lxor 0xF1EE7D) in
  let int = Oscrypto.Prng.int in
  let hb _ =
    {
      Inject.site = Inject.Hb_send;
      trigger =
        { Inject.start = 2 + int r 28; every = 1 + int r 2; count = 2 + int r 4 };
      action = Inject.Drop;
    }
  in
  let hbs = List.init (1 + int r 2) hb in
  let kill =
    {
      Inject.site = Inject.Host_power;
      trigger = Inject.once ~at:(2 + int r 10);
      action = Inject.Crash_point;
    }
  in
  let mig _ =
    let site =
      match int r 3 with
      | 0 -> Inject.Mig_send
      | 1 -> Inject.Mig_recv
      | _ -> Inject.Mig_ack
    in
    let action =
      match int r 5 with
      | 0 -> Inject.Drop
      | 1 -> Inject.Duplicate
      | 2 -> Inject.Delay (1 + int r 3)
      | 3 -> Inject.Bit_flip (int r 600)
      | _ -> Inject.Reorder
    in
    {
      Inject.site;
      trigger =
        { Inject.start = 1 + int r 12; every = 1 + int r 4; count = 1 + int r 4 };
      action;
    }
  in
  let migs = List.init (1 + int r 3) mig in
  Inject.plan ~seed (hbs @ (kill :: migs))

(* A host dies early and every failover frame is eaten: rescue is
   impossible, so the fleet must degrade — account the process lost,
   keep serving on the survivors, never resume two incarnations. *)
let blackhole_plan ~seed =
  Inject.plan ~seed
    [
      {
        Inject.site = Inject.Host_power;
        trigger = Inject.once ~at:4;
        action = Inject.Crash_point;
      };
      {
        Inject.site = Inject.Mig_send;
        trigger = Inject.always;
        action = Inject.Drop;
      };
    ]

(* --- seed runner and invariants --- *)

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
  tel_samples : int;
  tel_spans : int;
  stitched_traces : int;  (* hostile run: complete cross-host traces *)
  burn_fast_alerts : int;  (* hostile run, supervised + unsupervised *)
  burn_slow_alerts : int;
  sup_timeline : (int * int * int * int) list;
      (* hostile supervised, per window: (window, admitted, good, p99) *)
  unsup_timeline : (int * int * int * int) list;
  failures : string list;
}

let run_seed ~seed =
  let fails = ref [] in
  let fail m = fails := m :: !fails in
  let ff = run_once ~plan:(Inject.plan ~seed []) ~seed () in
  let hplan = fleet_plan ~seed in
  let h1 = run_once ~plan:hplan ~seed () in
  let h2 = run_once ~plan:hplan ~seed () in
  let bh = run_once ~plan:(blackhole_plan ~seed) ~seed () in
  (* fault-free: full service, nobody dies, the latency SLO holds *)
  if ff.r_deaths > 0 || ff.r_drains > 0 then fail "fault-free fleet lost a host";
  if ff.r_lost > 0 then fail "fault-free fleet lost a process";
  if budget_pct ff.r_sup < 99.0 then
    fail
      (Printf.sprintf
         "fault-free SLO: only %.1f%% of admitted requests within budget"
         (budget_pct ff.r_sup));
  (* hostile: replay determinism over the shared audit stream *)
  (match
     Sweep.determinism_failure ~audit_a:h1.r_audit ~audit_b:h2.r_audit
       ~dropped:(h1.r_audit_dropped + h2.r_audit_dropped)
   with
  | Some what -> fail ("hostile " ^ what)
  | None -> ());
  if h1.r_deaths < 1 then fail "lethal plan failed to kill any host";
  List.iter
    (fun (name, (r : run)) ->
      (match r.r_crash with
      | Some e -> fail (Printf.sprintf "%s: escaped the harness: %s" name e)
      | None -> ());
      List.iter (fun l -> fail (name ^ ": canary leaked to " ^ l)) r.r_leaks;
      List.iter (fun f -> fail (name ^ ": trace: " ^ f)) r.r_trace_failures;
      List.iter (fun f -> fail (name ^ ": " ^ f)) r.r_mech_failures;
      if r.r_double_resumes > 0 then
        fail
          (Printf.sprintf "%s: %d double resume(s) past the fence" name
             r.r_double_resumes))
    [ ("fault-free", ff); ("hostile", h1); ("blackhole", bh) ];
  (* under a lethal antagonist, supervision must strictly beat its
     absence on goodput — removing the corpse from rotation wins more
     than detection lag and reduced-service sheds cost *)
  if h1.r_deaths > 0 && goodput h1.r_sup <= goodput h1.r_unsup then
    fail
      (Printf.sprintf "hostile: supervised goodput %d not above unsupervised %d"
         (goodput h1.r_sup) (goodput h1.r_unsup));
  if bh.r_deaths < 1 then fail "blackhole plan failed to kill any host";
  if bh.r_failovers > 0 then
    fail "blackhole: a failover committed through a dead channel";
  if bh.r_deaths > 0 && bh.r_lost < 1 then
    fail "blackhole: dead host's process not accounted lost";
  if bh.r_deaths > 0 && goodput bh.r_sup <= goodput bh.r_unsup then
    fail
      (Printf.sprintf
         "blackhole: supervised goodput %d not above unsupervised %d"
         (goodput bh.r_sup) (goodput bh.r_unsup));
  (* burn-rate alerts: a fault-free fleet never pages; a lethal plan must
     trip the monitor in at least one variant (the unsupervised corpse
     soaks traffic to the horizon, so the union is robustly non-zero) *)
  let sim_alerts s = s.sim_fast_alerts + s.sim_slow_alerts in
  if sim_alerts ff.r_sup + sim_alerts ff.r_unsup > 0 then
    fail "fault-free run fired a burn-rate alert";
  let hostile_fast = h1.r_sup.sim_fast_alerts + h1.r_unsup.sim_fast_alerts in
  let hostile_slow = h1.r_sup.sim_slow_alerts + h1.r_unsup.sim_slow_alerts in
  if h1.r_deaths > 0 && hostile_fast + hostile_slow = 0 then
    fail "hostile: a host died but no burn-rate alert fired";
  (* run_once already errors per committed failover whose surviving
     destination lacks a stitched cross-host trace *)
  {
    seed;
    ff_budget_pct = budget_pct ff.r_sup;
    deaths = ff.r_deaths + h1.r_deaths + bh.r_deaths;
    drains = ff.r_drains + h1.r_drains + bh.r_drains;
    failovers = ff.r_failovers + h1.r_failovers + bh.r_failovers;
    lost_procs = ff.r_lost + h1.r_lost + bh.r_lost;
    hb_timeouts = ff.r_hb_timeouts + h1.r_hb_timeouts + bh.r_hb_timeouts;
    sup_goodput = goodput h1.r_sup;
    unsup_goodput = goodput h1.r_unsup;
    sheds = sheds_total h1.r_sup + sheds_total bh.r_sup;
    sheds_overload = h1.r_sup.sim_sheds_overload + bh.r_sup.sim_sheds_overload;
    sheds_no_capacity =
      h1.r_sup.sim_sheds_no_capacity + bh.r_sup.sim_sheds_no_capacity;
    p95_latency = h1.r_sup.sim_p95;
    p99_latency = h1.r_sup.sim_p99;
    downtimes = ff.r_downtimes @ h1.r_downtimes @ bh.r_downtimes;
    double_resumes =
      ff.r_double_resumes + h1.r_double_resumes + bh.r_double_resumes;
    audit_dropped =
      max ff.r_audit_dropped
        (max bh.r_audit_dropped (max h1.r_audit_dropped h2.r_audit_dropped));
    tel_samples =
      Telemetry.samples h1.r_tel + h1.r_sup.sim_samples
      + h1.r_unsup.sim_samples;
    tel_spans = Telemetry.span_count h1.r_tel;
    stitched_traces = h1.r_stitched;
    burn_fast_alerts = hostile_fast;
    burn_slow_alerts = hostile_slow;
    sup_timeline = h1.r_sup.sim_timeline;
    unsup_timeline = h1.r_unsup.sim_timeline;
    failures = List.rev !fails;
  }

(* --- presentation --- *)

let pp_seed_report ppf (r : seed_report) =
  Format.fprintf ppf
    "seed %d: ff %.1f%% in budget; %d death%s, %d drain%s, %d failover%s, %d \
     lost, %d hb timeouts; goodput sup=%d unsup=%d; %d sheds (%d overload, \
     %d no-capacity); latency p95=%d p99=%d; telemetry %d \
     samples, %d spans, %d stitched, alerts fast=%d slow=%d%s%s"
    r.seed r.ff_budget_pct r.deaths
    (if r.deaths = 1 then "" else "s")
    r.drains
    (if r.drains = 1 then "" else "s")
    r.failovers
    (if r.failovers = 1 then "" else "s")
    r.lost_procs r.hb_timeouts r.sup_goodput r.unsup_goodput r.sheds
    r.sheds_overload r.sheds_no_capacity r.p95_latency
    r.p99_latency r.tel_samples r.tel_spans r.stitched_traces
    r.burn_fast_alerts r.burn_slow_alerts
    (if r.failures = [] then "" else " INVARIANTS BROKEN: ")
    (String.concat "; " r.failures);
  List.iter
    (fun (label, tl) ->
      Format.fprintf ppf "@\n    %s timeline (window admitted/good p99):%s" label
        (String.concat " |"
           (List.map
              (fun (w, adm, good, p99) -> Printf.sprintf " %d %d/%d %d" w adm good p99)
              tl)))
    [ ("supervised", r.sup_timeline); ("unsupervised", r.unsup_timeline) ]

let failures (r : seed_report) = r.failures

let name = "fleet"
let bench_name = "fleet"
let doc = "fleet supervisor: failover + graceful degradation under open-loop load"
let default_seeds = 20

let held =
  "all invariants held: SLO fault-free, supervised goodput beats unsupervised, \
   exactly-once failover, typed sheds, no leaks, deterministic audit"

let summary (reports : seed_report list) =
  let hist = Trace.Hist.create () in
  List.iter
    (fun r -> List.iter (fun d -> if d > 0 then Trace.Hist.add hist d) r.downtimes)
    reports;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let worst f init cmp =
    List.fold_left (fun a r -> if cmp (f r) a then f r else a) init reports
  in
  let seeds = List.length reports in
  let ff_budget = worst (fun r -> r.ff_budget_pct) 100.0 ( < ) in
  let deaths = sum (fun r -> r.deaths) and drains = sum (fun r -> r.drains) in
  let failovers = sum (fun r -> r.failovers) and lost = sum (fun r -> r.lost_procs) in
  let hb = sum (fun r -> r.hb_timeouts) and sheds = sum (fun r -> r.sheds) in
  let doubles = sum (fun r -> r.double_resumes) in
  let sup = sum (fun r -> r.sup_goodput) and unsup = sum (fun r -> r.unsup_goodput) in
  let p95 = worst (fun r -> r.p95_latency) 0 ( > ) in
  let p99 = worst (fun r -> r.p99_latency) 0 ( > ) in
  let d50 = Trace.Hist.percentile hist 0.5 and d95 = Trace.Hist.percentile hist 0.95 in
  let stitched = sum (fun r -> r.stitched_traces) in
  let fast = sum (fun r -> r.burn_fast_alerts) in
  let slow = sum (fun r -> r.burn_slow_alerts) in
  {
    Sweep.lines =
      [ Printf.sprintf
          "fleet: %d seeds, ff %.1f%% in budget (worst), %d deaths, %d drains, %d \
           failovers (%d lost, 0-double-resume=%b), goodput sup=%d unsup=%d, %d \
           sheds, %d hb timeouts, failover downtime p50=%d p95=%d cycles, %d \
           stitched traces, burn alerts fast=%d slow=%d, %d invariant failures"
          seeds ff_budget deaths drains failovers lost (doubles = 0) sup unsup sheds hb
          d50 d95 stitched fast slow
          (sum (fun r -> List.length r.failures));
        Printf.sprintf
          "  degradation: %d sheds (all typed), latency p95 %d / p99 %d cycles (worst seed)"
          sheds p95 p99 ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("hosts", Report.Int n_hosts);
        ("ff_budget_pct_worst", Report.Float ff_budget);
        ("deaths", Report.Int deaths);
        ("drains", Report.Int drains);
        ("failovers", Report.Int failovers);
        ("lost_processes", Report.Int lost);
        ("hb_timeouts", Report.Int hb);
        ("sheds", Report.Int sheds);
        ("double_resumes", Report.Int doubles);
        ("goodput_supervised", Report.Int sup);
        ("goodput_unsupervised", Report.Int unsup);
        ("latency_p95_cycles", Report.Int p95);
        ("latency_p99_cycles", Report.Int p99);
        ("failover_downtime_p50_cycles", Report.Int d50);
        ("failover_downtime_p95_cycles", Report.Int d95);
        ("telemetry_samples", Report.Int (sum (fun r -> r.tel_samples)));
        ("telemetry_spans", Report.Int (sum (fun r -> r.tel_spans)));
        ("stitched_traces", Report.Int stitched);
        ("burn_alerts_fast", Report.Int fast);
        ("burn_alerts_slow", Report.Int slow) ];
    failures = [];
  }
