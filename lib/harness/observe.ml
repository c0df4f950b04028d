(* Observability harness: prove the fleet's telemetry plane free when
   disabled and load-bearing when enabled. One hostile fleet scenario is
   run twice — registries off, then on — and the model-cycle totals must
   be bit-identical (trace ids ride the migration wire unconditionally,
   so enabling telemetry changes no wire byte and hence no charged
   cycle). The enabled run must then actually observe the scenario:
   every committed failover stitches into one cross-host causal trace,
   the burn-rate monitor pages, and a fault-free replay stays silent.
   See observe.mli. *)

type report = {
  o_seed : int;
  o_cycles_off : int;
  o_cycles_on : int;
  o_samples : int;
  o_spans : int;
  o_failovers : int;
  o_stitched : int;
  o_traces : Telemetry.Causal.trace list;
  o_fast_alerts : int;
  o_slow_alerts : int;
  o_worst_burn : float;
  o_sup_timeline : (int * int * int * int) list;
  o_unsup_timeline : (int * int * int * int) list;
  o_chrome_json : string;
  o_failures : string list;
}

let delta r = r.o_cycles_on - r.o_cycles_off
let zero_overhead r = delta r = 0

let run ?(seed = 7) () =
  let fails = ref [] in
  let fail m = fails := m :: !fails in
  let hplan () = Fleet.fleet_plan ~seed in
  let off = Fleet.run_once ~telemetry:false ~plan:(hplan ()) ~seed () in
  let on_ = Fleet.run_once ~telemetry:true ~plan:(hplan ()) ~seed () in
  (* the zero-overhead proof: same plan, same seed, registries off vs on
     — every charged cycle must match, and so must the overlay's routing
     decisions (the router reads queue depth itself; the gauge only
     records it) *)
  if off.Fleet.r_cycles <> on_.Fleet.r_cycles then
    fail
      (Printf.sprintf
         "telemetry is not free: %d model cycles off, %d on (%+d)"
         off.Fleet.r_cycles on_.Fleet.r_cycles
         (on_.Fleet.r_cycles - off.Fleet.r_cycles));
  if Telemetry.samples off.Fleet.r_tel + Telemetry.span_count off.Fleet.r_tel > 0
  then fail "null registry recorded samples";
  if Fleet.goodput off.Fleet.r_sup <> Fleet.goodput on_.Fleet.r_sup then
    fail
      (Printf.sprintf
         "telemetry perturbed routing: supervised goodput %d off, %d on"
         (Fleet.goodput off.Fleet.r_sup)
         (Fleet.goodput on_.Fleet.r_sup));
  (* the enabled run must have seen something *)
  if Telemetry.samples on_.Fleet.r_tel = 0 then
    fail "enabled run recorded no fleet metric samples";
  if Telemetry.span_count on_.Fleet.r_tel = 0 then
    fail "enabled run recorded no causal spans";
  (match on_.Fleet.r_crash with
  | Some e -> fail ("hostile run escaped the harness: " ^ e)
  | None -> ());
  List.iter (fun f -> fail ("hostile: " ^ f)) on_.Fleet.r_mech_failures;
  if on_.Fleet.r_failovers > 0 && on_.Fleet.r_stitched < 1 then
    fail "a failover committed but no cross-host trace stitched";
  let fast = on_.Fleet.r_sup.Fleet.sim_fast_alerts
             + on_.Fleet.r_unsup.Fleet.sim_fast_alerts in
  let slow = on_.Fleet.r_sup.Fleet.sim_slow_alerts
             + on_.Fleet.r_unsup.Fleet.sim_slow_alerts in
  if on_.Fleet.r_deaths > 0 && fast + slow = 0 then
    fail "a host died but no burn-rate alert fired";
  (* a fault-free fleet must never page *)
  let ff = Fleet.run_once ~plan:(Inject.plan ~seed []) ~seed () in
  let ff_alerts =
    ff.Fleet.r_sup.Fleet.sim_fast_alerts + ff.Fleet.r_sup.Fleet.sim_slow_alerts
    + ff.Fleet.r_unsup.Fleet.sim_fast_alerts
    + ff.Fleet.r_unsup.Fleet.sim_slow_alerts
  in
  if ff_alerts > 0 then
    fail (Printf.sprintf "fault-free fleet fired %d burn-rate alert(s)" ff_alerts);
  let traces = Telemetry.Causal.stitch (Telemetry.spans on_.Fleet.r_tel) in
  {
    o_seed = seed;
    o_cycles_off = off.Fleet.r_cycles;
    o_cycles_on = on_.Fleet.r_cycles;
    o_samples =
      Telemetry.samples on_.Fleet.r_tel
      + on_.Fleet.r_sup.Fleet.sim_samples
      + on_.Fleet.r_unsup.Fleet.sim_samples;
    o_spans = Telemetry.span_count on_.Fleet.r_tel;
    o_failovers = on_.Fleet.r_failovers;
    o_stitched = on_.Fleet.r_stitched;
    o_traces = traces;
    o_fast_alerts = fast;
    o_slow_alerts = slow;
    o_worst_burn =
      max on_.Fleet.r_sup.Fleet.sim_worst_burn
        on_.Fleet.r_unsup.Fleet.sim_worst_burn;
    o_sup_timeline = on_.Fleet.r_sup.Fleet.sim_timeline;
    o_unsup_timeline = on_.Fleet.r_unsup.Fleet.sim_timeline;
    o_chrome_json = Trace.to_chrome_fleet on_.Fleet.r_host_traces;
    o_failures = List.rev !fails;
  }

let held =
  "telemetry plane held: zero model cycles with registries off, stitched cross-host \
   traces and burn-rate paging with them on, silence fault-free"

let timeline_json tl =
  Report.List
    (List.map
       (fun (w, adm, good, p99) ->
         Report.Obj
           [ ("window", Report.Int w);
             ("admitted", Report.Int adm);
             ("good", Report.Int good);
             ("p99_cycles", Report.Int p99) ])
       tl)

let fields r =
  [ ("seed", Report.Int r.o_seed);
    ("cycles_registry_off", Report.Int r.o_cycles_off);
    ("cycles_registry_on", Report.Int r.o_cycles_on);
    ("delta_cycles", Report.Int (delta r));
    ("zero_model_cycle_overhead", Report.Bool (zero_overhead r));
    ("samples", Report.Int r.o_samples);
    ("spans", Report.Int r.o_spans);
    ("failovers", Report.Int r.o_failovers);
    ("stitched_traces", Report.Int r.o_stitched);
    ("burn_alerts_fast", Report.Int r.o_fast_alerts);
    ("burn_alerts_slow", Report.Int r.o_slow_alerts);
    ("worst_burn", Report.Float r.o_worst_burn);
    ("sup_timeline", timeline_json r.o_sup_timeline);
    ("unsup_timeline", timeline_json r.o_unsup_timeline) ]

let pp_report ppf r =
  Format.fprintf ppf
    "seed %d: %d cycles off / %d on (%+d); %d samples, %d spans; %d \
     failover%s, %d stitched cross-host trace%s; burn alerts fast=%d \
     slow=%d (worst burn %.2f)@."
    r.o_seed r.o_cycles_off r.o_cycles_on (delta r) r.o_samples r.o_spans
    r.o_failovers
    (if r.o_failovers = 1 then "" else "s")
    r.o_stitched
    (if r.o_stitched = 1 then "" else "s")
    r.o_fast_alerts r.o_slow_alerts r.o_worst_burn;
  List.iter
    (fun tr ->
      if List.length tr.Telemetry.Causal.tr_hosts >= 2 then
        Format.fprintf ppf "    %a@." Telemetry.Causal.pp_trace tr)
    r.o_traces;
  List.iter (fun f -> Format.fprintf ppf "    FAILED %s@." f) r.o_failures
