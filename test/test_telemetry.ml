(* Fleet telemetry: window folds over the sample log (no sample ever
   double-counted across a boundary, sums and histograms agree), the
   canonical span order, SLO burn-rate alerting (fires on a seeded error
   burst, stays silent fault-free, hysteresis prevents re-paging), causal
   stitching with critical-path extraction, and the end-to-end fleet
   proof: disabling the registry changes no model cycle, enabling it
   stitches a committed failover into one cross-host trace. *)

let quick name f = Alcotest.test_case name `Quick f

(* --- window folds (qcheck) --- *)

(* Every sample lands in exactly one window: per-window sums always
   re-sum to the overall total, each window's sum matches a direct
   recount of the samples that map to it, and the histogram fold sees
   the same samples window by window. *)
let prop_window_no_double_count =
  QCheck.Test.make ~name:"window bucketing never double-counts" ~count:200
    QCheck.(pair (int_range 1 1_000)
              (list_of_size Gen.(int_range 0 80)
                 (pair (int_range 0 10_000) (int_range 1 5))))
    (fun (width, samples) ->
      let t = Telemetry.create () in
      List.iter (fun (at, v) -> Telemetry.sample t ~at "reqs" v) samples;
      Telemetry.sample t ~at:0 "other" 1_000;
      let windows = Telemetry.window_sums t ~width "reqs" in
      let hists = Telemetry.window_hists t ~width "reqs" in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 windows in
      Telemetry.samples t = List.length samples + 1
      && total = List.fold_left (fun a (_, v) -> a + v) 0 samples
      && List.for_all
           (fun (w, n) ->
             n
             = List.fold_left
                 (fun a (at, v) -> if at / width = w then a + v else a)
                 0 samples)
           windows
      && List.for_all (fun (at, _) -> List.mem_assoc (at / width) windows) samples
      && List.map fst hists = List.map fst windows
      && List.for_all2
           (fun (_, n) (_, h) ->
             Trace.Hist.total h = n && Trace.Hist.count h > 0)
           windows hists)

(* Spans written in any order read back in one canonical order, which is
   what lets one registry hold every host's spans. *)
let prop_span_order_canonical =
  QCheck.Test.make ~name:"span order is canonical" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40)
              (quad (int_range 1 4) (int_range (-1) 2) (int_range 0 6)
                 (int_range 0 1_000)))
    (fun spans ->
      let record order =
        let t = Telemetry.create () in
        List.iter
          (fun (tid, host, seq, t0) ->
            Telemetry.span t ~host ~tid ~hop:"hop" ~seq ~t0 ~t1:(t0 + 10))
          order;
        Telemetry.spans t
      in
      record spans = record (List.rev spans))

(* --- registry semantics --- *)

let test_null_registry () =
  let t = Telemetry.null in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Telemetry.sample t ~at:5 "c" 1;
  Telemetry.span t ~tid:1 ~hop:"x" ~seq:0 ~t0:0 ~t1:1;
  Alcotest.(check int) "no samples" 0 (Telemetry.samples t);
  Alcotest.(check int) "no spans" 0 (Telemetry.span_count t);
  Alcotest.(check (list (pair int int))) "no windows" []
    (Telemetry.window_sums t ~width:10 "c");
  Alcotest.(check bool) "a live registry is enabled" true
    (Telemetry.enabled (Telemetry.create ()))

let test_window_boundary () =
  let t = Telemetry.create () in
  Telemetry.sample t ~at:99 "c" 1;
  Telemetry.sample t ~at:100 "c" 1;
  Alcotest.(check (list (pair int int))) "adjacent stamps, adjacent windows"
    [ (0, 1); (1, 1) ]
    (Telemetry.window_sums t ~width:100 "c");
  Alcotest.(check (list (pair int int))) "the width is the reader's"
    [ (0, 2) ]
    (Telemetry.window_sums t ~width:1_000 "c")

(* --- SLO burn-rate monitor --- *)

let windows n f = List.init n (fun w -> (w, f w))

let test_slo_silent_when_good () =
  let total = windows 12 (fun _ -> 100) in
  let ev = Telemetry.Slo.evaluate ~good:total ~total in
  Alcotest.(check int) "no fast alert" 0 ev.Telemetry.Slo.ev_fast_fires;
  Alcotest.(check int) "no slow alert" 0 ev.Telemetry.Slo.ev_slow_fires;
  Alcotest.(check bool) "no alerts" true (ev.Telemetry.Slo.ev_alerts = [])

let test_slo_burst_pages_once () =
  (* two windows of pure errors inside an otherwise clean day: the fast
     alert fires on the upward transition, stays latched while the burn
     remains above threshold * hysteresis, and never re-pages *)
  let total = windows 12 (fun _ -> 100) in
  let good = windows 12 (fun w -> if w = 3 || w = 4 then 0 else 100) in
  let ev = Telemetry.Slo.evaluate ~good ~total in
  Alcotest.(check int) "one fast page" 1 ev.Telemetry.Slo.ev_fast_fires;
  (match ev.Telemetry.Slo.ev_alerts with
  | a :: _ ->
      Alcotest.(check bool) "fast" true a.Telemetry.Slo.a_fast;
      Alcotest.(check int) "fires at the burst" 3 a.Telemetry.Slo.a_window;
      Alcotest.(check bool) "burn over threshold" true
        (a.Telemetry.Slo.a_burn >= 6.0)
  | [] -> Alcotest.fail "no alert fired");
  Alcotest.(check bool) "worst burn recorded" true
    (ev.Telemetry.Slo.ev_worst_burn >= 6.0)

let test_slo_empty_windows_skipped () =
  (* windows with no traffic contribute nothing to the lookback *)
  let total = [ (0, 100); (5, 100) ] in
  let good = [ (0, 100); (5, 100) ] in
  let ev = Telemetry.Slo.evaluate ~good ~total in
  Alcotest.(check int) "no alert over a gap" 0
    (ev.Telemetry.Slo.ev_fast_fires + ev.Telemetry.Slo.ev_slow_fires)

(* --- causal stitching --- *)

let span ~tid ~host ~hop ~seq ~t0 ~t1 =
  { Telemetry.Causal.cs_tid = tid; cs_host = host; cs_hop = hop;
    cs_seq = seq; cs_t0 = t0; cs_t1 = t1 }

let test_stitch_cross_host () =
  let spans =
    [ span ~tid:5 ~host:0 ~hop:"admission" ~seq:0 ~t0:0 ~t1:0;
      span ~tid:5 ~host:0 ~hop:"service" ~seq:1 ~t0:10 ~t1:100;
      span ~tid:5 ~host:0 ~hop:"drain" ~seq:2 ~t0:60 ~t1:90;
      span ~tid:5 ~host:1 ~hop:"adopt" ~seq:3 ~t0:110 ~t1:140;
      span ~tid:5 ~host:1 ~hop:"completion" ~seq:4 ~t0:150 ~t1:150;
      (* an unrelated single-host request *)
      span ~tid:9 ~host:2 ~hop:"admission" ~seq:0 ~t0:5 ~t1:5 ]
  in
  match Telemetry.Causal.stitch spans with
  | [ five; nine ] ->
      Alcotest.(check int) "tids ascend" 5 five.Telemetry.Causal.tr_tid;
      Alcotest.(check int) "tid 9 second" 9 nine.Telemetry.Causal.tr_tid;
      Alcotest.(check (list int)) "both hosts, hop order" [ 0; 1 ]
        five.Telemetry.Causal.tr_hosts;
      Alcotest.(check bool) "complete" true five.Telemetry.Causal.tr_complete;
      Alcotest.(check bool) "incomplete" false nine.Telemetry.Causal.tr_complete;
      Alcotest.(check int) "wall cycles" 150 five.Telemetry.Causal.tr_cycles;
      (* service covers the drain (same host, strictly inside), so the
         critical path charges the overlap to the drain hop only:
         admission 0 + service (90-30) + drain 30 + adopt 30 +
         completion 0 *)
      Alcotest.(check int) "critical path" 120 five.Telemetry.Causal.tr_critical;
      let hops =
        List.map
          (fun h -> (h.Telemetry.Causal.h_hop, h.Telemetry.Causal.h_exclusive))
          five.Telemetry.Causal.tr_hops
      in
      Alcotest.(check (list (pair string int))) "per-hop exclusive"
        [ ("admission", 0); ("service", 60); ("drain", 30); ("adopt", 30);
          ("completion", 0) ]
        hops
  | l -> Alcotest.fail (Printf.sprintf "expected 2 traces, got %d" (List.length l))

(* --- the end-to-end fleet proof (seed 7, the sentinel's pin) --- *)

let test_fleet_zero_overhead_and_stitch () =
  let open Harness.Fleet in
  let seed = 7 in
  let off = run_once ~telemetry:false ~plan:(fleet_plan ~seed) ~seed () in
  let on_ = run_once ~plan:(fleet_plan ~seed) ~seed () in
  (* disabled registries: nothing recorded, nothing charged *)
  Alcotest.(check bool) "off run disabled" false (Telemetry.enabled off.r_tel);
  Alcotest.(check int) "zero model-cycle overhead" off.r_cycles on_.r_cycles;
  Alcotest.(check int) "routing unperturbed" (goodput off.r_sup)
    (goodput on_.r_sup);
  (* enabled: the committed failover must stitch end to end *)
  Alcotest.(check (list string)) "no mechanism failures" [] on_.r_mech_failures;
  Alcotest.(check bool) "a failover committed" true (on_.r_failovers >= 1);
  Alcotest.(check bool) "stitched cross-host trace" true (on_.r_stitched >= 1);
  let traces = Telemetry.Causal.stitch (Telemetry.spans on_.r_tel) in
  Alcotest.(check bool) "complete 2-host trace with a critical path" true
    (List.exists
       (fun tr ->
         tr.Telemetry.Causal.tr_complete
         && List.length tr.Telemetry.Causal.tr_hosts >= 2
         && tr.Telemetry.Causal.tr_critical > 0)
       traces);
  (* a dead host pages the burn-rate monitor *)
  Alcotest.(check bool) "burn-rate alert fired" true
    (on_.r_sup.sim_fast_alerts + on_.r_sup.sim_slow_alerts
     + on_.r_unsup.sim_fast_alerts + on_.r_unsup.sim_slow_alerts
     > 0)

let () =
  Alcotest.run "telemetry"
    [
      ( "windows",
        [
          QCheck_alcotest.to_alcotest prop_window_no_double_count;
          quick "boundary" test_window_boundary;
        ] );
      ( "registry",
        [
          quick "null sink" test_null_registry;
          QCheck_alcotest.to_alcotest prop_span_order_canonical;
        ] );
      ( "slo",
        [
          quick "silent when good" test_slo_silent_when_good;
          quick "burst pages once" test_slo_burst_pages_once;
          quick "empty windows skipped" test_slo_empty_windows_skipped;
        ] );
      ("causal", [ quick "cross-host stitch" test_stitch_cross_host ]);
      ( "fleet",
        [ quick "zero overhead + stitched failover"
            test_fleet_zero_overhead_and_stitch ] );
    ]
