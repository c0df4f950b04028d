(* Fleet telemetry: the merge algebra (qcheck: associative, commutative,
   percentile bounds survive merging), window bucketing (no sample ever
   double-counted across a boundary), SLO burn-rate alerting (fires on a
   seeded error burst, stays silent fault-free, hysteresis prevents
   re-paging), causal stitching with critical-path extraction, and the
   end-to-end fleet proof: disabling every registry changes no model
   cycle, enabling them stitches a committed failover into one
   cross-host trace. *)

let quick name f = Alcotest.test_case name `Quick f

(* Histograms expose only accessors, so equality is over everything
   observable: counts, totals, extrema and the full bucket list. *)
let hist_eq a b =
  Trace.Hist.count a = Trace.Hist.count b
  && Trace.Hist.total a = Trace.Hist.total b
  && Trace.Hist.min_value a = Trace.Hist.min_value b
  && Trace.Hist.max_value a = Trace.Hist.max_value b
  && Trace.Hist.buckets a = Trace.Hist.buckets b

let hist_of xs =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.add h) xs;
  h

(* --- merge algebra (qcheck) --- *)

let values = QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 1_000_000))

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"Hist.merge is associative" ~count:200
    QCheck.(triple values values values)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hist_eq
        (Trace.Hist.merge (Trace.Hist.merge a b) c)
        (Trace.Hist.merge a (Trace.Hist.merge b c)))

let prop_hist_merge_commutative =
  QCheck.Test.make ~name:"Hist.merge is commutative" ~count:200
    QCheck.(pair values values)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      hist_eq (Trace.Hist.merge a b) (Trace.Hist.merge b a))

(* Splitting a sample across shards and merging must preserve the
   percentile bracketing guarantee of the combined sample. *)
let prop_percentile_bounds_merge =
  QCheck.Test.make
    ~name:"percentile bounds bracket the order statistic across a merge"
    ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
              (int_range 0 1_000_000))
    (fun (xs, extra) ->
      let xs = extra :: xs in
      let shards = [| Trace.Hist.create (); Trace.Hist.create (); Trace.Hist.create () |] in
      List.iteri (fun i v -> Trace.Hist.add shards.(i mod 3) v) xs;
      let merged =
        Trace.Hist.merge shards.(2) (Trace.Hist.merge shards.(0) shards.(1))
      in
      let sorted = List.sort compare xs in
      List.for_all
        (fun p ->
          let k = max 1 (int_of_float (ceil (p *. float_of_int (List.length xs)))) in
          let v = List.nth sorted (k - 1) in
          let lo, hi = Trace.Hist.percentile_bounds merged p in
          lo <= v && v <= hi)
        [ 0.5; 0.95; 0.99; 1.0 ])

(* Every sample lands in exactly one window: per-window totals always
   re-sum to the overall total, and each window's total matches a direct
   recount of the samples that map to it. *)
let prop_window_no_double_count =
  QCheck.Test.make ~name:"window bucketing never double-counts" ~count:200
    QCheck.(pair (int_range 1 1_000)
              (list_of_size Gen.(int_range 0 80)
                 (pair (int_range 0 10_000) (int_range 1 5))))
    (fun (width, samples) ->
      let t = Telemetry.create ~window_cycles:width () in
      List.iter (fun (at, by) -> Telemetry.incr t ~by ~at "reqs") samples;
      let windows = Telemetry.counter_windows t "reqs" in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 windows in
      total = Telemetry.counter_total t "reqs"
      && total = List.fold_left (fun a (_, by) -> a + by) 0 samples
      && List.for_all
           (fun (w, n) ->
             n
             = List.fold_left
                 (fun a (at, by) -> if at / width = w then a + by else a)
                 0 samples)
           windows
      && List.for_all (fun (at, _) ->
             List.mem_assoc (at / width) windows)
           samples)

(* Registry-level merge: shard the same sample stream across three
   registries by host, merge in every order, and compare everything
   observable. *)
let prop_registry_merge_orders_agree =
  QCheck.Test.make ~name:"registry merge is order-insensitive" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 60)
              (triple (int_range 0 2) (int_range 0 50_000) (int_range 1 4)))
    (fun samples ->
      let shard () = Telemetry.create ~window_cycles:1_000 () in
      let a = shard () and b = shard () and c = shard () in
      let regs = [| a; b; c |] in
      List.iter
        (fun (host, at, by) ->
          let t = regs.(host) in
          Telemetry.incr t ~host ~by ~at "reqs";
          Telemetry.gauge t ~host ~at "depth" by;
          Telemetry.observe t ~host ~at "lat" (at mod 97))
        samples;
      let m1 = Telemetry.merge (Telemetry.merge a b) c in
      let m2 = Telemetry.merge c (Telemetry.merge b a) in
      let m3 = Telemetry.merge_all [ b; c; a ] in
      let view t =
        ( Telemetry.samples t,
          Telemetry.names t,
          Telemetry.counter_windows_all t "reqs",
          List.map
            (fun h ->
              (h, Telemetry.counter_windows t ~host:h "reqs",
               Telemetry.gauge_windows t ~host:h "depth"))
            (Telemetry.hosts t "reqs"),
          Telemetry.spans t )
      in
      let hists_agree x y =
        List.for_all2
          (fun (w1, h1) (w2, h2) -> w1 = w2 && hist_eq h1 h2)
          (Telemetry.hist_windows_all x "lat")
          (Telemetry.hist_windows_all y "lat")
      in
      view m1 = view m2 && view m1 = view m3 && hists_agree m1 m2
      && hists_agree m1 m3)

(* --- registry semantics --- *)

let test_null_registry () =
  let t = Telemetry.null in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  Telemetry.incr t ~at:5 "c";
  Telemetry.gauge t ~at:5 "g" 3;
  Telemetry.observe t ~at:5 "h" 9;
  Telemetry.span t ~tid:1 ~hop:"x" ~seq:0 ~t0:0 ~t1:1;
  Alcotest.(check int) "no samples" 0 (Telemetry.samples t);
  Alcotest.(check int) "no spans" 0 (Telemetry.span_count t);
  Alcotest.(check (list string)) "no names" [] (Telemetry.names t);
  (* merging the null registry is the identity *)
  let live = Telemetry.create () in
  Telemetry.incr live ~at:10 "c";
  let m = Telemetry.merge Telemetry.null live in
  Alcotest.(check int) "merge null = copy" 1 (Telemetry.counter_total m "c")

let test_kind_mismatch_rejected () =
  let t = Telemetry.create () in
  Telemetry.incr t ~at:0 "metric";
  match Telemetry.observe t ~at:1 "metric" 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a counter accepted a histogram observation"

let test_gauge_last_write_wins () =
  let t = Telemetry.create ~window_cycles:100 () in
  Telemetry.gauge t ~at:10 "depth" 3;
  Telemetry.gauge t ~at:20 "depth" 7;
  Telemetry.gauge t ~at:15 "depth" 5;
  (* a stale stamp never overwrites a newer one *)
  Alcotest.(check (option (pair int int))) "latest stamp wins"
    (Some (20, 7)) (Telemetry.gauge_last t "depth");
  Alcotest.(check (list (pair int (pair int (pair int int))))) "window min/max"
    [ (0, (7, (3, 7))) ]
    (List.map (fun (w, l, mn, mx) -> (w, (l, (mn, mx))))
       (Telemetry.gauge_windows t "depth"))

let test_window_boundary () =
  let t = Telemetry.create ~window_cycles:100 () in
  Telemetry.incr t ~at:99 "c";
  Telemetry.incr t ~at:100 "c";
  Alcotest.(check (list (pair int int))) "adjacent stamps, adjacent windows"
    [ (0, 1); (1, 1) ]
    (Telemetry.counter_windows t "c")

(* --- SLO burn-rate monitor --- *)

let windows n f = List.init n (fun w -> (w, f w))

let test_slo_silent_when_good () =
  let total = windows 12 (fun _ -> 100) in
  let ev = Telemetry.Slo.evaluate ~good:total ~total () in
  Alcotest.(check int) "no fast alert" 0 ev.Telemetry.Slo.ev_fast_fires;
  Alcotest.(check int) "no slow alert" 0 ev.Telemetry.Slo.ev_slow_fires;
  Alcotest.(check bool) "no alerts" true (ev.Telemetry.Slo.ev_alerts = [])

let test_slo_burst_pages_once () =
  (* two windows of pure errors inside an otherwise clean day: the fast
     alert fires on the upward transition, stays latched while the burn
     remains above threshold * hysteresis, and never re-pages *)
  let total = windows 12 (fun _ -> 100) in
  let good = windows 12 (fun w -> if w = 3 || w = 4 then 0 else 100) in
  let ev = Telemetry.Slo.evaluate ~good ~total () in
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
  let ev = Telemetry.Slo.evaluate ~good ~total () in
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
      ( "merge algebra",
        [
          QCheck_alcotest.to_alcotest prop_hist_merge_associative;
          QCheck_alcotest.to_alcotest prop_hist_merge_commutative;
          QCheck_alcotest.to_alcotest prop_percentile_bounds_merge;
          QCheck_alcotest.to_alcotest prop_registry_merge_orders_agree;
        ] );
      ( "windows",
        [
          QCheck_alcotest.to_alcotest prop_window_no_double_count;
          quick "boundary" test_window_boundary;
        ] );
      ( "registry",
        [
          quick "null sink" test_null_registry;
          quick "kind mismatch" test_kind_mismatch_rejected;
          quick "gauge last-write-wins" test_gauge_last_write_wins;
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
