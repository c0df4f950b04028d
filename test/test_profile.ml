(* The cycle-attribution profiler and the perf-regression sentinel.

   The profiler properties run over randomly generated well-nested span
   streams (the same shape the flight recorder emits), checking the
   conservation laws the CLI relies on: the root total is pinned to the
   run's model-cycle count, self cycles sum back to it exactly, and the
   collapsed-stack export round-trips every weighted node. The sentinel
   tests prove the one thing a regression gate must do: pass on an
   identical re-run and fail loudly when a hot-path cost moves 5%. *)

let quick name f = Alcotest.test_case name `Quick f

let ev ?(site = "") kind phase cycles =
  { Trace.kind; phase; cycles; ctx = Trace.Kernel; page = -1; pid = -1; site;
    aux = 0 }

(* --- random well-nested streams --- *)

let span_kinds =
  [| Trace.Syscall; Trace.World_switch; Trace.Shadow_fill; Trace.Page_encrypt;
     Trace.Disk_write; Trace.Mac_check |]

(* A stream is driven by a list of (choice, kind index, dt) triples:
   choice selects enter/exit/abort/instant, the clock only moves forward.
   Enters record the kind so exits always close a genuinely open span —
   mirroring the recorder, which never emits an unmatched exit for a
   span-class it hasn't opened. *)
let stream_of_script script =
  let clock = ref 0 in
  let stack = ref [] in
  let evs = ref [] in
  let emit e = evs := e :: !evs in
  List.iter
    (fun (choice, ki, dt) ->
      clock := !clock + dt;
      let kind = span_kinds.(ki mod Array.length span_kinds) in
      match choice mod 4 with
      | 0 ->
          stack := kind :: !stack;
          emit (ev kind Trace.Enter !clock)
      | 1 -> (
          match !stack with
          | k :: rest ->
              stack := rest;
              emit (ev k Trace.Exit !clock)
          | [] -> emit (ev kind Trace.Instant !clock))
      | 2 -> (
          match !stack with
          | k :: rest ->
              stack := rest;
              emit (ev k Trace.Abort !clock)
          | [] -> emit (ev kind Trace.Instant !clock))
      | _ -> emit (ev kind Trace.Instant !clock))
    script;
  (List.rev !evs, !clock)

let script_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 300)
      (triple (int_range 0 3) (int_range 0 100) (int_range 0 50)))

(* Conservation: the root is pinned to the run total, and self cycles
   partition it exactly — nothing double-counted, nothing lost. *)
let prop_conservation =
  QCheck.Test.make ~name:"root total = run cycles and self sums back to it"
    ~count:300 script_gen (fun script ->
      let evs, last = stream_of_script script in
      let total = last + 17 in
      let p = Profile.of_events ~root:"run" ~total_cycles:total evs in
      (Profile.root p).Profile.total = total && Profile.sum_self p = total)

let prop_self_nonneg =
  QCheck.Test.make ~name:"every node has non-negative self cycles" ~count:300
    script_gen (fun script ->
      let evs, last = stream_of_script script in
      let p = Profile.of_events ~root:"run" ~total_cycles:(last + 1) evs in
      let rec all_ok (n : Profile.node) =
        n.Profile.self >= 0 && List.for_all all_ok n.Profile.children
      in
      all_ok (Profile.root p))

(* The collapsed export carries exactly the self-weighted nodes, and the
   parser recovers each (path, weight) pair verbatim. *)
let prop_collapsed_round_trip =
  QCheck.Test.make ~name:"collapsed stacks round-trip node weights" ~count:300
    script_gen (fun script ->
      let evs, last = stream_of_script script in
      let p = Profile.of_events ~root:"run" ~total_cycles:(last + 5) evs in
      let parsed = Profile.of_collapsed (Profile.to_collapsed p) in
      let weights = Hashtbl.create 16 in
      List.iter (fun (path, w) -> Hashtbl.replace weights path w) parsed;
      let missing = ref false in
      let rec walk path (n : Profile.node) =
        let path = path @ [ n.Profile.label ] in
        (if n.Profile.self > 0 then
           match Hashtbl.find_opt weights path with
           | Some w when w = n.Profile.self -> Hashtbl.remove weights path
           | _ -> missing := true);
        List.iter (walk path) n.Profile.children
      in
      walk [] (Profile.root p);
      (not !missing) && Hashtbl.length weights = 0)

(* --- against a real run --- *)

let fileio_profiled ~cloaked =
  let trace = Trace.ring ~cap:(1 lsl 20) () in
  let cfg = Workloads.Fileio.default in
  let result =
    Harness.run_program ~cloaked ~trace (Workloads.Fileio.run cfg ~use_shim:true)
  in
  (result, trace)

let test_real_run_pinned () =
  let result, trace = fileio_profiled ~cloaked:true in
  let p =
    Profile.of_trace ~root:"fileio" ~total_cycles:result.Harness.cycles trace
  in
  Alcotest.(check int) "root total is the run's model-cycle count"
    result.Harness.cycles (Profile.root p).Profile.total;
  Alcotest.(check int) "self cycles partition the run" result.Harness.cycles
    (Profile.sum_self p);
  Alcotest.(check bool) "syscall contexts carry their call name" true
    (List.exists
       (fun (path, _) -> List.mem "syscall:sync" path)
       (Profile.top_self p ~n:50))

let test_refuses_wrapped_ring () =
  let trace = Trace.ring ~cap:64 () in
  let cfg = Workloads.Fileio.default in
  let result =
    Harness.run_program ~cloaked:true ~trace
      (Workloads.Fileio.run cfg ~use_shim:true)
  in
  Alcotest.check_raises "truncated stream is refused, not mis-attributed"
    (Profile.Truncated (Trace.dropped trace)) (fun () ->
      ignore (Profile.of_trace ~root:"x" ~total_cycles:result.Harness.cycles trace));
  Alcotest.(check (list (pair string int))) "hot_spots degrades to empty" []
    (Profile.hot_spots ~root:"x" ~total_cycles:result.Harness.cycles ~n:3 trace)

let test_diff_aligns_below_root () =
  let base =
    Profile.of_events ~root:"native" ~total_cycles:100
      [ ev Trace.Syscall ~site:"read" Trace.Enter 10;
        ev Trace.Syscall ~site:"read" Trace.Exit 40 ]
  in
  let cur =
    Profile.of_events ~root:"cloaked" ~total_cycles:200
      [ ev Trace.Syscall ~site:"read" Trace.Enter 10;
        ev Trace.Syscall ~site:"read" Trace.Exit 90 ]
  in
  let deltas = Profile.diff ~base ~cur in
  let d =
    List.find (fun d -> d.Profile.path = [ "syscall:read" ]) deltas
  in
  Alcotest.(check int) "base self" 30 d.Profile.base_self;
  Alcotest.(check int) "cur self" 80 d.Profile.cur_self

(* --- the regression sentinel --- *)

(* One baseline run shared by the three sentinel tests: the suite is the
   slowest thing in this file, and each test needs at most one more run. *)
let baseline_metrics = lazy (Regress.suite ())

let baseline () =
  List.map
    (fun (m : Regress.metric) -> (m.Regress.name, m.Regress.value))
    (Lazy.force baseline_metrics)

let test_regress_green_on_rerun () =
  let o =
    Regress.compare_metrics ~tolerance_pct:Regress.default_tolerance_pct
      ~baseline:(baseline ()) (Regress.suite ())
  in
  Alcotest.(check bool) "identical re-run passes" true (Regress.ok o);
  Alcotest.(check (list string)) "no failure lines" [] (Regress.failures o)

let test_regress_catches_cost_bump () =
  let bumped =
    { Machine.Cost.default with
      Machine.Cost.world_switch =
        Machine.Cost.default.Machine.Cost.world_switch * 105 / 100 }
  in
  let o =
    Regress.compare_metrics ~tolerance_pct:Regress.default_tolerance_pct
      ~baseline:(baseline ())
      (Regress.suite ~cost_model:bumped ())
  in
  Alcotest.(check bool) "a 5% world-switch bump fails the gate" false
    (Regress.ok o);
  let contains s sub =
    let n = String.length sub and len = String.length s in
    let rec at i j = j >= n || (s.[i + j] = sub.[j] && at i (j + 1)) in
    let rec go i = i + n <= len && (at i 0 || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "failures name a drifting metric with its %" true
    (List.exists (fun line -> contains line "cpo" && contains line "%")
       (Regress.failures o))

let test_baselines_round_trip () =
  let metrics = Lazy.force baseline_metrics in
  let path = Filename.temp_file "baselines" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Regress.write_baselines ~path ~tolerance_pct:2.5 metrics;
      let tol, baseline = Regress.load_baselines ~path in
      Alcotest.(check (option (float 0.001))) "tolerance survives" (Some 2.5) tol;
      let o = Regress.compare_metrics ~tolerance_pct:2.5 ~baseline metrics in
      Alcotest.(check bool) "round-tripped baselines compare clean" true
        (Regress.ok o))

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          QCheck_alcotest.to_alcotest prop_conservation;
          QCheck_alcotest.to_alcotest prop_self_nonneg;
          QCheck_alcotest.to_alcotest prop_collapsed_round_trip;
        ] );
      ( "real runs",
        [
          quick "root pinned to run cycles" test_real_run_pinned;
          quick "refuses wrapped ring" test_refuses_wrapped_ring;
          quick "diff aligns below the root" test_diff_aligns_below_root;
        ] );
      ( "regression sentinel",
        [
          quick "green on identical re-run" test_regress_green_on_rerun;
          quick "catches 5% cost bump" test_regress_catches_cost_bump;
          quick "baselines file round-trips" test_baselines_round_trip;
        ] );
    ]
