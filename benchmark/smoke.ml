(* Smoke test for the benchmark, run by `dune runtest`: every workload at
   about 1% of its size with zero failures; model metrics that repeat
   exactly for one seed and move with another; a traced repeat that
   leaves the model untouched; printed metric names and units equal to
   BENCHMARK.json; and the spread and verdict arithmetic --compare uses. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let seconds = 0.1

let measure ?(traced = false) (w : Suite.workload) seed =
  Suite.measure w ~seed ~seconds ~setups:1 ~traced

let model (s : Metrics.summary) =
  List.filter (fun (n, _) -> String.sub n 0 6 = "model_") (Metrics.e2e s)
  |> List.map (fun (n, (v : Metrics.value)) -> (n, v.v))

let names l = List.map fst l

let () =
  List.iter
    (fun (w : Suite.workload) ->
      let a = measure w 11 and a' = measure w 11 and b = measure w 12 in
      List.iter
        (fun (s : Metrics.summary) ->
          check
            (Printf.sprintf "%s: %d failed ops: %s" w.name s.tally.failed
               (String.concat "; " s.tally.errors))
            (s.tally.failed = 0 && s.timed.ops > 0))
        [ a; a'; b ];
      check (w.name ^ ": model metrics differ between two runs of one seed") (model a = model a');
      check (w.name ^ ": model metrics ignore the seed") (model a <> model b);
      check (w.name ^ ": end-to-end names") (names (Metrics.e2e a) = names Metrics.end_to_end))
    Suite.workloads;
  (* the traced repeat spends exactly the untraced run's model cycles *)
  let kv = List.hd Suite.workloads in
  let u = measure kv 11 and t = measure ~traced:true kv 11 in
  check "tracing changed the model" (Metrics.same_model u t);
  check "traced run recorded no op spans" (List.mem_assoc "kv.get" t.spans);
  check "per-layer names"
    (names (Metrics.layer ~untraced:u ~traced:t ~micro:[]) = names Metrics.per_layer)

let () =
  let bench = Report.load ~path:"../BENCHMARK.json" in
  let listed key =
    match Report.member key bench with
    | Some (Report.List l) ->
        List.map
          (fun m ->
            let s k = Option.value ~default:"" (Option.bind (Report.member k m) Report.to_str) in
            (s "name", s "unit"))
          l
    | _ -> []
  in
  check "BENCHMARK.json end_to_end = printed end-to-end metrics" (listed "end_to_end" = Metrics.end_to_end);
  check "BENCHMARK.json per_layer = printed per-layer metrics" (listed "per_layer" = Metrics.per_layer);
  check "BENCHMARK.json workloads = benchmark workloads"
    (List.map fst (listed "workloads") = List.map (fun (w : Suite.workload) -> w.name) Suite.workloads)

let () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  check "quartiles" (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 5.5, 8.25));
  let runs l = List.mapi (fun i v -> (i, v)) l in
  let a = runs [ 100.; 101.; 99.; 100.; 100.5 ] in
  let verdict b = (Compare.judge ~name:"m" ~lower:false ~bound:0.1 a (runs b)).verdict in
  check "compare: same runs" (verdict [ 100.; 101.; 99.; 100.; 100.5 ] = "no change");
  check "compare: 20% slower" (verdict [ 80.; 81.; 79.; 80.; 80.5 ] = "REGRESSION");
  check "compare: 5% faster everywhere" (verdict [ 105.; 106.; 104.; 105.; 105.5 ] = "gain");
  check "compare: noisier than the bound" (verdict [ 80.; 120.; 90.; 110.; 100. ] = "unresolved");
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke: ok"
