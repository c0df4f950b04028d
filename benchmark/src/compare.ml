(* --compare A B: two run logs (the JSON lines --out appends), A the
   parent and B the change, judged per workload x end-to-end metric:

   - each side's median and quartiles, and the share of seed-matched
     pairs B wins (ties count for neither);
   - REGRESSION: B's median worse than A's by more than the metric's
     bound from BENCHMARK.json;
   - unresolved: otherwise, if either side's spread (IQR / median) is
     wider than the bound, unless every B run beats every A run;
   - gain: B wins at least 9 of 10 pairs and the medians differ by more
     than A's IQR;
   - else: no change.

   Only untraced runs carry end-to-end metrics. Exits 1 on any
   regression. *)

type run = { workload : string; seed : int; metrics : (string * float) list }

let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> go acc
    | line -> (
        let j = Report.of_string line in
        match (Report.member "workload" j, Report.member "seed" j, Report.member "trace" j) with
        | Some (Report.Str workload), Some (Report.Int seed), Some (Report.Bool false) ->
            let metrics =
              match Report.member "metrics" j with
              | Some (Report.Obj l) ->
                  List.filter_map
                    (fun (k, v) ->
                      Option.map (fun f -> (k, f)) (Option.bind (Report.member "value" v) Report.to_float))
                    l
              | _ -> []
            in
            go ({ workload; seed; metrics } :: acc)
        | _ -> go acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* (name, lower-is-better, bound) of every end-to-end metric *)
let bounds path =
  match Report.member "end_to_end" (Report.load ~path) with
  | Some (Report.List metrics) ->
      List.filter_map
        (fun m ->
          match (Report.member "name" m, Report.member "better" m, Option.bind (Report.member "bound" m) Report.to_float) with
          | Some (Report.Str name), Some (Report.Str better), Some bound -> Some (name, better = "lower", bound)
          | _ -> None)
        metrics
  | _ -> failwith (path ^ ": no end_to_end list")

(* Pair runs of the two sides by seed, in file order within a seed. *)
let pairs a b =
  let seeds = List.sort_uniq compare (List.map fst a) in
  List.concat_map
    (fun s ->
      let pick l = List.filter_map (fun (s', v) -> if s' = s then Some v else None) l in
      let rec zip x y = match (x, y) with u :: x', v :: y' -> (u, v) :: zip x' y' | _ -> [] in
      zip (pick a) (pick b))
    seeds

type judgement = { verdict : string; line : string }

let judge ~name ~lower ~bound a b =
  let va = List.map snd a and vb = List.map snd b in
  let q1a, ma, q3a = Stats.quartiles va and q1b, mb, q3b = Stats.quartiles vb in
  let better x y = if lower then x < y else x > y in
  let ps = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
  let n = List.length ps in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread q1 q3 m = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
  let all_better =
    vb <> [] && List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb
  in
  let verdict =
    if worse_by > bound then "REGRESSION"
    else if (spread q1a q3a ma > bound || spread q1b q3b mb > bound) && not all_better then
      "unresolved"
    else if n > 0 && 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3a -. q1a && better mb ma then
      "gain"
    else "no change"
  in
  let num = Printf.sprintf "%.6g" in
  {
    verdict;
    line =
      Printf.sprintf
        "%-18s A %s [%s, %s] spread %.2f%%  B %s [%s, %s] spread %.2f%%  B wins %d/%d  %+.3f%% \
         (bound %g%%)  %s"
        name (num ma) (num q1a) (num q3a)
        (100. *. spread q1a q3a ma)
        (num mb) (num q1b) (num q3b)
        (100. *. spread q1b q3b mb)
        wins n
        (100. *. if ma = 0. then 0. else (mb -. ma) /. Float.abs ma)
        (100. *. bound) verdict;
  }

let run ~a ~b =
  let ra = load a and rb = load b in
  let metrics = bounds "BENCHMARK.json" in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb))
  in
  let regressions = ref 0 in
  Printf.printf "compare: A = %s (%d runs), B = %s (%d runs)\n" a (List.length ra) b (List.length rb);
  List.iter
    (fun w ->
      Printf.printf "%s\n" w;
      List.iter
        (fun (name, lower, bound) ->
          let side runs =
            List.filter_map
              (fun r ->
                if r.workload <> w then None
                else Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics))
              runs
          in
          match (side ra, side rb) with
          | [], _ | _, [] -> Printf.printf "  %-30s missing from one side\n" name
          | sa, sb ->
              let v = judge ~name ~lower ~bound sa sb in
              if v.verdict = "REGRESSION" then incr regressions;
              Printf.printf "  %s\n" v.line)
        metrics)
    workloads;
  Printf.printf "%d regression(s)\n" !regressions;
  if !regressions > 0 then 1 else 0
