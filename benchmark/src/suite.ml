(* Orchestration: each workload runs in a child process of its own, one
   at a time and single-threaded, so its heap and GC state are its own
   and host_peak_heap_mb is per workload. Children report back over a
   pipe and are always reaped before the next one starts. *)

type workload = {
  name : string;
  rate : float;
      (** timed ops per second of --seconds. A sizing constant, not a
          measurement: the op count must not depend on host speed, or the
          model metrics could not repeat exactly. Set so a 10-second run
          times 9-14 s of ops on a 2-core x86-64 container. *)
  run : Work.params -> timed:bool -> Work.outcome;
}

let workloads =
  [
    { name = "kv"; rate = 100_000.; run = Kv.run };
    { name = "swap"; rate = 700.; run = Swap.run };
    { name = "vault"; rate = 100.; run = Vault.run };
    { name = "migrate"; rate = 20.; run = Hop.run };
  ]

(* End-to-end runs set up this many times and report the median set-up;
   only the last set-up goes on to the timed phase. *)
let e2e_setups = 3

let ops_for w ~seconds = max 1 (Float.to_int (Float.round (w.rate *. seconds)))

let trace_path w = Filename.concat (Filename.concat "benchmark" "out") (w.name ^ ".trace.json")

let write_file path contents =
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Set up [setups] times; the last set-up runs the timed phase. *)
let measure w ~seed ~seconds ~setups ~traced =
  let ops = ops_for w ~seconds in
  let spans = if traced then Spans.create () else Spans.null in
  let tally = Work.tally () in
  let setup_times = ref [] and timed = ref None in
  for s = 1 to setups do
    let last = s = setups in
    let p =
      { Work.seed; ops; warmup = ops / 10; spans = (if last then spans else Spans.null) }
    in
    let o = w.run p ~timed:last in
    setup_times := o.setup_ns :: !setup_times;
    tally.attempted <- tally.attempted + o.tally.attempted;
    tally.failed <- tally.failed + o.tally.failed;
    tally.errors <- tally.errors @ o.tally.errors;
    if last then timed := o.timed
  done;
  if traced then write_file (trace_path w) (Json.to_string (Spans.to_json spans ~workload:w.name));
  Metrics.summarize ~setups:(List.rev !setup_times) ~tally !timed spans

let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (result : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "the child process died before reporting"
      in
      close_in ic;
      let rec reap () =
        try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      match reap () with
      | Unix.WEXITED 0 -> result
      | _ -> Error "the child process exited abnormally"

type report = {
  workload : string;
  metrics : (string * string * Metrics.value) list;  (** name, unit, value *)
  attempted : int;
  failed : int;
  errors : string list;
}

let correct r = r.failed = 0

let with_units catalogue values =
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) catalogue

let broken w msg = { workload = w.name; metrics = []; attempted = 0; failed = 1; errors = [ msg ] }

let of_summary w (s : Metrics.summary) metrics =
  { workload = w.name; metrics; attempted = s.tally.attempted; failed = s.tally.failed; errors = s.tally.errors }

let end_to_end w ~seed ~seconds =
  match in_child (fun () -> measure w ~seed ~seconds ~setups:e2e_setups ~traced:false) with
  | Error e -> broken w e
  | Ok s -> of_summary w s (with_units Metrics.end_to_end (Metrics.e2e s))

let micro () = in_child Micro.run

(* Per-layer figures: the untraced run and its traced repeat on the same
   seed, plus the micro pass (shared by every workload of one call). *)
let per_layer w ~seed ~seconds ~micro =
  let run traced = in_child (fun () -> measure w ~seed ~seconds ~setups:1 ~traced) in
  match (run false, run true, Lazy.force micro) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> broken w e
  | Ok u, Ok t, Ok m ->
      let r = of_summary w u (with_units Metrics.per_layer (Metrics.layer ~untraced:u ~traced:t ~micro:m)) in
      let drift = if Metrics.same_model u t then [] else [ "tracing changed the model-cycle results" ] in
      {
        r with
        attempted = u.tally.attempted + t.tally.attempted;
        failed = u.tally.failed + t.tally.failed + List.length drift;
        errors = r.errors @ t.tally.errors @ drift;
      }

let micro_report micro =
  match Lazy.force micro with
  | Error e -> { workload = "micro"; metrics = []; attempted = 0; failed = 1; errors = [ e ] }
  | Ok m ->
      let metrics =
        List.map (fun (name, v) -> (name, List.assoc name Metrics.per_layer, Metrics.plain v)) m
      in
      { workload = "micro"; metrics; attempted = List.length m; failed = 0; errors = [] }

(* --- output --- *)

let print_lines r =
  List.iter
    (fun (name, unit, (v : Metrics.value)) ->
      Printf.printf "%-8s %-30s %s %s%s\n" r.workload name (Json.number v.v) unit
        (if v.note = "" then "" else "  (" ^ v.note ^ ")"))
    r.metrics;
  List.iter (fun e -> Printf.eprintf "%s: FAILED: %s\n" r.workload e) r.errors

let metrics_json ?(prefix = "") r =
  List.map
    (fun (name, unit, (v : Metrics.value)) ->
      (prefix ^ name, Report.Obj [ ("value", Report.Float v.v); ("unit", Report.Str unit) ]))
    r.metrics

(* The last stdout line: one object over every report of the call. *)
let result_json reports =
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let metrics =
    match reports with
    | [ r ] -> metrics_json r
    | rs -> List.concat_map (fun r -> metrics_json ~prefix:(r.workload ^ ":") r) rs
  in
  Report.Obj
    [
      ("correct", Report.Bool (List.for_all correct reports));
      ("attempted", Report.Int (max 1 (sum (fun r -> r.attempted))));
      ("failed", Report.Int (sum (fun r -> r.failed)));
      ("metrics", Report.Obj metrics);
    ]

(* One line per report, appended to the run log that --compare reads. *)
let append_log path ~seed ~seconds ~trace r =
  let line =
    Json.to_string
      (Report.Obj
         [
           ("workload", Report.Str r.workload);
           ("seed", Report.Int seed);
           ("seconds", Report.Float seconds);
           ("trace", Report.Bool trace);
           ("correct", Report.Bool (correct r));
           ("attempted", Report.Int r.attempted);
           ("failed", Report.Int r.failed);
           ("metrics", Report.Obj (metrics_json r));
         ])
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n"))

let run ~selected ~seed ~seconds ~trace ~micro_only ~out =
  let micro = lazy (micro ()) in
  let report label f =
    Printf.eprintf "benchmark: %s\n%!" label;
    let r = f () in
    print_lines r;
    flush stdout;
    r
  in
  let reports =
    if micro_only then [ report "micro pass" (fun () -> micro_report micro) ]
    else
      List.map
        (fun w ->
          let label =
            Printf.sprintf "%s (seed %d, %g s%s)" w.name seed seconds (if trace then ", traced" else "")
          in
          report label (fun () ->
              if trace then per_layer w ~seed ~seconds ~micro else end_to_end w ~seed ~seconds))
        selected
  in
  Option.iter (fun path -> List.iter (append_log path ~seed ~seconds ~trace) reports) out;
  print_endline (Json.to_string (result_json reports));
  if List.for_all correct reports then 0 else 1
