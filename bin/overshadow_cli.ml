(* Command-line front end for the Overshadow reproduction.

     overshadow-cli kernel sort --cloaked     run one compute kernel
     overshadow-cli attack tamper-memory      run one malicious-OS attack
     overshadow-cli attack --all              run the whole catalog
     overshadow-cli counters --cloaked        run a workload, dump counters
     overshadow-cli chaos --seeds 25          seeded fault-injection sweep
     overshadow-cli recover --site blk-write  one crash + recovery replay, narrated
     overshadow-cli crash-matrix --seeds 20   every crash point x N seeds
     overshadow-cli soak --seeds 20           supervised availability soak
     overshadow-cli migrate --seeds 20        live migration over a hostile channel
     overshadow-cli fleet --seeds 20          fleet supervisor under hostile open-loop load
     overshadow-cli adversary --seeds 20      every workload under a malicious kernel
     overshadow-cli trace fileio --cloaked    flight-recorder latency decomposition
     overshadow-cli trace-overhead            prove the recorder costs zero model cycles
     overshadow-cli profile fileio --cloaked  exact cycle attribution + flamegraph export
     overshadow-cli regress                   perf-regression sentinel vs committed baselines
     overshadow-cli list                      what's available

   Run with no arguments for the full usage listing. The benchmark tables
   (E1-E8) live in `dune exec bench/main.exe`. *)

open Cmdliner

let run_spec_kernel name cloaked scale =
  match Workloads.Spec.find name with
  | exception Not_found ->
      Printf.eprintf "unknown kernel %s (try: %s)\n" name
        (String.concat ", " (List.map (fun k -> k.Workloads.Spec.name) Workloads.Spec.kernels));
      1
  | kernel ->
      let checksum = ref 0 in
      let result =
        Harness.run_program ~cloaked (fun env ->
            let u = Uapi.of_env env in
            checksum := kernel.Workloads.Spec.run u ~scale)
      in
      Printf.printf "kernel   : %s (scale %d, %s)\n" name scale
        (if cloaked then "cloaked" else "native");
      Printf.printf "checksum : %d\n" !checksum;
      Printf.printf "cycles   : %s\n" (Harness.Table.cycles result.Harness.cycles);
      if not (Harness.all_exited_zero result) then begin
        Printf.printf "process failed!\n";
        1
      end
      else 0

let run_attacks all name =
  let outcomes =
    if all then Attacks.run_all ()
    else
      match name with
      | Some n when List.mem n Attacks.names -> [ Attacks.run n ]
      | Some n ->
          Printf.eprintf "unknown attack %s\n" n;
          exit 1
      | None ->
          Printf.eprintf "give an attack name or --all (see `list`)\n";
          exit 1
  in
  List.iter (fun o -> Format.printf "%a@." Attacks.pp_outcome o) outcomes;
  let bad =
    List.exists
      (fun (o : Attacks.outcome) -> o.leaked || ((not o.detected) && o.violation <> None))
      outcomes
  in
  if bad then 1 else 0

let run_counters cloaked =
  let cfg = Workloads.Fileio.default in
  let result = Harness.run_program ~cloaked (Workloads.Fileio.run cfg ~use_shim:true) in
  Printf.printf "fileio workload (%s), %d operations, %s:\n\n"
    (if cloaked then "cloaked" else "native")
    cfg.Workloads.Fileio.operations
    (Harness.Table.cycles result.Harness.cycles);
  Format.printf "%a@." Machine.Counters.pp result.Harness.counters;
  if Harness.all_exited_zero result then 0 else 1

let run_recover seed site at =
  match Inject.site_of_string site with
  | None ->
      Printf.eprintf "unknown site %s (try: %s)\n" site
        (String.concat ", " (List.map Inject.site_to_string Harness.Crash.crash_sites));
      1
  | Some site -> Harness.Crash.recover ~seed { Harness.Crash.site; occurrence = at }

(* --- flight recorder --- *)

(* A workload name is either "fileio" or a SPEC-style compute kernel. *)
let traced_workload name =
  if name = "fileio" then
    Some
      (fun ~cloaked ~scale:_ ~trace ->
        let cfg = Workloads.Fileio.default in
        Harness.run_program ~cloaked ~trace (Workloads.Fileio.run cfg ~use_shim:true))
  else
    match Workloads.Spec.find name with
    | exception Not_found -> None
    | kernel ->
        Some
          (fun ~cloaked ~scale ~trace ->
            Harness.run_program ~cloaked ~trace (fun env ->
                let u = Uapi.of_env env in
                ignore (kernel.Workloads.Spec.run u ~scale)))

let workload_names () =
  "fileio" :: List.map (fun k -> k.Workloads.Spec.name) Workloads.Spec.kernels

let run_trace name cloaked scale json_out =
  match traced_workload name with
  | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" name
        (String.concat ", " (workload_names ()));
      1
  | Some run ->
      let trace = Trace.ring () in
      let result = run ~cloaked ~scale ~trace in
      Printf.printf "workload : %s (scale %d, %s)\n" name scale
        (if cloaked then "cloaked" else "native");
      Printf.printf "cycles   : %s\n" (Harness.Table.cycles result.Harness.cycles);
      Printf.printf "events   : %d recorded, %d dropped (ring capacity %d)\n"
        (Trace.count trace) (Trace.dropped trace) (Trace.capacity trace);
      Format.printf "%a@." Trace.pp_decomposition trace;
      (match json_out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc (Trace.to_chrome_json trace);
          close_out oc;
          Printf.printf "wrote %s (load in chrome://tracing or Perfetto)\n" path);
      if Trace.Check.truncated trace then begin
        Printf.printf
          "invariant pass skipped: ring truncated (%d events dropped) — raise the \
           capacity to check this run\n"
          (Trace.dropped trace);
        if Harness.all_exited_zero result then 0 else 1
      end
      else begin
        match Trace.Check.verdict trace with
        | [] ->
            Printf.printf
              "trace invariants held: MAC-before-decrypt, scrub-before-free, \
               bump-before-restore, owner-only plaintext\n";
            if Harness.all_exited_zero result then 0 else 1
        | fails ->
            List.iter (fun f -> Printf.printf "TRACE INVARIANT FAILED: %s\n" f) fails;
            1
      end

let run_trace_overhead out =
  let workloads =
    [ ("fileio", true, 1);
      ((List.hd Workloads.Spec.kernels).Workloads.Spec.name, true, 1) ]
  in
  let rows, ok =
    List.fold_left
      (fun (rows, ok) (name, cloaked, scale) ->
        let run = Option.get (traced_workload name) in
        let baseline = run ~cloaked ~scale ~trace:Trace.null in
        let null_r = run ~cloaked ~scale ~trace:Trace.null in
        let ring = Trace.ring () in
        let ring_r = run ~cloaked ~scale ~trace:ring in
        let null_d = null_r.Harness.cycles - baseline.Harness.cycles in
        let ring_d = ring_r.Harness.cycles - baseline.Harness.cycles in
        Printf.printf
          "%-10s baseline %s | null sink %+d cy | ring sink %+d cy (%d events)\n"
          name
          (Harness.Table.cycles baseline.Harness.cycles)
          null_d ring_d (Trace.count ring);
        let row =
          Report.Obj
            [ ("workload", Report.Str name);
              ("baseline_cycles", Report.Int baseline.Harness.cycles);
              ("null_sink_cycles", Report.Int null_r.Harness.cycles);
              ("ring_sink_cycles", Report.Int ring_r.Harness.cycles);
              ("null_sink_delta_cycles", Report.Int null_d);
              ("ring_sink_delta_cycles", Report.Int ring_d);
              ("ring_events", Report.Int (Trace.count ring)) ]
        in
        (row :: rows, ok && null_d = 0 && ring_d = 0))
      ([], true) workloads
  in
  (match out with
  | None -> ()
  | Some path ->
      Report.write ~path
        (Report.bench ~name:"trace_overhead"
           [ ("workloads", Report.List (List.rev rows));
             ("zero_model_cycle_overhead", Report.Bool ok) ]);
      Printf.printf "wrote %s\n" path);
  if ok then begin
    Printf.printf "trace sinks added zero model cycles on every workload\n";
    0
  end
  else begin
    Printf.printf "FAILED: a trace sink perturbed the cost model\n";
    1
  end

(* --- cycle-attribution profiler --- *)

let run_profile name cloaked scale diff_native out cap top_n =
  match traced_workload name with
  | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" name
        (String.concat ", " (workload_names ()));
      1
  | Some _ when diff_native && not cloaked ->
      Printf.eprintf "--diff-native compares a cloaked run against native; add --cloaked\n";
      1
  | Some run -> (
      let profiled ~cloaked =
        let trace = Trace.ring ~cap () in
        let result = run ~cloaked ~scale ~trace in
        let root =
          Printf.sprintf "%s-%s" name (if cloaked then "cloaked" else "native")
        in
        (result, trace,
         Profile.of_trace ~root ~total_cycles:result.Harness.cycles trace)
      in
      try
        let result, trace, p = profiled ~cloaked in
        Printf.printf "workload : %s (scale %d, %s)\n" name scale
          (if cloaked then "cloaked" else "native");
        Printf.printf "cycles   : %s\n" (Harness.Table.cycles result.Harness.cycles);
        Printf.printf "events   : %d recorded, %d dropped (ring capacity %d)\n\n"
          (Trace.count trace) (Trace.dropped trace) (Trace.capacity trace);
        Format.printf "%a@.@." (Profile.pp_tree ?min_pct:None) p;
        Format.printf "%a@." (Profile.pp_top ~n:top_n) p;
        (match out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Profile.to_collapsed p);
            close_out oc;
            Printf.printf "\nwrote %s (collapsed stacks; feed to flamegraph.pl)\n" path);
        if diff_native then begin
          let _, _, native = profiled ~cloaked:false in
          Format.printf "@.%a@."
            (Profile.pp_diff ?n:None ~base_name:"native" ~cur_name:"cloaked")
            (Profile.diff ~base:native ~cur:p)
        end;
        if Harness.all_exited_zero result then 0 else 1
      with
      | Profile.Truncated dropped ->
          Printf.eprintf
            "cannot attribute: the trace ring wrapped and dropped %d events, so the \
             surviving stream would produce a wrong tree, not a partial one.\n\
             Re-run with a larger --cap (current %d).\n"
            dropped cap;
          1
      | Profile.Error msg ->
          Printf.eprintf "profile error: %s\n" msg;
          1)

(* --- perf-regression sentinel --- *)

let run_regress baselines tolerance update bench_out =
  if update then begin
    let metrics = Regress.suite () in
    let tol =
      Option.value tolerance ~default:Regress.default_tolerance_pct
    in
    Regress.write_baselines ~path:baselines ~tolerance_pct:tol metrics;
    Printf.printf "wrote %d baseline metrics to %s (cycle tolerance ±%.1f%%)\n"
      (List.length metrics) baselines tol;
    0
  end
  else if not (Sys.file_exists baselines) then begin
    Printf.eprintf "no baselines at %s — create them with --update-baselines\n"
      baselines;
    1
  end
  else
    match Regress.load_baselines ~path:baselines with
    | exception Failure msg ->
        Printf.eprintf "%s\n" msg;
        1
    | exception Report.Parse_error msg ->
        Printf.eprintf "%s\n" msg;
        1
    | file_tol, baseline ->
        let tolerance_pct =
          match tolerance with
          | Some t -> t
          | None -> Option.value file_tol ~default:Regress.default_tolerance_pct
        in
        let outcome =
          Regress.compare_metrics ~tolerance_pct ~baseline (Regress.suite ())
        in
        Format.printf "%a@." Regress.pp_outcome outcome;
        (match bench_out with
        | None -> ()
        | Some path ->
            Report.write ~path (Regress.outcome_report outcome);
            Printf.printf "wrote %s\n" path);
        if Regress.ok outcome then 0 else 1

let run_list () =
  Printf.printf "compute kernels:\n";
  List.iter (fun k -> Printf.printf "  %s\n" k.Workloads.Spec.name) Workloads.Spec.kernels;
  Printf.printf "\nattacks:\n";
  List.iter (fun n -> Printf.printf "  %s\n" n) Attacks.names;
  Printf.printf "\nbenchmark tables: dune exec bench/main.exe -- E1 E2 E3+E4 E5 E6 E7 E8 E8b\n";
  0

(* --- cmdliner plumbing --- *)

let cloaked_flag = Arg.(value & flag & info [ "cloaked" ] ~doc:"Run the program cloaked.")

let bench_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-out" ] ~docv:"FILE" ~doc:"Write a JSON benchmark summary to $(docv).")

let kernel_cmd =
  let kernel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")
  in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Problem size multiplier.")
  in
  Cmd.v
    (Cmd.info "kernel" ~doc:"Run one SPEC-style compute kernel and report model cycles.")
    Term.(const run_spec_kernel $ kernel_arg $ cloaked_flag $ scale_arg)

let attack_cmd =
  let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Run the whole catalog.") in
  let attack_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ATTACK" ~doc:"Attack name.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run malicious-OS attacks and report leak/detection outcomes.")
    Term.(const run_attacks $ all_arg $ attack_arg)

let counters_cmd =
  Cmd.v
    (Cmd.info "counters" ~doc:"Run the fileio workload and dump all VMM event counters.")
    Term.(const run_counters $ cloaked_flag)

(* --- the seed sweeps: one subcommand per Harness.S module --- *)

let sweeps : (module Harness.S) list =
  [ (module Harness.Chaos); (module Harness.Crash); (module Harness.Soak);
    (module Harness.Migrate); (module Harness.Fleet); (module Harness.Adversary) ]

let seed_count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a seed count of at least 1, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let sweep_cmd ((module H : Harness.S) as harness) =
  let seeds_arg =
    Arg.(
      value
      & opt seed_count H.default_seeds
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds (at least 1).")
  in
  let base_arg =
    Arg.(value & opt int 1 & info [ "base" ] ~docv:"SEED" ~doc:"First seed of the sweep.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every seed's report, not just failures.")
  in
  let run seeds base verbose bench_out =
    Harness.Sweep.run harness ~seeds ~base ~verbose ~bench_out
  in
  Cmd.v (Cmd.info H.name ~doc:H.doc)
    Term.(const run $ seeds_arg $ base_arg $ verbose_arg $ bench_out_arg)

let recover_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let site_arg =
    Arg.(
      value
      & opt string "blk-write"
      & info [ "site" ] ~docv:"SITE"
          ~doc:"Crash site (jrnl-append, jrnl-ckpt, blk-write, blk-free).")
  in
  let at_arg =
    Arg.(value & opt int 1 & info [ "at" ] ~docv:"N" ~doc:"Site occurrence the power cut fires on.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Kill the VMM at one crash point, replay the metadata journal on a fresh \
          same-seed VMM, and print the classification and audit trail.")
    Term.(const run_recover $ seed_arg $ site_arg $ at_arg)

let run_telemetry seed chrome_out bench_out =
  let r, wall_s = Harness.Sweep.timed (fun () -> Harness.Observe.run ~seed ()) in
  Format.printf "%a@?" Harness.Observe.pp_report r;
  (match chrome_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc r.Harness.Observe.o_chrome_json;
      close_out oc;
      Printf.printf "  wrote %s (one pid row per VMM host; load in chrome://tracing)\n"
        path);
  Harness.Sweep.finish ~name:"telemetry" ~held:Harness.Observe.held ~wall_s ~bench_out
    (Harness.Observe.fields r) r.Harness.Observe.o_failures

let telemetry_cmd =
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Fleet scenario seed (default matches the regression sentinel's pin).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Export the enabled run's fleet-wide Chrome trace (one pid row per \
             VMM host) to $(docv).")
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Prove the fleet telemetry plane free when disabled and load-bearing when \
          enabled: run one hostile fleet scenario with registries off then on, \
          assert identical model cycles, stitched cross-host causal traces for \
          every committed failover, burn-rate alerts on host death and silence \
          fault-free.")
    Term.(const run_telemetry $ seed_arg $ chrome_arg $ bench_out_arg)

let trace_cmd =
  let workload_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload: $(b,fileio) or a compute kernel name.")
  in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Problem size multiplier.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Export the event stream as Chrome trace_event JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload under the flight recorder: print the per-span-class \
          latency decomposition (count, total cycles, p50/p95/p99), check the \
          trace-ordering invariants, and optionally export a Chrome trace.")
    Term.(const run_trace $ workload_arg $ cloaked_flag $ scale_arg $ json_arg)

let trace_overhead_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write a JSON benchmark summary to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace-overhead"
       ~doc:
         "Prove the flight recorder is free in the cost model: run workloads with \
          the null sink and a live ring and assert the model cycle counts are \
          identical to the untraced baseline.")
    Term.(const run_trace_overhead $ out_arg)

let profile_cmd =
  let workload_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload: $(b,fileio) or a compute kernel name.")
  in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Problem size multiplier.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff-native" ]
          ~doc:"Also run the workload uncloaked and print the differential profile.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write collapsed stacks (flamegraph.pl input) to $(docv).")
  in
  let cap_arg =
    Arg.(
      value & opt int 1_048_576
      & info [ "cap" ] ~docv:"N"
          ~doc:
            "Trace ring capacity. Attribution refuses a wrapped ring, so this must \
             hold the whole run.")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows in the hottest-contexts table.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Exact cycle attribution: fold the flight-recorder span stream into a \
          call-context tree (total/self cycles, counts), print it with the hottest \
          contexts, optionally export collapsed stacks and diff against a native run.")
    Term.(
      const run_profile $ workload_arg $ cloaked_flag $ scale_arg $ diff_arg $ out_arg
      $ cap_arg $ top_arg)

let regress_cmd =
  let baselines_arg =
    Arg.(
      value
      & opt string "bench/baselines.json"
      & info [ "baselines" ] ~docv:"FILE" ~doc:"Committed baselines file.")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Cycle-drift budget in percent (overrides the file's; counters always match exactly).")
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update-baselines" ]
          ~doc:"Re-measure the suite and rewrite the baselines file instead of comparing.")
  in
  let bench_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE" ~doc:"Write the drift table as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "The perf-regression sentinel: replay the E1/E2 suite plus the key VMM \
          counters and fail (non-zero) on any metric drifting beyond tolerance \
          against the committed baselines.")
    Term.(const run_regress $ baselines_arg $ tolerance_arg $ update_arg $ bench_out_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available kernels and attacks.") Term.(const run_list $ const ())

(* Bare `overshadow-cli` prints this instead of cmdliner's terse usage
   error, so the tool is discoverable without reading the man page. *)
let usage_listing =
  [ ("kernel", "run one SPEC-style compute kernel and report model cycles");
    ("attack", "run malicious-OS attacks and report leak/detection outcomes");
    ("counters", "run the fileio workload and dump all VMM event counters") ]
  @ List.map (fun (module H : Harness.S) -> (H.name, H.doc)) sweeps
  @ [ ("recover", "one crash point + metadata-journal recovery replay, narrated");
      ("telemetry", "prove fleet telemetry free when off, stitched traces + burn alerts when on");
      ("trace", "flight-recorder latency decomposition for one workload");
      ("trace-overhead", "prove the recorder adds zero model cycles");
      ("profile", "exact cycle-attribution tree + flamegraph export (--diff-native)");
      ("regress", "perf-regression sentinel against committed baselines");
      ("list", "list available kernels and attacks") ]

let run_usage () =
  Printf.printf
    "overshadow-cli: Overshadow (ASPLOS 2008) reproduction — cloaked execution on a \
     simulated VMM.\n\nCommands:\n";
  List.iter (fun (n, d) -> Printf.printf "  %-15s %s\n" n d) usage_listing;
  Printf.printf
    "\nRun `overshadow-cli COMMAND --help` for options.\n\
     Benchmark tables (E1-E8): dune exec bench/main.exe\n";
  0

let () =
  let info =
    Cmd.info "overshadow-cli" ~version:"1.0"
      ~doc:"Overshadow (ASPLOS 2008) reproduction: cloaked execution on a simulated VMM."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default:Term.(const run_usage $ const ()) info
          ([ kernel_cmd; attack_cmd; counters_cmd ]
          @ List.map sweep_cmd sweeps
          @ [ recover_cmd; telemetry_cmd; trace_cmd; trace_overhead_cmd; profile_cmd;
              regress_cmd; list_cmd ])))
