module Micro = Micro

type kind = Cycles | Counter

type metric = { name : string; kind : kind; value : int }

let default_tolerance_pct = 2.0

(* Metric names are stable slugs: lowercase, alnum preserved, everything
   else collapsed to single dashes ("read 4 KiB" -> "read-4-kib"). *)
let slug s =
  let buf = Buffer.create (String.length s) in
  let dash = ref false in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c ->
          if !dash && Buffer.length buf > 0 then Buffer.add_char buf '-';
          dash := false;
          Buffer.add_char buf c
      | _ -> dash := true)
    s;
  Buffer.contents buf

(* The counters whose exact values the sentinel pins: the quantities the
   paper's overhead decomposition attributes cost to. *)
let pinned_counters =
  [
    "world_switches";
    "hypercalls";
    "syscalls";
    "shadow_walks";
    "hidden_faults";
    "guest_faults";
    "page_encryptions";
    "page_decryptions";
    "clean_reencryptions";
    "hash_checks";
    "disk_reads";
    "disk_writes";
    "bytes_copied";
  ]

let vconfig_of cost_model =
  match cost_model with
  | None -> None
  | Some m -> Some { Cloak.Vmm.default_config with cost_model = m }

let run_cycles ?vconfig ~cloaked prog =
  Harness.checked ~name:"regress suite" (Harness.run_program ?vconfig ~cloaked prog)

let suite ?cost_model () =
  let vconfig = vconfig_of cost_model in
  let e1 =
    List.concat_map
      (fun (k : Workloads.Spec.kernel) ->
        let run ~cloaked =
          (run_cycles ?vconfig ~cloaked (fun env ->
               let u = Uapi.of_env env in
               ignore (k.Workloads.Spec.run u ~scale:Workloads.Spec.default_scale)))
            .Harness.cycles
        in
        [
          { name = Printf.sprintf "e1/%s/native_cycles" (slug k.Workloads.Spec.name);
            kind = Cycles; value = run ~cloaked:false };
          { name = Printf.sprintf "e1/%s/cloaked_cycles" (slug k.Workloads.Spec.name);
            kind = Cycles; value = run ~cloaked:true };
        ])
      Workloads.Spec.kernels
  in
  let e2 =
    List.concat_map
      (fun (m : Micro.micro) ->
        [
          { name = Printf.sprintf "e2/%s/native_cpo" (slug m.Micro.name);
            kind = Cycles; value = Micro.measure ?vconfig ~cloaked:false m };
          { name = Printf.sprintf "e2/%s/cloaked_cpo" (slug m.Micro.name);
            kind = Cycles; value = Micro.measure ?vconfig ~cloaked:true m };
        ])
      Micro.all
  in
  let cfg = Workloads.Fileio.default in
  let fileio ~cloaked = run_cycles ?vconfig ~cloaked (Workloads.Fileio.run cfg ~use_shim:true) in
  let native = fileio ~cloaked:false in
  let cloaked = fileio ~cloaked:true in
  let counters =
    List.filter_map
      (fun (name, value) ->
        if List.mem name pinned_counters then
          Some { name = "fileio/cloaked/" ^ name; kind = Counter; value }
        else None)
      (Machine.Counters.to_assoc cloaked.Harness.counters)
  in
  (* one deterministic live-migration seed pins the protocol's event
     counts (attempt/abort/retry/MAC-reject behaviour must not drift
     silently) and tracks its downtime like any other latency *)
  let migrate =
    let r = Harness.Migrate.run_seed ~seed:7 in
    if r.Harness.Migrate.failures <> [] then
      failwith
        ("regress: migration invariants broken: "
        ^ String.concat "; " r.Harness.Migrate.failures);
    [
      { name = "migrate/attempts"; kind = Counter; value = r.Harness.Migrate.attempts };
      { name = "migrate/completed"; kind = Counter; value = r.Harness.Migrate.completed };
      { name = "migrate/aborts"; kind = Counter; value = r.Harness.Migrate.aborts };
      { name = "migrate/retries"; kind = Counter; value = r.Harness.Migrate.retries };
      { name = "migrate/chunk-mac-failures"; kind = Counter;
        value = r.Harness.Migrate.mac_failures };
      { name = "migrate/downtime-cycles"; kind = Cycles;
        value = r.Harness.Migrate.downtime_cycles };
    ]
  in
  (* one deterministic fleet seed pins the supervisor's event counts
     (death/drain/failover/shed/heartbeat-timeout behaviour must not
     drift silently) *)
  let fleet =
    let r = Harness.Fleet.run_seed ~seed:7 in
    if r.Harness.Fleet.failures <> [] then
      failwith
        ("regress: fleet invariants broken: "
        ^ String.concat "; " r.Harness.Fleet.failures);
    [
      { name = "fleet/deaths"; kind = Counter; value = r.Harness.Fleet.deaths };
      { name = "fleet/drains"; kind = Counter; value = r.Harness.Fleet.drains };
      { name = "fleet/failovers"; kind = Counter; value = r.Harness.Fleet.failovers };
      { name = "fleet/lost-processes"; kind = Counter;
        value = r.Harness.Fleet.lost_procs };
      { name = "fleet/heartbeat-timeouts"; kind = Counter;
        value = r.Harness.Fleet.hb_timeouts };
      { name = "fleet/sheds"; kind = Counter; value = r.Harness.Fleet.sheds };
      (* telemetry: the fleet's own observability plane is part of the
         pinned behaviour — sample/span volume, stitched cross-host
         traces and burn-rate pages must not drift silently either *)
      { name = "fleet/telemetry-samples"; kind = Counter;
        value = r.Harness.Fleet.tel_samples };
      { name = "fleet/telemetry-spans"; kind = Counter;
        value = r.Harness.Fleet.tel_spans };
      { name = "fleet/stitched-traces"; kind = Counter;
        value = r.Harness.Fleet.stitched_traces };
      { name = "fleet/burn-alerts-fast"; kind = Counter;
        value = r.Harness.Fleet.burn_fast_alerts };
      { name = "fleet/burn-alerts-slow"; kind = Counter;
        value = r.Harness.Fleet.burn_slow_alerts };
    ]
  in
  (* one deterministic adversary seed pins the malicious-kernel campaign
     and the defense's response to it (attack mix, lies detected, typed
     refusals) — a drift here means the adversary or the paraverification
     layer changed behaviour *)
  let adversary =
    let r = Harness.Adversary.run_seed ~seed:7 in
    if r.Harness.Adversary.failures <> [] then
      failwith
        ("regress: adversary invariants broken: "
        ^ String.concat "; " r.Harness.Adversary.failures);
    [
      { name = "adversary/attacks"; kind = Counter; value = r.Harness.Adversary.attacks };
      { name = "adversary/lies-detected"; kind = Counter;
        value = r.Harness.Adversary.lies_detected };
      { name = "adversary/refusals"; kind = Counter;
        value = r.Harness.Adversary.refusals };
      { name = "adversary/survived"; kind = Counter; value = r.Harness.Adversary.survived };
      { name = "adversary/refused"; kind = Counter; value = r.Harness.Adversary.refused };
      { name = "adversary/degraded"; kind = Counter; value = r.Harness.Adversary.degraded };
      { name = "adversary/killed"; kind = Counter; value = r.Harness.Adversary.killed };
    ]
  in
  e1 @ e2
  @ [
      { name = "fileio/native/cycles"; kind = Cycles; value = native.Harness.cycles };
      { name = "fileio/cloaked/cycles"; kind = Cycles; value = cloaked.Harness.cycles };
    ]
  @ counters @ migrate @ fleet @ adversary

(* --- comparison --- *)

type drift = {
  name : string;
  kind : kind;
  baseline : int;
  current : int;
  drift_pct : float;
  ok : bool;
}

type outcome = {
  drifts : drift list;
  missing : string list;
  extra : string list;
  tolerance_pct : float;
}

let compare_metrics ~tolerance_pct ~baseline metrics =
  let measured = List.map (fun (m : metric) -> (m.name, m)) metrics in
  let missing =
    List.filter_map
      (fun (name, _) -> if List.mem_assoc name measured then None else Some name)
      baseline
  in
  let extra, drifts =
    List.fold_left
      (fun (extra, drifts) (m : metric) ->
        match List.assoc_opt m.name baseline with
        | None -> (m.name :: extra, drifts)
        | Some base ->
            let drift_pct =
              if base = 0 then if m.value = 0 then 0.0 else infinity
              else 100.0 *. float_of_int (m.value - base) /. float_of_int base
            in
            let ok =
              match m.kind with
              | Counter -> m.value = base
              | Cycles -> Float.abs drift_pct <= tolerance_pct
            in
            (extra,
             { name = m.name; kind = m.kind; baseline = base; current = m.value;
               drift_pct; ok }
             :: drifts))
      ([], []) metrics
  in
  { drifts = List.rev drifts; missing; extra = List.rev extra; tolerance_pct }

let ok o =
  o.missing = [] && o.extra = [] && List.for_all (fun d -> d.ok) o.drifts

let failures o =
  List.filter_map
    (fun d ->
      if d.ok then None
      else
        Some
          (match d.kind with
          | Counter ->
              Printf.sprintf "%s: counter changed %d -> %d (exact match required)"
                d.name d.baseline d.current
          | Cycles ->
              Printf.sprintf "%s: %d -> %d cycles (%+.2f%%, tolerance ±%.1f%%)"
                d.name d.baseline d.current d.drift_pct o.tolerance_pct))
    o.drifts
  @ List.map
      (fun n -> Printf.sprintf "%s: in baselines but not measured (suite changed?)" n)
      o.missing
  @ List.map
      (fun n -> Printf.sprintf "%s: measured but missing from baselines (run --update-baselines)" n)
      o.extra

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%-38s %14s %14s %9s %6s@," "metric" "baseline"
    "current" "drift" "";
  Format.fprintf ppf "%s@," (String.make 86 '-');
  List.iter
    (fun d ->
      Format.fprintf ppf "%-38s %14d %14d %+8.2f%% %6s@," d.name d.baseline
        d.current d.drift_pct
        (if d.ok then "" else if d.kind = Counter then "EXACT!" else "DRIFT!"))
    o.drifts;
  List.iter (fun n -> Format.fprintf ppf "%-38s (missing from this run)@," n) o.missing;
  List.iter (fun n -> Format.fprintf ppf "%-38s (not in baselines)@," n) o.extra;
  let bad = List.length (failures o) in
  if bad = 0 then
    Format.fprintf ppf "all %d metrics within tolerance (±%.1f%% cycles, exact counters)@,"
      (List.length o.drifts) o.tolerance_pct
  else Format.fprintf ppf "%d metric(s) out of tolerance@," bad;
  Format.fprintf ppf "@]"

(* --- baselines file --- *)

let benchmark_name = "regress-baselines"

let to_report ~tolerance_pct metrics =
  Report.bench ~name:benchmark_name
    [
      ("tolerance_pct", Report.Float tolerance_pct);
      ( "metrics",
        Report.Obj (List.map (fun (m : metric) -> (m.name, Report.Int m.value)) metrics) );
    ]

let write_baselines ~path ~tolerance_pct metrics =
  Report.write ~path (to_report ~tolerance_pct metrics)

let load_baselines ~path =
  let doc =
    try Report.load ~path
    with
    | Sys_error msg -> failwith ("regress baselines: " ^ msg)
    | Report.Parse_error msg -> failwith ("regress baselines: " ^ msg)
  in
  (match Option.bind (Report.member "schema_version" doc) Report.to_int with
  | Some v when v = Report.schema_version -> ()
  | Some v ->
      failwith
        (Printf.sprintf "regress baselines %s: schema_version %d, expected %d" path v
           Report.schema_version)
  | None -> failwith (path ^ ": not a report document (no schema_version)"));
  (match Option.bind (Report.member "benchmark" doc) Report.to_str with
  | Some b when b = benchmark_name -> ()
  | other ->
      failwith
        (Printf.sprintf "%s: benchmark %S, expected %S" path
           (Option.value ~default:"<none>" other)
           benchmark_name));
  let tolerance = Option.bind (Report.member "tolerance_pct" doc) Report.to_float in
  match Report.member "metrics" doc with
  | Some (Report.Obj fields) ->
      ( tolerance,
        List.map
          (fun (name, v) ->
            match Report.to_int v with
            | Some n -> (name, n)
            | None -> failwith (Printf.sprintf "%s: metric %s is not an integer" path name))
          fields )
  | _ -> failwith (path ^ ": no metrics object")

let outcome_report o =
  Report.bench ~name:"regress"
    [
      ("tolerance_pct", Report.Float o.tolerance_pct);
      ("metrics_checked", Report.Int (List.length o.drifts));
      ("failures", Report.List (List.map (fun f -> Report.Str f) (failures o)));
      ( "drifts",
        Report.Obj
          (List.map
             (fun d ->
               ( d.name,
                 Report.Obj
                   [
                     ("baseline", Report.Int d.baseline);
                     ("current", Report.Int d.current);
                     ("drift_pct", Report.Float d.drift_pct);
                     ("ok", Report.Bool d.ok);
                   ] ))
             o.drifts) );
    ]
