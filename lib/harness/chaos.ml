(* The chaos harness: seeded runs of a mixed cloaked/uncloaked workload
   under randomized fault plans, checking the three hostile-world
   invariants (no escaped exception, no plaintext leak, deterministic
   replay). See chaos.mli. *)

open Machine
open Guest

let secret = "CHAOS-CANARY-TOP-SECRET-PAYLOAD!"
let contains_secret = Sweep.contains_pattern secret

(* --- the workload ---

   A cloaked protagonist carries the secret through every subsystem the
   fault plans target: cloaked heap and mmap memory (paging, TLB,
   machine memory), a protected file via the shim (metadata export/import,
   filesystem, block device), fork (re-keying), a pipe (with an innocuous
   payload: pipes are uncloaked channels), and enough compute to take
   timer interrupts. An uncloaked antagonist creates memory pressure and
   disk traffic so eviction and writeback churn under the same faults.

   The programs never assert: under injection, data corruption inside a
   process's own domain is a legal outcome (reported via exit status 3),
   and security faults, OOM kills and EIO terminations are exactly what
   the containment layer is being tested on. *)

let protagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let sh = Oshim.Shim.install u in
  let slen = String.length secret in
  (* the secret lives in cloaked anonymous memory *)
  let sb = Uapi.malloc u 64 in
  Uapi.store u ~vaddr:sb (Bytes.of_string secret);
  let vpn = Uapi.mmap u ~pages:3 ~cloaked:true () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 2 do
    Uapi.store u ~vaddr:(base + (i * Addr.page_size)) (Bytes.of_string secret)
  done;
  Uapi.compute u ~cycles:300_000;
  (* protected file round trip: ciphertext + authenticated metadata on disk *)
  let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:2 in
  Oshim.Shim_io.write sh f ~pos:0 (Bytes.of_string secret);
  Oshim.Shim_io.write sh f ~pos:Addr.page_size (Bytes.of_string secret);
  Oshim.Shim_io.save sh f;
  Oshim.Shim_io.close sh f;
  let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
  let back = Oshim.Shim_io.read sh f2 ~pos:0 ~len:slen in
  Oshim.Shim_io.save sh f2;
  Oshim.Shim_io.close sh f2;
  (* fork a child that inherits (and re-reads) the secret; ping it through
     a pipe with a public payload *)
  let rfd, wfd = Uapi.pipe u in
  let child (env' : Abi.env) =
    let u' = Uapi.of_env env' in
    Uapi.close u' rfd;
    let copy = Uapi.load u' ~vaddr:sb ~len:slen in
    Uapi.compute u' ~cycles:50_000;
    let pub = Uapi.malloc u' 32 in
    Uapi.store u' ~vaddr:pub (Bytes.of_string "chaos-child-checked-in-pid");
    ignore (Uapi.write u' ~fd:wfd ~vaddr:pub ~len:26);
    Uapi.close u' wfd;
    Uapi.exit u' (if Bytes.to_string copy = secret then 0 else 3)
  in
  ignore (Uapi.fork u ~child);
  Uapi.close u wfd;
  let ping = Uapi.read_bytes u ~fd:rfd ~len:26 in
  Uapi.close u rfd;
  ignore (Uapi.wait u);
  Uapi.munmap u ~start_vpn:vpn ~pages:3;
  let ok = Bytes.to_string back = secret && Bytes.length ping > 0 in
  Uapi.exit u (if ok then 0 else 3)

let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "public-log-entry-nothing-hidden" in
  Uapi.mkdir u "/pub";
  for i = 0 to 3 do
    let fd =
      Uapi.openf u (Printf.sprintf "/pub/f%d" i) [ Abi.O_CREAT; Abi.O_RDWR ]
    in
    for _ = 1 to 4 do
      Uapi.write_bytes u ~fd public
    done;
    Uapi.close u fd
  done;
  Uapi.sync u;
  (* memory pressure: touch enough pages to force eviction of the
     protagonist's cloaked pages through the swap path *)
  let vpn = Uapi.mmap u ~pages:48 () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 47 do
    Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) (i land 0xff)
  done;
  Uapi.compute u ~cycles:200_000;
  for i = 0 to 47 do
    ignore (Uapi.load_byte u ~vaddr:(base + (i * Addr.page_size)))
  done;
  for i = 0 to 3 do
    let path = Printf.sprintf "/pub/f%d" i in
    let fd = Uapi.openf u path [ Abi.O_RDONLY ] in
    ignore (Uapi.read_bytes u ~fd ~len:(Bytes.length public));
    Uapi.close u fd;
    Uapi.unlink u path
  done;
  Uapi.exit u 0

(* Small enough guest memory that the two processes genuinely compete. *)
let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
  }

(* --- one seeded run --- *)

type report = {
  seed : int;
  plan : Inject.plan;
  crash : string option;
  leaks : string list;
  audit : string list;
  audit_dropped : int;
  injections : int;
  contained : int;
  exit_statuses : (int * int option) list;
  trace_failures : string list;
  trace_dropped : int;
  hot_spots : (string * int) list;
  failures : string list;
}

let scan_leaks vmm k = Sweep.scan_leaks ~pattern:secret vmm k

let check_report r =
  (match r.crash with
  | Some msg -> [ Printf.sprintf "uncaught exception: %s" msg ]
  | None -> [])
  @ (match r.leaks with
    | [] -> []
    | l -> [ Printf.sprintf "plaintext secret leaked to: %s" (String.concat ", " l) ])
  @ List.map (Printf.sprintf "trace invariant: %s") r.trace_failures

let run_once ~seed =
  let plan = Inject.random_plan ~seed in
  let engine = Inject.create plan in
  let vconfig = Sweep.vconfig ~salt:0xC4A05 ~seed in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace () in
  let k = Kernel.create ~config:kconfig vmm in
  let pids =
    [ Kernel.spawn k ~cloaked:true protagonist; Kernel.spawn k antagonist ]
  in
  let crash =
    try
      Kernel.run k;
      None
    with e -> Some (Printexc.to_string e)
  in
  let r =
    {
      seed;
      plan;
      crash;
      leaks = scan_leaks vmm k;
      audit = Inject.Audit.lines (Cloak.Vmm.audit vmm);
      audit_dropped = Inject.Audit.dropped (Cloak.Vmm.audit vmm);
      injections = Inject.injections engine;
      contained = (Cloak.Vmm.counters vmm).contained;
      exit_statuses = List.map (fun pid -> (pid, Kernel.exit_status k ~pid)) pids;
      trace_failures = Trace.Check.verdict trace;
      trace_dropped = Trace.dropped trace;
      hot_spots =
        Profile.hot_spots ~root:"chaos"
          ~total_cycles:(Cost.cycles (Cloak.Vmm.cost vmm))
          ~n:3 trace;
      failures = [];
    }
  in
  { r with failures = check_report r }

(* --- one sweep seed: run twice, check the three invariants --- *)

type seed_report = report

let run_seed ~seed =
  let r = run_once ~seed in
  let r' = run_once ~seed in
  let replay =
    Sweep.determinism_failure ~audit_a:r.audit ~audit_b:r'.audit
      ~dropped:(max r.audit_dropped r'.audit_dropped)
  in
  { r with failures = r.failures @ Option.to_list replay }

let failures r = r.failures

let name = "chaos"
let bench_name = "chaos"
let doc = "seeded fault-injection sweep checking the hostile-world invariants"
let default_seeds = 10
let held = "all invariants held: no escapes, no leaks, deterministic replay"

let summary reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let seeds = List.length reports in
  let injections = sum (fun r -> r.injections) in
  let contained = sum (fun r -> r.contained) in
  let kills =
    sum (fun r -> List.length (List.filter (fun (_, s) -> s = Some (-2)) r.exit_statuses))
  in
  {
    Sweep.lines =
      [ Printf.sprintf
          "\n%d seeds (each run twice): %d injections, %d contained faults, %d \
           security kills"
          seeds injections contained kills ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("injections", Report.Int injections);
        ("contained", Report.Int contained);
        ("security_kills", Report.Int kills) ];
    failures = [];
  }

let pp_seed_report ppf r =
  Format.fprintf ppf "seed %d: %d injections, %d contained, %s" r.seed
    r.injections r.contained
    (match r.crash with
    | Some m -> "CRASH " ^ m
    | None -> (
        match r.leaks with
        | [] -> "clean"
        | l -> "LEAK " ^ String.concat ", " l));
  let line fmt = Format.fprintf ppf ("@\n    " ^^ fmt) in
  Option.iter (line "%s") (Sweep.truncation_note r.audit_dropped);
  (match r.hot_spots with
  | [] ->
      if r.trace_dropped > 0 then
        line "top cost centers unavailable: trace ring dropped %d events"
          r.trace_dropped
  | spots ->
      line "top cost centers:%s"
        (String.concat ""
           (List.map (fun (p, cy) -> Printf.sprintf " %s=%dcy" p cy) spots)));
  List.iter (line "FAILED %s") r.failures;
  List.iter (line "%s") r.audit
