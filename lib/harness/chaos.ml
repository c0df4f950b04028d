(* The chaos harness: seeded runs of a mixed cloaked/uncloaked workload
   under randomized fault plans, checking the three hostile-world
   invariants (no escaped exception, no plaintext leak, deterministic
   replay). See chaos.mli. *)

open Machine
open Guest

let secret = "CHAOS-CANARY-TOP-SECRET-PAYLOAD!"

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
  obs : Stack.obs;
  injections : int;
  contained : int;
  exit_statuses : (int * int option) list;
  hot_spots : (string * int) list;
  failures : string list;
}

let run_once ~seed =
  let plan = Inject.random_plan ~seed in
  let engine = Inject.create plan in
  let ({ Stack.vmm; k; _ } as st) = Stack.boot ~engine ~salt:0xC4A05 ~seed kconfig in
  let pids =
    [ Kernel.spawn k ~cloaked:true protagonist; Kernel.spawn k antagonist ]
  in
  let crash = Stack.run st in
  let obs = Stack.observe ~canary:secret ~wire:[] ~crash [ ("", st) ] in
  {
    seed;
    plan;
    obs;
    injections = Inject.injections engine;
    contained = (Cloak.Vmm.counters vmm).contained;
    exit_statuses = List.map (fun pid -> (pid, Kernel.exit_status k ~pid)) pids;
    hot_spots = Stack.hot_spots ~root:"chaos" st;
    failures = Stack.failures obs;
  }

(* --- one sweep seed: run twice, check the three invariants --- *)

type seed_report = report

let run_seed ~seed =
  let r = run_once ~seed in
  let r' = run_once ~seed in
  {
    r with
    failures =
      r.failures
      @ List.map (( ^ ) "replay: ") r'.failures
      @ Option.to_list (Stack.replay r.obs r'.obs);
  }

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
    (match r.obs.crash with
    | Some m -> "CRASH " ^ m
    | None -> (
        match r.obs.leaks with
        | [] -> "clean"
        | l -> "LEAK " ^ String.concat ", " l));
  let line fmt = Format.fprintf ppf ("@\n    " ^^ fmt) in
  Option.iter (line "%s") (Sweep.truncation_note r.obs.audit_dropped);
  Stack.pp_hot_spots ~trace_dropped:r.obs.trace_dropped ppf r.hot_spots;
  List.iter (line "FAILED %s") r.failures;
  List.iter (line "%s") r.obs.audit
