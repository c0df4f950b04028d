(* The adversary sweep: every workload under a fully malicious kernel
   personality, per attack class, per seed, run twice. See adversary.mli. *)

open Machine
open Guest
module Adv = Attacks.Adversary

let secret = "ADVERSARY-CANARY-SECRET-PAYLOAD!"

(* Typed deaths the victim wrapper converts hostile-kernel outcomes into:
   a paraverification refusal and a bounded errno degradation. Everything
   else typed comes from the kernel/VMM (-2 security kill, -3 machine
   check, 137 OOM, 139 segv). *)
let exit_refused = 81
let exit_degraded = 82

let salt = 0xAD5A12

let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
  }

(* --- the victims ---

   Each workload plants the canary in cloaked memory, runs its real work
   through the shim, publishes a digest of its output for the
   silent-corruption check, and converts typed hostile-kernel exceptions
   into distinguishable exit statuses. *)

type workload = {
  w_name : string;
  program : digest:int option ref -> Abi.program;
}

let plant_canary u =
  let vaddr = Uapi.malloc u (String.length secret + 8) in
  Uapi.store u ~vaddr (Bytes.of_string secret)

(* Give the identity attacks something to confuse: fork a child and insist
   the pid story stays coherent. Under an honest kernel this is invisible;
   under a lying one the shim's fork/wait/getpid paraverification either
   keeps the story straight or refuses typed. A confusion that reaches
   this check is a silent corruption (exit 1). *)
let exercise_identity u =
  ignore (Uapi.getpid u);
  let pid = Uapi.fork u ~child:(fun env' -> Uapi.exit (Uapi.of_env env') 0) in
  let reaped, _status = Uapi.wait u in
  if reaped <> pid then Uapi.exit u 1

(* Give the Iago lies a device data path to attack even in compute-bound
   cells: a small file round trip through the shim's marshal buffer. The
   payload is deliberately public — writing the cloaked canary to an
   ordinary file would be the application disclosing it, not the kernel
   stealing it. A mismatched read-back that the shim let through is a
   silent corruption (exit 1). *)
let io_payload = "adversary-io-roundtrip-payload!!"

let exercise_io u =
  let len = String.length io_payload in
  let fd = Uapi.openf u "/rt" [ Abi.O_CREAT; Abi.O_RDWR ] in
  let buf = Uapi.malloc u (len + 8) in
  Uapi.store u ~vaddr:buf (Bytes.of_string io_payload);
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Uapi.write u ~fd ~vaddr:(buf + !sent) ~len:(len - !sent)
  done;
  ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
  let rbuf = Uapi.malloc u (len + 8) in
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let n = Uapi.read u ~fd ~vaddr:(rbuf + !got) ~len:(len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  Uapi.close u fd;
  if !got <> len || Uapi.load u ~vaddr:rbuf ~len <> Bytes.of_string io_payload then
    Uapi.exit u 1

let typed u body =
  try body ()
  with
  | Oshim.Shim.Hostile_os _ -> Uapi.exit u exit_refused
  | Errno.Error _ -> Uapi.exit u exit_degraded

let spec_workload (k : Workloads.Spec.kernel) =
  {
    w_name = "spec/" ^ k.Workloads.Spec.name;
    program =
      (fun ~digest (env : Abi.env) ->
        let u = Uapi.of_env env in
        typed u (fun () ->
            ignore (Oshim.Shim.install u);
            plant_canary u;
            exercise_identity u;
            exercise_io u;
            let sum = k.Workloads.Spec.run u ~scale:Workloads.Spec.default_scale in
            digest := Some sum;
            Uapi.exit u 0));
  }

let fileio_config = { Workloads.Fileio.default with operations = 60 }

let fileio_workload =
  {
    w_name = "fileio";
    program =
      (fun ~digest (env : Abi.env) ->
        let u = Uapi.of_env env in
        typed u (fun () ->
            plant_canary u;
            (* fileio self-checks every read-back, so a clean exit 0 is
               the digest *)
            digest := Some 0;
            Workloads.Fileio.run fileio_config ~use_shim:true env));
  }

let workloads = List.map spec_workload Workloads.Spec.kernels @ [ fileio_workload ]
let workload_for ~seed = List.nth workloads (abs seed mod List.length workloads)

(* --- one stack run --- *)

type raw = {
  raw_exit : int option;
  raw_digest : int option;
  raw_crash : string option;
  raw_leaks : string list;
  raw_trace_failures : string list;
  raw_audit : string list;
  raw_audit_dropped : int;
  raw_counters : Counters.t;
  raw_attacks : int;  (* attacks the personality executed *)
}

let run_stack ~seed ~(w : workload) ~adversary =
  let engine = Inject.create (Inject.plan ~seed []) in
  let vconfig = Sweep.vconfig ~salt ~seed in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~engine ~trace () in
  let k = Kernel.create ~config:kconfig vmm in
  let adv = Option.map (fun cls -> Adv.create ~vmm ~cls ~seed) adversary in
  let digest = ref None in
  let pid =
    Kernel.spawn k ~cloaked:true (fun env ->
        (* the adversary arms first, so the shim's "direct" dispatcher is
           the liar — exactly the configuration paraverification defends *)
        (match adv with Some a -> Adv.arm a env | None -> ());
        w.program ~digest env)
  in
  let crash =
    try
      Kernel.run k;
      None
    with e -> Some (Printexc.to_string e)
  in
  {
    raw_exit = Kernel.exit_status k ~pid;
    raw_digest = !digest;
    raw_crash = crash;
    raw_leaks = Sweep.scan_leaks ~pattern:secret vmm k;
    raw_trace_failures = Trace.Check.verdict trace;
    raw_audit = Inject.Audit.lines (Cloak.Vmm.audit vmm);
    raw_audit_dropped = Inject.Audit.dropped (Cloak.Vmm.audit vmm);
    raw_counters = Cloak.Vmm.counters vmm;
    raw_attacks = Option.fold ~none:0 ~some:Adv.executed adv;
  }

(* --- per-class verdicts --- *)

type outcome =
  | Survived  (** exited 0 with the fault-free digest *)
  | Refused   (** typed [Hostile_os] refusal, exit 81 *)
  | Degraded  (** typed errno degradation, exit 82 *)
  | Killed of int  (** VMM/kernel containment: -2, -3, 137, 139 *)
  | Silent of string  (** the one forbidden outcome *)

let outcome_name = function
  | Survived -> "survived"
  | Refused -> "refused"
  | Degraded -> "degraded"
  | Killed s -> Printf.sprintf "killed(%d)" s
  | Silent _ -> "SILENT"

let classify ~ff_digest raw =
  match raw.raw_exit with
  | Some 0 ->
      if raw.raw_digest = ff_digest then Survived
      else
        Silent
          (Printf.sprintf "completed with digest %s but fault-free produced %s"
             (match raw.raw_digest with Some d -> string_of_int d | None -> "none")
             (match ff_digest with Some d -> string_of_int d | None -> "none"))
  | Some s when s = exit_refused -> Refused
  | Some s when s = exit_degraded -> Degraded
  | Some 1 -> Silent "corrupted data reached the workload's own self-check"
  | Some s when s = -2 || s = -3 || s = 137 || s = 139 -> Killed s
  | Some s -> Silent (Printf.sprintf "untyped exit status %d" s)
  | None -> Silent "victim never exited (starved or wedged)"

type class_report = {
  cls : Adv.cls;
  attacks : int;
  lies_detected : int;
  refusals : int;
  outcome : outcome;
  cr_failures : string list;
}

let check_class ~ff_digest (raw : raw) cls =
  let fails = ref [] in
  let add fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  (match raw.raw_crash with
  | Some msg -> add "[%s] uncaught exception: %s" (Adv.class_name cls) msg
  | None -> ());
  (match raw.raw_leaks with
  | [] -> ()
  | l ->
      add "[%s] plaintext canary leaked to: %s" (Adv.class_name cls)
        (String.concat ", " l));
  List.iter
    (fun f -> add "[%s] trace invariant: %s" (Adv.class_name cls) f)
    raw.raw_trace_failures;
  let outcome = classify ~ff_digest raw in
  (match outcome with
  | Silent what -> add "[%s] silent corruption: %s" (Adv.class_name cls) what
  | _ -> ());
  let c = raw.raw_counters in
  {
    cls;
    attacks = raw.raw_attacks;
    lies_detected = c.Counters.hostile_lies_detected;
    refusals = c.Counters.hostile_refusals;
    outcome;
    cr_failures = List.rev !fails;
  }

(* --- one seed: fault-free baseline, then every class twice --- *)

type seed_report = {
  seed : int;
  workload : string;
  classes : class_report list;
  attacks : int;
  lies_detected : int;
  refusals : int;
  survived : int;
  refused : int;
  degraded : int;
  killed : int;
  audit_dropped : int;
  failures : string list;
}

let run_seed ~seed =
  let w = workload_for ~seed in
  let fails = ref [] in
  let add fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let ff = run_stack ~seed ~w ~adversary:None in
  (match ff.raw_crash with
  | Some msg -> add "fault-free crash: %s" msg
  | None -> ());
  if ff.raw_exit <> Some 0 then
    add "fault-free run of %s exited %s" w.w_name
      (match ff.raw_exit with Some s -> string_of_int s | None -> "never");
  let classes =
    List.map
      (fun cls ->
        let a = run_stack ~seed ~w ~adversary:(Some cls) in
        let b = run_stack ~seed ~w ~adversary:(Some cls) in
        (match
           Sweep.determinism_failure ~audit_a:a.raw_audit ~audit_b:b.raw_audit
             ~dropped:(max a.raw_audit_dropped b.raw_audit_dropped)
         with
        | Some what -> add "[%s] %s" (Adv.class_name cls) what
        | None -> ());
        let cr = check_class ~ff_digest:ff.raw_digest a cls in
        List.iter (fun f -> fails := f :: !fails) (List.rev cr.cr_failures);
        (cr, max a.raw_audit_dropped b.raw_audit_dropped))
      Adv.classes
  in
  let dropped = List.fold_left (fun acc (_, d) -> max acc d) 0 classes in
  let classes = List.map fst classes in
  let count f = List.length (List.filter f classes) in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 classes in
  {
    seed;
    workload = w.w_name;
    classes;
    attacks = sum (fun c -> c.attacks);
    lies_detected = sum (fun c -> c.lies_detected);
    refusals = sum (fun c -> c.refusals);
    survived = count (fun c -> c.outcome = Survived);
    refused = count (fun c -> c.outcome = Refused);
    degraded = count (fun c -> c.outcome = Degraded);
    killed = count (fun c -> match c.outcome with Killed _ -> true | _ -> false);
    audit_dropped = dropped;
    failures = List.rev !fails;
  }

(* --- the sweep --- *)

let failures r = r.failures

let name = "adversary"
let bench_name = "adversary"
let doc = "every workload under a malicious kernel: Iago lies, remap/replay, identity"
let default_seeds = 20

let held =
  "all invariants held: zero plaintext leaks, zero silent corruptions (fault-free \
   digest or typed refusal), deterministic audit"

let summary reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let seeds = List.length reports and classes = List.length Adv.classes in
  let attacks = sum (fun r -> r.attacks) and lies = sum (fun r -> r.lies_detected) in
  let refusals = sum (fun r -> r.refusals) and survived = sum (fun r -> r.survived) in
  let refused = sum (fun r -> r.refused) and degraded = sum (fun r -> r.degraded) in
  let killed = sum (fun r -> r.killed) in
  {
    Sweep.lines =
      [ Printf.sprintf
          "adversary: %d seeds x %d classes, %d attacks -> %d survived, %d refused, %d \
           degraded, %d killed; %d lies detected, %d refusals, %d failures"
          seeds classes attacks survived refused degraded killed lies refusals
          (sum (fun r -> List.length r.failures)) ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("classes", Report.Int classes);
        ("attacks", Report.Int attacks);
        ("lies_detected", Report.Int lies);
        ("refusals", Report.Int refusals);
        ("survived", Report.Int survived);
        ("refused", Report.Int refused);
        ("degraded", Report.Int degraded);
        ("killed", Report.Int killed) ];
    failures = [];
  }

let pp_seed_report ppf r =
  Format.fprintf ppf "seed %d [%s]: %d attacks, %s" r.seed r.workload r.attacks
    (String.concat " "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%s" (Adv.class_name c.cls) (outcome_name c.outcome))
          r.classes));
  (match Sweep.truncation_note r.audit_dropped with
  | Some note -> Format.fprintf ppf " (%s)" note
  | None -> ());
  List.iter (Format.fprintf ppf "@\n    FAILED %s") r.failures
