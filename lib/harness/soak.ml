(* The availability soak: long-horizon seeded runs of a restart-aware
   cloaked service under sustained lethal fault plans, with supervision on
   vs off. See soak.mli for the invariants. *)

open Machine
open Guest

let canary = "SOAK-CANARY-SEALED-STATE-SECRET!"

(* --- the workload ---

   A restart-aware cloaked service performs [rounds] units of work. Its
   durable state is one cloaked page mmapped FIRST (so it always lands at
   [Kernel.mmap_base_vpn]) holding a unit counter and the canary; each
   unit burns [unit_cycles] of compute, moves canary-derived plaintext
   through cloaked memory (and, with [vault], a protected file), advances
   the counter, drops one byte into an OS-visible progress file at offset
   [unit] (file size = furthest unit completed — restarts redo work but
   never double-count), and requests a sealed checkpoint. A restored or
   migrated incarnation reads the counter back from the restored cloaked
   page and resumes from there.

   The checkpoint hypercall is the quiesce point where an armed migration
   drain fires. The same closure runs unsupervised for the soak baseline:
   Checkpoint then fails EINVAL, which the service tolerates, and any
   fatal kill is final. *)

let rounds = 24
let unit_cycles = 30_000
let counter_off = 0
let canary_off = 64

let service ~rounds ~unit_cycles ~vault (env : Abi.env) =
  let u = Uapi.of_env env in
  let restored = Uapi.restored u in
  let state_vpn =
    if restored then Kernel.mmap_base_vpn
    else Uapi.mmap u ~pages:1 ~cloaked:true ()
  in
  let sh = Oshim.Shim.install u in
  let base = Addr.vaddr_of_vpn state_vpn in
  let read_counter () =
    Int32.to_int (Bytes.get_int32_le (Uapi.load u ~vaddr:(base + counter_off) ~len:4) 0)
  in
  let write_counter n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Uapi.store u ~vaddr:(base + counter_off) b
  in
  if not restored then begin
    write_counter 0;
    Uapi.store u ~vaddr:(base + canary_off) (Bytes.of_string canary)
  end;
  let scratch = Uapi.malloc u 64 in
  let marker = Uapi.malloc u 8 in
  let start = read_counter () in
  (* The protected file persists across rounds (per incarnation, so a
     quarantined vault cannot kill-loop every respawn): re-opening and
     re-saving it re-encrypts long-lived pages every round, which keeps
     sustained IV/DMA fault rules lethal in BOTH soak modes — a fresh file
     per round would reset page versions and exempt the unsupervised
     baseline from IV-reuse violations entirely. *)
  let vault_path = Printf.sprintf "/vault%d" (Uapi.incarnation u) in
  for unit = start to rounds - 1 do
    Uapi.compute u ~cycles:unit_cycles;
    let tag = Printf.sprintf "%s:%04d" canary unit in
    Uapi.store u ~vaddr:scratch (Bytes.of_string tag);
    (* app-level I/O errors (an exhausted device retry) must not kill the
       service *)
    if vault then (
      try
        let f =
          try Oshim.Shim_io.open_existing sh ~path:vault_path
          with Errno.Error _ -> Oshim.Shim_io.create sh ~path:vault_path ~pages:1
        in
        Oshim.Shim_io.write sh f ~pos:0 (Bytes.of_string tag);
        Oshim.Shim_io.save sh f;
        Oshim.Shim_io.close sh f
      with Errno.Error _ | Invalid_argument _ -> ());
    write_counter (unit + 1);
    (try
       let fd = Uapi.openf u "/progress" [ Abi.O_CREAT; Abi.O_RDWR ] in
       ignore (Uapi.lseek u ~fd ~pos:unit ~whence:Abi.Seek_set);
       Uapi.store_byte u ~vaddr:marker (unit land 0xff);
       ignore (Uapi.write u ~fd ~vaddr:marker ~len:1);
       Uapi.close u fd
     with Errno.Error _ -> ());
    (* quiesce point: ask the supervisor for a sealed checkpoint
       (unsupervised baseline gets EINVAL and carries on) *)
    (try ignore (Oshim.Shim.checkpoint sh) with Errno.Error _ -> ())
  done;
  Uapi.exit u 0

(* Units of work a kernel's service completed: the progress file's size. *)
let units k =
  match Fs.lookup (Kernel.fs k) "/progress" with
  | Ok ino -> Fs.size (Kernel.fs k) ino
  | Error _ -> 0

(* Uncloaked noise: memory pressure so the service's cloaked pages cycle
   through swap, and disk traffic so block-device faults have targets. *)
let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "public-soak-noise-nothing-hidden" in
  Uapi.mkdir u "/pub";
  for i = 0 to 2 do
    let fd = Uapi.openf u (Printf.sprintf "/pub/n%d" i) [ Abi.O_CREAT; Abi.O_RDWR ] in
    for _ = 1 to 3 do
      Uapi.write_bytes u ~fd public
    done;
    Uapi.close u fd
  done;
  let vpn = Uapi.mmap u ~pages:40 () in
  let base = Addr.vaddr_of_vpn vpn in
  for pass = 0 to 2 do
    for i = 0 to 39 do
      Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) ((pass + i) land 0xff)
    done;
    Uapi.compute u ~cycles:150_000
  done;
  Uapi.exit u 0

(* Tight guest memory (forces swap of cloaked pages) and a journal so seal
   generations are anchored. *)
let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
    journal_blocks = 16;
    journal_ckpt_every = 24;
  }

let policy =
  { Kernel.restart_budget = 8; backoff_cycles = 20_000 }

(* --- fault plans ---

   The base is the chaos generator's random plan, minus two rule classes:
   Crash_point never appears there, Seal_write/Restore rules are dropped
   because the harness itself unseals checkpoints after the run to prove
   the stale-rollback invariant, and an armed blob-tamper rule firing on
   that probe would blur "stale" into "forged" (both paths are covered
   deterministically by the seal tests and the attack suite). On top ride
   2-4 recurring lethal rules — IV-reuse, ciphertext bit-flips on the DMA
   paths, a possible allocator exhaustion — that reliably kill the service
   mid-run, which is the whole point of the soak. *)
let soak_plan ~seed =
  let base = Inject.random_plan ~seed in
  let keep (r : Inject.rule) =
    match r.site with Inject.Seal_write | Inject.Restore -> false | _ -> true
  in
  let r = Oscrypto.Prng.create ~seed:(seed lxor 0x50AC) in
  let lethal _ =
    let trigger =
      {
        Inject.start = 5 + Oscrypto.Prng.int r 40;
        every = 10 + Oscrypto.Prng.int r 25;
        count = 3 + Oscrypto.Prng.int r 4;
      }
    in
    match Oscrypto.Prng.int r 3 with
    | 0 -> { Inject.site = Inject.Crypto_iv; trigger; action = Inject.Reuse_iv }
    | 1 ->
        { Inject.site = Inject.Phys_write; trigger;
          action = Inject.Bit_flip (Oscrypto.Prng.int r 4096) }
    | _ ->
        { Inject.site = Inject.Blk_read; trigger;
          action = Inject.Bit_flip (Oscrypto.Prng.int r 4096) }
  in
  let lethals = List.init (2 + Oscrypto.Prng.int r 3) lethal in
  let oom =
    if Oscrypto.Prng.int r 4 = 0 then
      [ { Inject.site = Inject.Phys_alloc;
          trigger = Inject.once ~at:(60 + Oscrypto.Prng.int r 200);
          action = Inject.Exhaust } ]
    else []
  in
  Inject.plan ~seed (List.filter keep base.Inject.rules @ lethals @ oom)

(* --- one run --- *)

type run = {
  units : int;
  restarts : int;
  circuit_breaks : int;
  checkpoints : int;
  recovery_cycles : int;
  stats : Kernel.supervision_stats option;
  st : Stack.t;  (* kept for the hot spots and the stale-rollback probes *)
  obs : Stack.obs;
}

let run_once ~plan ~seed ~supervised =
  let ({ Stack.vmm; k; _ } as st) =
    Stack.boot ~engine:(Inject.create plan) ~salt:0xC4A05 ~seed kconfig
  in
  let service = service ~rounds ~unit_cycles ~vault:true in
  let service_pid =
    if supervised then Kernel.spawn_supervised k ~policy service
    else Kernel.spawn k ~cloaked:true service
  in
  ignore (Kernel.spawn k antagonist);
  let crash = Stack.run st in
  let units = units k in
  let stats = Kernel.supervision_stats k ~pid:service_pid in
  let counters = Cloak.Vmm.counters vmm in
  {
    units;
    restarts = counters.restarts;
    circuit_breaks = counters.circuit_breaks;
    checkpoints = counters.seal_checkpoints;
    recovery_cycles = (match stats with Some s -> s.sup_recovery_cycles | None -> 0);
    stats;
    st;
    obs = Stack.observe ~canary ~wire:[] ~crash [ ("", st) ];
  }

(* --- invariants --- *)

(* 1: privacy across restarts — beyond the stack's own surfaces, the
   canary is never inside the sealed checkpoint blobs the OS stores. *)
let check_blobs r =
  match r.stats with
  | None -> []
  | Some s ->
      List.filter_map
        (fun (name, blob) ->
          match blob with
          | Some b when Stack.contains_pattern canary b ->
              Some (Printf.sprintf "plaintext canary inside %s checkpoint blob" name)
          | _ -> None)
        [ ("last", s.Kernel.sup_last_checkpoint); ("prev", s.Kernel.sup_prev_checkpoint) ]

(* 2: no stale-checkpoint acceptance — offering the previous (validly
   MAC'd) checkpoint back to the VMM must raise Stale_checkpoint, while
   the latest one still unseals. *)
let check_stale r =
  match r.stats with
  | None -> []
  | Some s -> (
      let fails = ref [] in
      (match s.Kernel.sup_prev_checkpoint with
      | None -> ()
      | Some prev -> (
          match Cloak.Seal.unseal r.st.vmm prev with
          | _ -> fails := "stale checkpoint unsealed without a violation" :: !fails
          | exception Cloak.Violation.Security_fault v ->
              if v.Cloak.Violation.kind <> Cloak.Violation.Stale_checkpoint then
                fails :=
                  Printf.sprintf "stale checkpoint raised %s, not stale-checkpoint"
                    (Cloak.Violation.kind_to_string v.Cloak.Violation.kind)
                  :: !fails));
      (match s.Kernel.sup_last_checkpoint with
      | None -> ()
      | Some last -> (
          match Cloak.Seal.unseal r.st.vmm last with
          | _ -> ()
          | exception Cloak.Violation.Security_fault v ->
              fails :=
                Printf.sprintf "latest checkpoint refused (%s)"
                  (Cloak.Violation.kind_to_string v.Cloak.Violation.kind)
                :: !fails));
      !fails)

(* --- many seeds --- *)

type seed_report = {
  seed : int;
  units_ff : int;
  units_sup : int;
  units_unsup : int;
  restarts : int;
  circuit_breaks : int;
  checkpoints : int;
  recovery_cycles : int;
  audit_dropped : int;
  trace_dropped : int;
  hot_spots : (string * int) list;
  failures : string list;
}

let run_seed ~seed =
  let fault_free = run_once ~plan:(Inject.plan ~seed []) ~seed ~supervised:true in
  let plan = soak_plan ~seed in
  let sup = run_once ~plan ~seed ~supervised:true in
  let sup' = run_once ~plan ~seed ~supervised:true in
  let unsup = run_once ~plan ~seed ~supervised:false in
  let runs =
    [ ("fault-free", fault_free); ("supervised", sup); ("supervised replay", sup');
      ("unsupervised", unsup) ]
  in
  (* before the stale probe below unseals on the supervised VMM *)
  let hot_spots = Stack.hot_spots ~root:"soak-sup" sup.st in
  (* every run: no escape, no canary on the stack's surfaces or in the
     sealed blobs, trace invariants; then the stale-checkpoint probe and
     determinism — same seed, same mode, bit-identical audit *)
  let failures =
    List.concat_map
      (fun (mode, r) ->
        List.map (Printf.sprintf "%s: %s" mode) (Stack.failures r.obs @ check_blobs r))
      runs
    @ check_stale sup
    @ Option.to_list (Stack.replay sup.obs sup'.obs)
  in
  let worst f = List.fold_left (fun acc (_, r) -> max acc (f r.obs)) 0 runs in
  {
    seed;
    units_ff = fault_free.units;
    units_sup = sup.units;
    units_unsup = unsup.units;
    restarts = sup.restarts;
    circuit_breaks = sup.circuit_breaks;
    checkpoints = sup.checkpoints;
    recovery_cycles = sup.recovery_cycles;
    audit_dropped = worst (fun o -> o.audit_dropped);
    trace_dropped = worst (fun o -> o.trace_dropped);
    hot_spots;
    failures;
  }

let failures r = r.failures

let name = "soak"
let bench_name = "availability"
let doc = "supervised availability soak under sustained lethal fault plans"
let default_seeds = 20

let held =
  "all invariants held: privacy across restarts, no stale-checkpoint acceptance, \
   deterministic audit"

(* Beyond the per-seed invariants, the sweep must show the plans bit
   (restarts, sealed checkpoints) and supervision strictly beating its
   absence on total useful work — the soak's reason to exist. *)
let summary reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let mean_pct num =
    let pcts =
      List.filter_map
        (fun r ->
          if r.units_ff = 0 then None
          else Some (100.0 *. float_of_int (num r) /. float_of_int r.units_ff))
        reports
    in
    match pcts with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let seeds = List.length reports in
  let avail_sup = mean_pct (fun r -> r.units_sup) in
  let avail_unsup = mean_pct (fun r -> r.units_unsup) in
  let restarts = sum (fun r -> r.restarts) in
  let mttr =
    if restarts = 0 then 0.0
    else float_of_int (sum (fun r -> r.recovery_cycles)) /. float_of_int restarts
  in
  let breaks = sum (fun r -> r.circuit_breaks) in
  let checkpoints = sum (fun r -> r.checkpoints) in
  let units_sup = sum (fun r -> r.units_sup) in
  let units_unsup = sum (fun r -> r.units_unsup) in
  {
    Sweep.lines =
      [ Printf.sprintf
          "soak: %d seeds, availability %.1f%% supervised vs %.1f%% unsupervised, MTTR \
           %.0f cycles, %d restarts, %d circuit-breaks, %d failures"
          seeds avail_sup avail_unsup mttr restarts breaks
          (sum (fun r -> List.length r.failures));
        Printf.sprintf
          "  useful work: %d units supervised vs %d unsupervised, %d checkpoints sealed"
          units_sup units_unsup checkpoints ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("rounds_per_run", Report.Int rounds);
        ("availability_supervised", Report.Float avail_sup);
        ("availability_unsupervised", Report.Float avail_unsup);
        ("mttr_cycles", Report.Float mttr);
        ("restarts", Report.Int restarts);
        ("circuit_breaks", Report.Int breaks);
        ("checkpoints", Report.Int checkpoints);
        ("units_supervised", Report.Int units_sup);
        ("units_unsupervised", Report.Int units_unsup) ];
    failures =
      (if restarts = 0 then [ "the fault plans never restarted the service" ] else [])
      @ (if checkpoints = 0 then [ "no checkpoint was ever sealed" ] else [])
      @
      if units_sup > units_unsup then []
      else
        [ Printf.sprintf "supervision did not beat its absence (%d units vs %d)" units_sup
            units_unsup ];
  }

let pp_seed_report ppf r =
  Format.fprintf ppf "seed %d: ff=%d sup=%d unsup=%d restarts=%d breaks=%d ckpts=%d%s%s"
    r.seed r.units_ff r.units_sup r.units_unsup r.restarts r.circuit_breaks
    r.checkpoints
    (if r.audit_dropped > 0 then
       Printf.sprintf " audit-dropped=%d" r.audit_dropped
     else "")
    (match r.failures with
    | [] -> ""
    | l -> " FAIL " ^ String.concat "; " l);
  Stack.pp_hot_spots ~trace_dropped:r.trace_dropped ppf r.hot_spots
