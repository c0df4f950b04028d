(* Chaos harness: the three hostile-world invariants over many seeded
   fault plans, plus targeted checks of the containment machinery. *)

open Machine
open Guest

let chaos_seeds = Harness.Sweep.seeds_from ~base:1 ~count:30

(* Each seed runs twice inside [run_seed] (determinism check), so this is
   60 full-stack runs under 30 distinct fault plans, shared by the two
   tests below. *)
let chaos_reports =
  lazy (List.map (fun seed -> Harness.Chaos.run_seed ~seed) chaos_seeds)

let test_invariants () =
  let reports = Lazy.force chaos_reports in
  let failures =
    List.concat_map
      (fun (r : Harness.Chaos.report) -> List.map (fun f -> (r.seed, f)) r.failures)
      reports
  in
  Alcotest.(check (list (pair int string))) "no invariant failures" [] failures;
  Alcotest.(check bool) "the fault plans actually fired" true
    (List.exists (fun (r : Harness.Chaos.report) -> r.injections > 0) reports)

(* At least some plans must push the stack hard enough that containment
   does real work; otherwise the harness proves nothing. A seed's report
   is its first run's, so it carries that run's counts. *)
let test_chaos_exercises_containment () =
  let hits =
    List.filter
      (fun (r : Harness.Chaos.report) -> r.contained > 0 || r.injections > 0)
      (Lazy.force chaos_reports)
  in
  Alcotest.(check bool) "most seeds injected or contained something" true
    (List.length hits > List.length chaos_seeds / 2)

let test_determinism_audit_exact () =
  (* beyond run_seed's pairwise check: a third run still matches, and the
     audit survives being compared line by line *)
  let seed = 20260806 in
  let a = Harness.Chaos.run_once ~seed in
  let b = Harness.Chaos.run_once ~seed in
  Alcotest.(check (list string)) "same seed, same audit" a.audit b.audit;
  Alcotest.(check int) "same seed, same injections" a.injections b.injections;
  Alcotest.(check (list (pair int (option int)))) "same exits" a.exit_statuses
    b.exit_statuses

let test_different_seeds_differ () =
  let plans_distinct =
    List.exists
      (fun s ->
        (Harness.Chaos.run_once ~seed:s).audit
        <> (Harness.Chaos.run_once ~seed:(s + 1)).audit)
      [ 3; 17 ]
  in
  Alcotest.(check bool) "different seeds explore different behaviour" true
    plans_distinct

(* --- targeted containment checks (single-fault plans) --- *)

let run_under rules prog =
  let engine = Inject.create (Inject.plan rules) in
  Harness.run_program ~engine ~cloaked:true prog

(* A transient device error must be retried and hidden from the program. *)
let test_transient_io_retried () =
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    let data = Bytes.of_string "retry-me-please-all-the-way" in
    let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
    Uapi.write_bytes u ~fd data;
    Uapi.close u fd;
    Uapi.sync u;
    Uapi.exit u 0
  in
  let r =
    run_under
      [ { Inject.site = Blk_write; trigger = Inject.once ~at:1; action = Io_error } ]
      prog
  in
  Alcotest.(check bool) "process exits 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "a retry was recorded" true (r.counters.io_retries > 0)

(* A persistent device error must surface as EIO, not a crash. *)
let test_persistent_io_is_eio () =
  let saw_eio = ref false in
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    let fd = Uapi.openf u "/f" [ Abi.O_CREAT; Abi.O_RDWR ] in
    Uapi.write_bytes u ~fd (Bytes.of_string "doomed");
    Uapi.close u fd;
    (try Uapi.sync u with Errno.Error EIO -> saw_eio := true);
    Uapi.exit u 0
  in
  let r =
    run_under
      [ { Inject.site = Blk_write; trigger = Inject.always; action = Io_error } ]
      prog
  in
  Alcotest.(check bool) "process exits 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "EIO surfaced" true !saw_eio

(* Machine-memory exhaustion inside a syscall surfaces as ENOMEM; the same
   exhaustion on a bare user-memory touch OOM-kills the process with 137.
   The run is deterministic, so a calibration run of the fork-free prefix
   tells us exactly which allocation count arms the fault inside fork. *)
let test_exhaustion_is_enomem () =
  let prefix u =
    let vaddr = Uapi.malloc u (4 * Addr.page_size) in
    for i = 0 to 3 do
      Uapi.store_byte u ~vaddr:(vaddr + (i * Addr.page_size)) 1
    done
  in
  let calibration (env : Abi.env) =
    let u = Uapi.of_env env in
    prefix u;
    Uapi.exit u 0
  in
  let probe = Inject.create (Inject.plan []) in
  ignore (Harness.run_program ~engine:probe ~cloaked:true calibration);
  let allocs = Inject.occurrences probe Inject.Phys_alloc in
  let saw = ref false in
  let prog (env : Abi.env) =
    let u = Uapi.of_env env in
    prefix u;
    (try ignore (Uapi.fork u ~child:(fun env' -> Uapi.exit (Uapi.of_env env') 0))
     with Errno.Error ENOMEM -> saw := true);
    Uapi.exit u (if !saw then 0 else 3)
  in
  let r =
    run_under
      [
        {
          Inject.site = Phys_alloc;
          trigger = { start = allocs + 1; every = 1; count = max_int };
          action = Exhaust;
        };
      ]
      prog
  in
  Alcotest.(check bool) "ENOMEM surfaced" true !saw;
  Alcotest.(check bool) "caller survived the failed fork" true
    (Harness.all_exited_zero r);
  (* and the user-touch flavour: exhaustion while materializing a page the
     program is writing directly OOM-kills it with the distinct status *)
  let toucher (env : Abi.env) =
    let u = Uapi.of_env env in
    let vpn = Uapi.mmap u ~pages:64 () in
    let base = Addr.vaddr_of_vpn vpn in
    for i = 0 to 63 do
      Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) 1
    done;
    Uapi.exit u 0
  in
  let r2 =
    run_under
      [
        {
          Inject.site = Phys_alloc;
          trigger = { start = allocs + 1; every = 1; count = max_int };
          action = Exhaust;
        };
      ]
      toucher
  in
  match r2.exit_statuses with
  | [ (_, status) ] ->
      Alcotest.(check (option int)) "OOM-killed with 137" (Some 137) status
  | _ -> Alcotest.fail "expected one process"

(* A security fault raised from a syscall path (here: a tampered metadata
   import inside the shim's protected-file open) must kill only the owning
   cloaked process with the distinct -2 status, quarantine the resource,
   and leave the rest of the guest running. *)
let test_syscall_path_containment () =
  let engine =
    Inject.create
      (Inject.plan
         [ { Inject.site = Meta_import; trigger = Inject.always; action = Bit_flip 7 } ])
  in
  let r =
    Harness.run ~engine
      ~spawn:(fun k ->
        let victim =
          Kernel.spawn k ~cloaked:true (fun env ->
              let u = Uapi.of_env env in
              let sh = Oshim.Shim.install u in
              let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:1 in
              Oshim.Shim_io.write sh f ~pos:0
                (Bytes.of_string Harness.Chaos.secret);
              Oshim.Shim_io.save sh f;
              Oshim.Shim_io.close sh f;
              (* re-open: the import sees bit-flipped metadata *)
              let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
              ignore (Oshim.Shim_io.read sh f2 ~pos:0 ~len:8);
              Uapi.exit u 0)
        in
        let bystander =
          Kernel.spawn k (fun env ->
              let u = Uapi.of_env env in
              Uapi.compute u ~cycles:100_000;
              Uapi.exit u 0)
        in
        [ victim; bystander ])
      ()
  in
  (match r.exit_statuses with
  | [ (_, victim_status); (_, bystander_status) ] ->
      Alcotest.(check (option int)) "victim killed with security status"
        (Some (-2)) victim_status;
      Alcotest.(check (option int)) "bystander unaffected" (Some 0)
        bystander_status
  | _ -> Alcotest.fail "expected two processes");
  Alcotest.(check bool) "violation recorded" true (r.violations <> []);
  (* No quarantine here, deliberately: the tampered blob fails
     authentication before its resource name can be trusted, so the VMM
     refuses to condemn a resource on the attacker's say-so. Quarantine
     on authenticated-resource violations is covered in test_cloak. *)
  let contains_sub line sub =
    let n = String.length sub and len = String.length line in
    let rec go i =
      i + n <= len && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "audit saw the violation" true
    (List.exists (fun line -> contains_sub line "violation") r.audit);
  Alcotest.(check bool) "audit saw the injection" true
    (List.exists (fun line -> contains_sub line "inject") r.audit)

let () =
  Alcotest.run "chaos"
    [
      ( "invariants",
        [
          Alcotest.test_case "30 seeded fault plans" `Slow test_invariants;
          Alcotest.test_case "plans exercise the stack" `Slow
            test_chaos_exercises_containment;
          Alcotest.test_case "audit replay is exact" `Quick
            test_determinism_audit_exact;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
        ] );
      ( "containment",
        [
          Alcotest.test_case "transient IO retried" `Quick test_transient_io_retried;
          Alcotest.test_case "persistent IO is EIO" `Quick test_persistent_io_is_eio;
          Alcotest.test_case "exhaustion is ENOMEM" `Quick test_exhaustion_is_enomem;
          Alcotest.test_case "syscall-path security fault contained" `Quick
            test_syscall_path_containment;
        ] );
    ]
