(* Workload-level tests: every kernel is deterministic, produces identical
   results cloaked and native (cloaking is transparent!), and the three
   application workloads run to successful completion in both modes. *)

let run_kernel ~cloaked (k : Workloads.Spec.kernel) =
  let checksum = ref 0 in
  let r =
    Harness.run_program ~cloaked (fun env ->
        checksum := k.Workloads.Spec.run (Uapi.of_env env) ~scale:1)
  in
  Alcotest.(check bool) (k.Workloads.Spec.name ^ " exits 0") true (Harness.all_exited_zero r);
  (!checksum, r.Harness.cycles)

let test_kernel_deterministic (k : Workloads.Spec.kernel) () =
  let sum1, cycles1 = run_kernel ~cloaked:false k in
  let sum2, cycles2 = run_kernel ~cloaked:false k in
  Alcotest.(check int) "checksum stable" sum1 sum2;
  Alcotest.(check int) "cycles stable" cycles1 cycles2

let test_kernel_cloaking_transparent (k : Workloads.Spec.kernel) () =
  let native_sum, native_cycles = run_kernel ~cloaked:false k in
  let cloaked_sum, cloaked_cycles = run_kernel ~cloaked:true k in
  Alcotest.(check int) "same result" native_sum cloaked_sum;
  Alcotest.(check bool) "cloaked costs more" true (cloaked_cycles > native_cycles);
  (* ...but not catastrophically more: this is the paper's headline *)
  Alcotest.(check bool) "overhead under 25%" true
    (float_of_int cloaked_cycles < 1.25 *. float_of_int native_cycles)

let test_webserver ~cloaked () =
  let cfg = { Workloads.Webserver.default with requests = 10 } in
  let r = Harness.run_program (Workloads.Webserver.run cfg ~cloak_server:cloaked) in
  Alcotest.(check bool) "all processes exit 0" true (Harness.all_exited_zero r);
  Alcotest.(check bool) "no violations" true (r.Harness.violations = [])

let test_kvstore ~cloaked () =
  let cfg = { Workloads.Kvstore.default with operations = 30 } in
  let r = Harness.run_program (Workloads.Kvstore.run cfg ~cloak_server:cloaked) in
  Alcotest.(check bool) "all processes exit 0" true (Harness.all_exited_zero r)

let test_fileio ~cloaked () =
  let cfg = { Workloads.Fileio.default with operations = 120 } in
  let r = Harness.run_program ~cloaked (Workloads.Fileio.run cfg ~use_shim:true) in
  Alcotest.(check bool) "exit 0 (no corruption)" true (Harness.all_exited_zero r)

let test_build ~cloak_workers () =
  let cfg = { Workloads.Buildsim.default with modules = 3 } in
  let r = Harness.run_program (Workloads.Buildsim.driver cfg ~cloak_workers) in
  Alcotest.(check bool) "exit 0 (objects verified)" true (Harness.all_exited_zero r)

(* --- membuf --- *)

let test_membuf_roundtrip () =
  let r =
    Harness.run_program (fun env ->
        let u = Uapi.of_env env in
        let m = Workloads.Membuf.alloc u ~elems:100 in
        for i = 0 to 99 do
          Workloads.Membuf.set m i (i * i * 31)
        done;
        for i = 0 to 99 do
          if Workloads.Membuf.get m i <> i * i * 31 then Uapi.exit u 1
        done;
        (* negative values survive the 64-bit encoding *)
        Workloads.Membuf.set m 0 (-42);
        if Workloads.Membuf.get m 0 <> -42 then Uapi.exit u 2)
  in
  Alcotest.(check bool) "ok" true (Harness.all_exited_zero r)

let test_membuf_bounds () =
  let r =
    Harness.run_program (fun env ->
        let u = Uapi.of_env env in
        let m = Workloads.Membuf.alloc u ~elems:4 in
        match Workloads.Membuf.get m 4 with
        | _ -> Uapi.exit u 1
        | exception Invalid_argument _ -> Uapi.exit u 0)
  in
  Alcotest.(check bool) "bounds checked" true (Harness.all_exited_zero r)

(* --- harness determinism --- *)

let test_harness_determinism () =
  let go () =
    let r = Harness.run_program ~cloaked:true (Workloads.Fileio.run
              { Workloads.Fileio.default with operations = 50 } ~use_shim:true) in
    r.Harness.cycles
  in
  Alcotest.(check int) "two identical runs, identical cycles" (go ()) (go ())

(* every experiment-table row relies on the runner refusing a failed run *)
let test_time_program_failure () =
  Alcotest.check_raises "raises, naming the workload"
    (Invalid_argument "exit-3: a process exited non-zero")
    (fun () -> ignore (Harness.time_program ~name:"exit-3" (fun u () -> Uapi.exit u 3)))

let test_table_formatting () =
  Alcotest.(check string) "ratio" "2.50x" (Harness.Table.ratio 2 5);
  Alcotest.(check string) "ratio div0" "n/a" (Harness.Table.ratio 0 5);
  Alcotest.(check string) "overhead" "+50.0%" (Harness.Table.percent_overhead ~base:100 150);
  Alcotest.(check string) "negative overhead" "-25.0%"
    (Harness.Table.percent_overhead ~base:100 75);
  Alcotest.(check string) "kcy" "1.5 kcy" (Harness.Table.cycles 1500);
  Alcotest.(check string) "Mcy" "2.50 Mcy" (Harness.Table.cycles 2_500_000);
  Alcotest.(check string) "Gcy" "1.00 Gcy" (Harness.Table.cycles 1_000_000_000)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workloads"
    [
      ( "spec determinism",
        List.map
          (fun k -> quick k.Workloads.Spec.name (test_kernel_deterministic k))
          Workloads.Spec.kernels );
      ( "spec cloaking transparency",
        List.map
          (fun k -> quick k.Workloads.Spec.name (test_kernel_cloaking_transparent k))
          Workloads.Spec.kernels );
      ( "applications",
        [
          quick "webserver native" (test_webserver ~cloaked:false);
          quick "webserver cloaked" (test_webserver ~cloaked:true);
          quick "kvstore native" (test_kvstore ~cloaked:false);
          quick "kvstore cloaked" (test_kvstore ~cloaked:true);
          quick "fileio native" (test_fileio ~cloaked:false);
          quick "fileio cloaked" (test_fileio ~cloaked:true);
          quick "build native" (test_build ~cloak_workers:false);
          quick "build cloaked" (test_build ~cloak_workers:true);
        ] );
      ( "membuf",
        [ quick "roundtrip" test_membuf_roundtrip; quick "bounds" test_membuf_bounds ] );
      ( "harness",
        [
          quick "determinism" test_harness_determinism;
          quick "non-zero exit names the workload" test_time_program_failure;
          quick "table formatting" test_table_formatting;
        ] );
    ]
