(* E1, E3-E8: the experiment harness that regenerates each table/figure of
   the reproduction (E2 lives in Micro). All numbers are deterministic model
   cycles; the paper's claims are about ratios, which is what each table
   prints. *)

open Machine
open Guest

(* --- E1: compute-bound kernels --- *)

let run_kernel ~cloaked (k : Workloads.Spec.kernel) =
  let checksum = ref 0 in
  let cycles = ref 0 in
  let r =
    Harness.run_program ~cloaked (fun env ->
        let u = Uapi.of_env env in
        let vmm = (Uapi.env u).Abi.vmm in
        let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
        checksum := k.Workloads.Spec.run u ~scale:Workloads.Spec.default_scale;
        cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0)
  in
  if not (Harness.all_exited_zero r) then
    invalid_arg (Printf.sprintf "E1 kernel %s failed" k.Workloads.Spec.name);
  (!cycles, !checksum)

let e1 () =
  let rows =
    List.map
      (fun k ->
        let native_cycles, native_sum = run_kernel ~cloaked:false k in
        let cloaked_cycles, cloaked_sum = run_kernel ~cloaked:true k in
        if native_sum <> cloaked_sum then
          invalid_arg
            (Printf.sprintf "E1 kernel %s: cloaked checksum diverges" k.Workloads.Spec.name);
        [
          k.Workloads.Spec.name;
          Harness.Table.cycles native_cycles;
          Harness.Table.cycles cloaked_cycles;
          Harness.Table.percent_overhead ~base:native_cycles cloaked_cycles;
        ])
      Workloads.Spec.kernels
  in
  Harness.Table.print ~title:"E1: compute-bound kernels (SPEC-style)"
    ~note:"cloaking overhead on pure compute comes only from interrupt transfers and initial page faults"
    ~headers:[ "kernel"; "native"; "cloaked"; "overhead" ]
    rows

(* --- E3: application workloads --- *)

let run_webserver ~cloaked =
  let cfg = Workloads.Webserver.default in
  let r =
    Harness.run
      ~spawn:(fun k ->
        (* only the server is the protected application; the client plays
           the network load generator and stays uncloaked, as in the paper *)
        let main env =
          let u = Uapi.of_env env in
          Workloads.Webserver.populate u cfg;
          let req_r, req_w = Uapi.pipe u in
          let resp_r, resp_w = Uapi.pipe u in
          let _server =
            Uapi.fork u ~child:(fun senv ->
                let su = Uapi.of_env senv in
                Uapi.close su req_w;
                Uapi.close su resp_r;
                let image =
                  Workloads.Webserver.server cfg ~use_shim:true ~request_fd:req_r
                    ~response_fd:resp_w
                in
                if cloaked then Uapi.exec_cloaked su image else Uapi.exec su image)
          in
          Uapi.close u req_r;
          Uapi.close u resp_w;
          Workloads.Webserver.client cfg ~request_fd:req_w ~response_fd:resp_r env
        in
        [ Kernel.spawn k main ])
      ()
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E3 webserver failed";
  (r, cfg.Workloads.Webserver.requests)

let run_kvstore ~cloaked =
  let cfg = Workloads.Kvstore.default in
  let r =
    Harness.run
      ~spawn:(fun k ->
        let main env =
          let u = Uapi.of_env env in
          let req_r, req_w = Uapi.pipe u in
          let resp_r, resp_w = Uapi.pipe u in
          let _server =
            Uapi.fork u ~child:(fun senv ->
                let su = Uapi.of_env senv in
                Uapi.close su req_w;
                Uapi.close su resp_r;
                let image =
                  Workloads.Kvstore.server cfg ~use_shim:true ~request_fd:req_r
                    ~response_fd:resp_w
                in
                if cloaked then Uapi.exec_cloaked su image else Uapi.exec su image)
          in
          Uapi.close u req_r;
          Uapi.close u resp_w;
          Workloads.Kvstore.client cfg ~request_fd:req_w ~response_fd:resp_r env
        in
        [ Kernel.spawn k main ])
      ()
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E3 kvstore failed";
  (r, cfg.Workloads.Kvstore.operations)

let run_fileio ~cloaked =
  let cfg = Workloads.Fileio.default in
  let r = Harness.run_program ~cloaked (Workloads.Fileio.run cfg ~use_shim:true) in
  if not (Harness.all_exited_zero r) then invalid_arg "E3 fileio failed";
  (r, Workloads.Fileio.ops_done cfg)

let run_build ~cloaked =
  let cfg = Workloads.Buildsim.default in
  let r = Harness.run_program (Workloads.Buildsim.driver cfg ~cloak_workers:cloaked) in
  if not (Harness.all_exited_zero r) then invalid_arg "E3 build failed";
  (r, cfg.Workloads.Buildsim.modules)

let throughput ~units cycles = 1e9 *. float_of_int units /. float_of_int cycles

let e3_rows () =
  let apps =
    [
      ("webserver (req/Gcy)", fun ~cloaked -> run_webserver ~cloaked);
      ("kvstore (ops/Gcy)", fun ~cloaked -> run_kvstore ~cloaked);
      ("fileio (ops/Gcy)", fun ~cloaked -> run_fileio ~cloaked);
      ("build (modules/Gcy)", fun ~cloaked -> run_build ~cloaked);
    ]
  in
  List.map
    (fun (name, f) ->
      let rn, un = f ~cloaked:false in
      let rc, uc = f ~cloaked:true in
      let tn = throughput ~units:un rn.Harness.cycles in
      let tc = throughput ~units:uc rc.Harness.cycles in
      ( [
          name;
          Printf.sprintf "%.1f" tn;
          Printf.sprintf "%.1f" tc;
          Printf.sprintf "%+.1f%%" (100.0 *. ((tc /. tn) -. 1.0));
        ],
        (name, rc) ))
    apps

let e3 () =
  let rows = e3_rows () in
  Harness.Table.print ~title:"E3: application workloads (throughput)"
    ~note:"cloaked apps run with the shim; throughput in work units per Gcycle"
    ~headers:[ "application"; "native"; "cloaked"; "delta" ]
    (List.map fst rows);
  rows

(* A memory-pressure stressor for the decomposition table: with the
   working set twice the guest-physical pool, the kernel pages cloaked
   memory in and out continuously and every eviction/refault shows up as
   page crypto. *)
let run_swapstress () =
  let kconfig = { Kernel.default_config with guest_pages = 128 } in
  let r =
    Harness.run ~kconfig
      ~spawn:(fun k ->
        [
          Kernel.spawn k ~cloaked:true (fun env ->
              let u = Uapi.of_env env in
              let pages = 192 in
              let base = Uapi.malloc u (pages * Addr.page_size) in
              for pass = 1 to 3 do
                for p = 0 to pages - 1 do
                  Uapi.store_byte u ~vaddr:(base + (p * Addr.page_size)) (pass + p)
                done
              done);
        ])
      ()
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E4 swapstress failed";
  r

(* --- E4: overhead decomposition of the cloaked E3 runs --- *)

let e4 cloaked_runs =
  let fields (c : Counters.t) =
    [
      c.page_encryptions;
      c.page_decryptions;
      c.hidden_faults;
      c.guest_faults;
      c.world_switches;
      c.hypercalls;
      c.syscalls;
      c.context_switches;
      c.disk_reads + c.disk_writes;
    ]
  in
  let headers =
    [
      "workload"; "enc"; "dec"; "hidden flt"; "guest flt"; "world sw"; "hypercall";
      "syscalls"; "ctx sw"; "disk";
    ]
  in
  let rows =
    List.map
      (fun (name, (r : Harness.result)) ->
        name :: List.map string_of_int (fields r.counters))
      (cloaked_runs @ [ ("swap-stress (192p/128p)", run_swapstress ()) ])
  in
  Harness.Table.print ~title:"E4: overhead decomposition (cloaked runs)"
    ~note:"event counts over the whole cloaked run of each E3 workload"
    ~headers rows

(* --- E5: security evaluation --- *)

let e5 () =
  let rows =
    List.map
      (fun (o : Attacks.outcome) ->
        [
          o.name;
          (if o.leaked then "LEAKED" else "no");
          (if o.detected then "yes" else "no (by design)");
          (match o.violation with Some v -> v | None -> "-");
        ])
      (Attacks.run_all ())
  in
  Harness.Table.print ~title:"E5: malicious-OS attacks"
    ~note:"privacy holds unconditionally; integrity attacks must be detected"
    ~headers:[ "attack"; "plaintext leaked"; "detected"; "violation" ]
    rows

(* --- E6: multi-shadowing vs single-shadow context switching --- *)

let e6_run ~multi_shadow ~procs =
  let vconfig = { Cloak.Vmm.default_config with multi_shadow } in
  let rounds = 30 in
  let pages = 64 in
  let r =
    Harness.run ~vconfig
      ~spawn:(fun k ->
        List.init procs (fun _ ->
            Kernel.spawn k ~cloaked:true (fun env ->
                let u = Uapi.of_env env in
                let base = Uapi.malloc u (pages * Addr.page_size) in
                (* warm the working set *)
                for p = 0 to pages - 1 do
                  Uapi.store_byte u ~vaddr:(base + (p * Addr.page_size)) p
                done;
                for _ = 1 to rounds do
                  Uapi.touch u ~access:Fault.Read ~vaddr:base
                    ~len:(pages * Addr.page_size);
                  Uapi.yield u
                done)))
      ()
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E6 run failed";
  (* one slice = one process's turn between yields *)
  r.cycles / (rounds * procs)

let e6 () =
  let rows =
    List.map
      (fun procs ->
        let multi = e6_run ~multi_shadow:true ~procs in
        let single = e6_run ~multi_shadow:false ~procs in
        [
          string_of_int procs;
          string_of_int multi;
          string_of_int single;
          Harness.Table.ratio multi single;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Harness.Table.print ~title:"E6: scheduling-slice cost, multi-shadow vs single-shadow VMM"
    ~note:"cloaked processes touching a 64-page working set between yields; cycles per slice"
    ~headers:[ "processes"; "multi-shadow cy"; "single-shadow cy"; "penalty" ]
    rows

(* --- E7: cloaked file I/O designs across buffer sizes --- *)

let stream_bytes = 128 * 1024

let e7_naive chunk =
  (* write-only: without the shim, reads into cloaked buffers are fatal by
     design (see the shim tests), so the naive design can only stream out *)
  let cycles = ref 0 in
  let r =
    Harness.run_program ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let fd = Uapi.openf u "/out" [ Abi.O_CREAT; Abi.O_RDWR ] in
        let buf = Uapi.malloc u chunk in
        let vmm = (Uapi.env u).Abi.vmm in
        let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
        let sent = ref 0 in
        while !sent < stream_bytes do
          Uapi.store u ~vaddr:buf (Bytes.make chunk 'n');
          Uapi.write_exact u ~fd ~vaddr:buf ~len:chunk;
          sent := !sent + chunk
        done;
        cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0)
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E7 naive failed";
  !cycles

let e7_marshal chunk =
  let cycles = ref 0 in
  let r =
    Harness.run_program ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        ignore (Oshim.Shim.install u);
        let fd = Uapi.openf u "/out" [ Abi.O_CREAT; Abi.O_RDWR ] in
        let buf = Uapi.malloc u chunk in
        let vmm = (Uapi.env u).Abi.vmm in
        let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
        let sent = ref 0 in
        while !sent < stream_bytes do
          Uapi.store u ~vaddr:buf (Bytes.make chunk 'm');
          Uapi.write_exact u ~fd ~vaddr:buf ~len:chunk;
          sent := !sent + chunk
        done;
        cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0)
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E7 marshal failed";
  !cycles

let e7_mapped chunk =
  let cycles = ref 0 in
  let r =
    Harness.run_program ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let shim = Oshim.Shim.install u in
        let pages = (stream_bytes + Addr.page_size - 1) / Addr.page_size in
        let f = Oshim.Shim_io.create shim ~path:"/out" ~pages in
        let vmm = (Uapi.env u).Abi.vmm in
        let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
        let sent = ref 0 in
        while !sent < stream_bytes do
          Oshim.Shim_io.write shim f ~pos:!sent (Bytes.make chunk 'M');
          sent := !sent + chunk
        done;
        Oshim.Shim_io.save shim f;
        cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0)
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E7 mapped failed";
  !cycles

let e7 () =
  let mb_per_gcy cycles =
    1e9 *. (float_of_int stream_bytes /. 1048576.0) /. float_of_int cycles
  in
  let rows =
    List.map
      (fun chunk ->
        let naive = e7_naive chunk in
        let marshal = e7_marshal chunk in
        let mapped = e7_mapped chunk in
        [
          string_of_int chunk;
          Printf.sprintf "%.2f" (mb_per_gcy naive);
          Printf.sprintf "%.2f" (mb_per_gcy marshal);
          Printf.sprintf "%.2f" (mb_per_gcy mapped);
        ])
      [ 64; 256; 1024; 4096; 16384; 65536 ]
  in
  Harness.Table.print
    ~title:"E7: cloaked file write throughput by design (MiB per Gcycle, 128 KiB stream)"
    ~note:"naive = cloaked buffers straight to write(); marshal = shim bounce buffer; mapped = mmap-emulation adaptor + one save"
    ~headers:[ "chunk bytes"; "naive"; "shim marshal"; "mapped object" ]
    rows

(* --- E8: crypto cost model --- *)

let e8_model () =
  let m = Cost.default in
  let rows =
    List.map
      (fun size ->
        let enc = (m.Cost.aes_byte + m.Cost.sha_byte) * size in
        [
          string_of_int size;
          string_of_int enc;
          string_of_int (enc + m.Cost.hidden_fault);
        ])
      [ 1024; 2048; 4096; 8192; 16384 ]
  in
  Harness.Table.print ~title:"E8: page crypto cost model (cycles)"
    ~note:"AES-CTR + SHA-256 per buffer size; last column adds the hidden-fault handling cost"
    ~headers:[ "bytes"; "crypto cycles"; "with fault overhead" ]
    rows

(* --- E9: ablations over model knobs --- *)

(* Quantum sensitivity: every timer interrupt of cloaked code costs two VMM
   crossings plus a context scrub/restore, so the compute-bound overhead
   should fall roughly linearly as the quantum grows. *)
let e9_quantum () =
  let kernel = Workloads.Spec.find "bitops" in
  let overhead quantum =
    let kconfig = { Kernel.default_config with quantum } in
    let run ~cloaked =
      let cycles = ref 0 in
      let r =
        Harness.run ~kconfig
          ~spawn:(fun k ->
            [
              Kernel.spawn k ~cloaked (fun env ->
                  let u = Uapi.of_env env in
                  let vmm = (Uapi.env u).Abi.vmm in
                  let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
                  ignore (kernel.Workloads.Spec.run u ~scale:1);
                  cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0);
            ])
          ()
      in
      if not (Harness.all_exited_zero r) then invalid_arg "E9 run failed";
      !cycles
    in
    let native = run ~cloaked:false in
    let cloaked = run ~cloaked:true in
    (native, cloaked)
  in
  let rows =
    List.map
      (fun quantum ->
        let native, cloaked = overhead quantum in
        [
          string_of_int quantum;
          Harness.Table.cycles native;
          Harness.Table.cycles cloaked;
          Harness.Table.percent_overhead ~base:native cloaked;
        ])
      [ 50_000; 100_000; 200_000; 400_000; 800_000 ]
  in
  Harness.Table.print ~title:"E9a: cloaked compute overhead vs timer quantum (bitops)"
    ~note:"shorter quanta mean more cloaked interrupt transfers per unit of work"
    ~headers:[ "quantum (cy)"; "native"; "cloaked"; "overhead" ]
    rows

(* TLB reach: the multi-shadow design keeps shadow tables warm, but TLB
   capacity still bounds the fast path; sweep TLB size under the E6
   workload shape. *)
let e9_tlb () =
  let run ~tlb_slots =
    let vconfig = { Cloak.Vmm.default_config with tlb_slots } in
    let rounds = 30 and pages = 64 and procs = 4 in
    let r =
      Harness.run ~vconfig
        ~spawn:(fun k ->
          List.init procs (fun _ ->
              Kernel.spawn k ~cloaked:true (fun env ->
                  let u = Uapi.of_env env in
                  let base = Uapi.malloc u (pages * Addr.page_size) in
                  for p = 0 to pages - 1 do
                    Uapi.store_byte u ~vaddr:(base + (p * Addr.page_size)) p
                  done;
                  for _ = 1 to rounds do
                    Uapi.touch u ~access:Fault.Read ~vaddr:base
                      ~len:(pages * Addr.page_size);
                    Uapi.yield u
                  done)))
        ()
    in
    if not (Harness.all_exited_zero r) then invalid_arg "E9 tlb run failed";
    (r.cycles / (rounds * procs), r.counters.Counters.tlb_misses)
  in
  let rows =
    List.map
      (fun slots ->
        let per_slice, misses = run ~tlb_slots:slots in
        [ string_of_int slots; string_of_int per_slice; string_of_int misses ])
      [ 64; 128; 256; 512; 1024 ]
  in
  Harness.Table.print ~title:"E9b: TLB size vs per-slice cost (4 cloaked procs, 64-page sets)"
    ~note:"the multi-shadow fast path is bounded by TLB reach"
    ~headers:[ "tlb slots"; "cycles/slice"; "tlb misses" ]
    rows

let e9 () =
  e9_quantum ();
  e9_tlb ()

(* --- E10: the read-only plaintext optimization (ablation) --- *)

(* A read-mostly pattern: the app fills a buffer once, then repeatedly
   alternates reading it (decrypt) with letting the kernel view it (a
   write() syscall from the buffer, no shim). With the optimization,
   every re-encryption after the first is deterministic and MAC-free. *)
let e10_run ~clean_reencrypt =
  let vconfig = { Cloak.Vmm.default_config with clean_reencrypt } in
  let pages = 8 in
  let rounds = 20 in
  let cycles = ref 0 in
  let r =
    Harness.run ~vconfig
      ~spawn:(fun k ->
        [
          Kernel.spawn k ~cloaked:true (fun env ->
              let u = Uapi.of_env env in
              let fd = Uapi.openf u "/out" [ Abi.O_CREAT; Abi.O_RDWR ] in
              let len = pages * Addr.page_size in
              let buf = Uapi.malloc u len in
              Uapi.store u ~vaddr:buf (Bytes.make len 'r');
              let vmm = (Uapi.env u).Abi.vmm in
              let c0 = Cost.cycles (Cloak.Vmm.cost vmm) in
              for _ = 1 to rounds do
                (* the app scans its data read-only... *)
                Uapi.touch u ~access:Fault.Read ~vaddr:buf ~len;
                (* ...then the kernel copies it out *)
                ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
                Uapi.write_exact u ~fd ~vaddr:buf ~len
              done;
              cycles := Cost.cycles (Cloak.Vmm.cost vmm) - c0);
        ])
      ()
  in
  if not (Harness.all_exited_zero r) then invalid_arg "E10 run failed";
  (!cycles, r.counters)

let e10 () =
  let on_cycles, on_c = e10_run ~clean_reencrypt:true in
  let off_cycles, off_c = e10_run ~clean_reencrypt:false in
  Harness.Table.print
    ~title:"E10: read-only plaintext optimization (read-mostly cloaked I/O)"
    ~note:"20 rounds of scan-then-write() over an 8-page buffer, no shim"
    ~headers:[ "design"; "cycles"; "fresh enc"; "clean re-enc"; "dec"; "speedup" ]
    [
      [
        "optimization on";
        Harness.Table.cycles on_cycles;
        string_of_int on_c.Counters.page_encryptions;
        string_of_int on_c.Counters.clean_reencryptions;
        string_of_int on_c.Counters.page_decryptions;
        "1.00x";
      ];
      [
        "optimization off";
        Harness.Table.cycles off_cycles;
        string_of_int off_c.Counters.page_encryptions;
        string_of_int off_c.Counters.clean_reencryptions;
        string_of_int off_c.Counters.page_decryptions;
        Harness.Table.ratio on_cycles off_cycles;
      ];
    ]
