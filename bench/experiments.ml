(* E1, E3-E10: the experiment harness that regenerates each table/figure of
   the reproduction (E2 lives in Micro). Every row runs one program through
   Harness.time_program (a timed section inside the process) or, for
   whole-run rows, Harness.run_program/run under Harness.checked. All
   numbers are deterministic model cycles; the paper's claims are about
   ratios, which is what each table prints. *)

open Machine
open Guest

(* --- E1: compute-bound kernels --- *)

(* The model cycles of the kernel call alone, and its checksum. *)
let run_kernel ?kconfig ~scale ~cloaked (k : Workloads.Spec.kernel) =
  let checksum = ref 0 in
  let cycles, _ =
    Harness.time_program ?kconfig ~cloaked ~name:("kernel " ^ k.Workloads.Spec.name)
      (fun u () -> checksum := k.Workloads.Spec.run u ~scale)
  in
  (cycles, !checksum)

let e1 () =
  let rows =
    List.map
      (fun k ->
        let scale = Workloads.Spec.default_scale in
        let native_cycles, native_sum = run_kernel ~scale ~cloaked:false k in
        let cloaked_cycles, cloaked_sum = run_kernel ~scale ~cloaked:true k in
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

let throughput ~units cycles = 1e9 *. float_of_int units /. float_of_int cycles

let e3_rows () =
  let web = Workloads.Webserver.default and kv = Workloads.Kvstore.default in
  let fio = Workloads.Fileio.default and build = Workloads.Buildsim.default in
  (* only the webserver's and the kvstore's server is the protected
     application; their client plays the network load generator and stays
     uncloaked, as in the paper *)
  let apps =
    [
      ( "webserver (req/Gcy)",
        web.Workloads.Webserver.requests,
        fun cloaked ->
          Harness.run_program (Workloads.Webserver.run web ~cloak_server:cloaked) );
      ( "kvstore (ops/Gcy)",
        kv.Workloads.Kvstore.operations,
        fun cloaked ->
          Harness.run_program (Workloads.Kvstore.run kv ~cloak_server:cloaked) );
      ( "fileio (ops/Gcy)",
        Workloads.Fileio.ops_done fio,
        fun cloaked ->
          Harness.run_program ~cloaked (Workloads.Fileio.run fio ~use_shim:true) );
      ( "build (modules/Gcy)",
        build.Workloads.Buildsim.modules,
        fun cloaked ->
          Harness.run_program (Workloads.Buildsim.driver build ~cloak_workers:cloaked) );
    ]
  in
  List.map
    (fun (name, units, run) ->
      let rn = Harness.checked ~name (run false) in
      let rc = Harness.checked ~name (run true) in
      let tn = throughput ~units rn.Harness.cycles in
      let tc = throughput ~units rc.Harness.cycles in
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
  let pages = 192 in
  Harness.checked ~name:"swap-stress"
    (Harness.run_program
       ~kconfig:{ Kernel.default_config with guest_pages = 128 }
       ~cloaked:true
       (fun env ->
         let u = Uapi.of_env env in
         let base = Uapi.malloc u (pages * Addr.page_size) in
         for pass = 1 to 3 do
           for p = 0 to pages - 1 do
             Uapi.store_byte u ~vaddr:(base + (p * Addr.page_size)) (pass + p)
           done
         done))

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

(* [procs] cloaked processes, each warming a 64-page working set and then
   touching it between yields for 30 rounds. Returns the cycles of one
   slice (one process's turn between yields) and the run's counters. *)
let slices vconfig ~procs =
  let rounds = 30 and pages = 64 in
  let slice env =
    let u = Uapi.of_env env in
    let base = Uapi.malloc u (pages * Addr.page_size) in
    for p = 0 to pages - 1 do
      Uapi.store_byte u ~vaddr:(base + (p * Addr.page_size)) p
    done;
    for _ = 1 to rounds do
      Uapi.touch u ~access:Fault.Read ~vaddr:base ~len:(pages * Addr.page_size);
      Uapi.yield u
    done
  in
  let r =
    Harness.checked ~name:"slices"
      (Harness.run ~vconfig
         ~spawn:(fun k -> List.init procs (fun _ -> Kernel.spawn k ~cloaked:true slice))
         ())
  in
  (r.cycles / (rounds * procs), r.counters)

let e6 () =
  let rows =
    List.map
      (fun procs ->
        let per_slice multi_shadow =
          fst (slices { Cloak.Vmm.default_config with multi_shadow } ~procs)
        in
        let multi = per_slice true in
        let single = per_slice false in
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

(* Stream out of a cloaked buffer with write(), through the shim's bounce
   buffer when [shim]. Write-only: without the shim, reads into cloaked
   buffers are fatal by design (see the shim tests), so the naive design
   can only stream out. *)
let e7_stream ~shim chunk =
  fst
    (Harness.time_program ~cloaked:true ~name:"E7 stream" (fun u ->
         if shim then ignore (Oshim.Shim.install u);
         let fd = Uapi.openf u "/out" [ Abi.O_CREAT; Abi.O_RDWR ] in
         let buf = Uapi.malloc u chunk in
         fun () ->
           for _ = 1 to stream_bytes / chunk do
             Uapi.store u ~vaddr:buf (Bytes.make chunk 's');
             Uapi.write_exact u ~fd ~vaddr:buf ~len:chunk
           done))

let e7_mapped chunk =
  fst
    (Harness.time_program ~cloaked:true ~name:"E7 mapped" (fun u ->
         let shim = Oshim.Shim.install u in
         let pages = stream_bytes / Addr.page_size in
         let f = Oshim.Shim_io.create shim ~path:"/out" ~pages in
         fun () ->
           for i = 0 to (stream_bytes / chunk) - 1 do
             Oshim.Shim_io.write shim f ~pos:(i * chunk) (Bytes.make chunk 'M')
           done;
           Oshim.Shim_io.save shim f))

let e7 () =
  let mb_per_gcy cycles =
    1e9 *. (float_of_int stream_bytes /. 1048576.0) /. float_of_int cycles
  in
  let rows =
    List.map
      (fun chunk ->
        let naive = e7_stream ~shim:false chunk in
        let marshal = e7_stream ~shim:true chunk in
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
  let rows =
    List.map
      (fun quantum ->
        let run cloaked =
          fst
            (run_kernel ~kconfig:{ Kernel.default_config with quantum } ~scale:1 ~cloaked
               kernel)
        in
        let native = run false in
        let cloaked = run true in
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
  let rows =
    List.map
      (fun tlb_slots ->
        let per_slice, c = slices { Cloak.Vmm.default_config with tlb_slots } ~procs:4 in
        [ string_of_int tlb_slots; string_of_int per_slice;
          string_of_int c.Counters.tlb_misses ])
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
  let len = 8 * Addr.page_size in
  let cycles, r =
    Harness.time_program
      ~vconfig:{ Cloak.Vmm.default_config with clean_reencrypt }
      ~cloaked:true ~name:"E10 scan-write"
      (fun u ->
        let fd = Uapi.openf u "/out" [ Abi.O_CREAT; Abi.O_RDWR ] in
        let buf = Uapi.malloc u len in
        Uapi.store u ~vaddr:buf (Bytes.make len 'r');
        fun () ->
          for _ = 1 to 20 do
            (* the app scans its data read-only... *)
            Uapi.touch u ~access:Fault.Read ~vaddr:buf ~len;
            (* ...then the kernel copies it out *)
            ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
            Uapi.write_exact u ~fd ~vaddr:buf ~len
          done)
  in
  (cycles, r.counters)

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
