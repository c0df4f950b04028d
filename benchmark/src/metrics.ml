(* The metric catalogue and how each metric is computed from a run.

   End-to-end metrics come only from untraced runs. Per-layer metrics
   combine three sources: exact counter deltas over the timed phase of
   the untraced run, span percentiles from the traced repeat of the same
   seed, and the micro pass. A metric a workload has no instance of (a
   GET latency on swap, journal records on kv) reads 0.

   Names, units and order here must match BENCHMARK.json; the smoke test
   checks that they do. Bounds and directions live only there. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "ops/s");
    ("host_peak_heap_mb", "MB");
    ("model_ops_per_gcy", "ops/Gcy");
    ("model_op_p50_kcy", "kcy");
    ("model_op_p90_kcy", "kcy");
    ("model_op_p99_kcy", "kcy");
  ]

let per_layer =
  [
    ("oscrypto.aes_ctr_4k_ns", "ns");
    ("oscrypto.sha256_4k_ns", "ns");
    ("oscrypto.hmac_4k_ns", "ns");
    ("oscrypto.hmac_64b_ns", "ns");
    ("oscrypto.page_enc_per_op", "1/op");
    ("oscrypto.clean_reenc_per_op", "1/op");
    ("oscrypto.page_dec_per_op", "1/op");
    ("oscrypto.mac_computes_per_op", "1/op");
    ("oscrypto.mac_checks_per_op", "1/op");
    ("oscrypto.clean_reenc_ratio", "ratio");
    ("machine.phys_alloc_free_ns", "ns");
    ("machine.tlb_miss_ratio", "ratio");
    ("machine.shadow_walks_per_op", "1/op");
    ("vmm.world_switches_per_op", "1/op");
    ("vmm.hypercalls_per_op", "1/op");
    ("vmm.hidden_faults_per_op", "1/op");
    ("vmm.guest_faults_per_op", "1/op");
    ("vmm.first_touch_ns", "ns");
    ("shim.syscalls_per_op", "1/op");
    ("shim.bytes_copied_per_op", "B/op");
    ("shim.marshal_roundtrip_ns", "ns");
    ("shim.syscall_ns", "ns");
    ("shim.self_ns", "ns");
    ("guest.syscall_ns", "ns");
    ("guest.context_switches_per_op", "1/op");
    ("guest.disk_ios_per_op", "1/op");
    ("journal.records_per_op", "1/op");
    ("journal.store_writes_per_op", "1/op");
    ("journal.record_ns", "ns");
    ("seal.checkpoints_per_op", "1/op");
    ("migrate.frames_per_hop", "1/op");
    ("migrate.wire_kb_per_hop", "KB/op");
    ("migrate.encode_4k_ns", "ns");
    ("migrate.decode_4k_ns", "ns");
    ("migrate.transfer_ns", "ns");
    ("migrate.adopt_ns", "ns");
    ("kv.get_ns", "ns");
    ("kv.set_ns", "ns");
    ("swap.read_ns", "ns");
    ("swap.write_ns", "ns");
    ("vault.save_ns", "ns");
    ("vault.load_ns", "ns");
    ("migrate.hop_ns", "ns");
    ("sim.host_ns_per_mcy", "ns/Mcy");
    ("trace.overhead_pct", "%");
  ]

(* The spans whose p50 (or self-time p50) a per-layer metric reports. *)
let span_metrics =
  [
    ("shim.syscall_ns", "shim.syscall", `Dur);
    ("shim.self_ns", "shim.syscall", `Self);
    ("guest.syscall_ns", "guest.syscall", `Dur);
    ("migrate.transfer_ns", "migrate.transfer", `Dur);
    ("migrate.adopt_ns", "migrate.adopt", `Dur);
    ("kv.get_ns", "kv.get", `Dur);
    ("kv.set_ns", "kv.set", `Dur);
    ("swap.read_ns", "swap.read", `Dur);
    ("swap.write_ns", "swap.write", `Dur);
    ("vault.save_ns", "vault.save", `Dur);
    ("vault.load_ns", "vault.load", `Dur);
    ("migrate.hop_ns", "migrate.hop", `Dur);
  ]

(* What a workload child process reports back: its tally, the timed
   phase (samples sorted ascending), the peak heap and the span stats. *)
type summary = {
  setups_ns : int list;
  tally : Work.tally;
  timed : Work.timed;  (** all zero when the timed phase never completed *)
  heap_mb : float;
  spans : (string * (int * int * int)) list;  (** name -> count, p50 ns, self p50 ns *)
}

let summarize ~setups ~tally timed spans =
  let timed =
    match timed with
    | Some (t : Work.timed) ->
        Array.sort compare t.lat;
        t
    | None ->
        { ops = 0; host_ns = 0; rates = []; lat = [||]; usage = Work.usage (); wire_frames = 0; wire_bytes = 0 }
  in
  {
    setups_ns = setups;
    tally;
    timed;
    heap_mb = float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    spans =
      List.filter_map
        (fun (_, span, _) -> Option.map (fun st -> (span, st)) (Spans.stats spans span))
        span_metrics
      |> List.sort_uniq compare;
  }

(* A metric value plus the evidence behind a percentile, for printing. *)
type value = { v : float; note : string }

let plain v = { v; note = "" }

let tail s p =
  let lat = s.timed.lat in
  {
    v = float_of_int (Stats.percentile lat p) /. 1e3;
    note = Printf.sprintf "n=%d beyond=%d" (Array.length lat) (Stats.beyond lat p);
  }

let e2e s =
  let secs ns = float_of_int ns /. 1e9 in
  let ops = float_of_int s.timed.ops in
  [
    ( "setup_s",
      {
        v = Stats.median_float (List.map secs s.setups_ns);
        note = Printf.sprintf "median of %d set-ups" (List.length s.setups_ns);
      } );
    ( "host_ops_per_s",
      {
        v = Stats.median_float s.timed.rates;
        note = Printf.sprintf "median of %d slices; whole phase %.6g" (List.length s.timed.rates)
            (ops /. secs s.timed.host_ns);
      } );
    ("host_peak_heap_mb", plain s.heap_mb);
    ("model_ops_per_gcy", plain (ops /. (float_of_int s.timed.usage.cycles /. 1e9)));
    ("model_op_p50_kcy", tail s 0.50);
    ("model_op_p90_kcy", tail s 0.90);
    ("model_op_p99_kcy", tail s 0.99);
  ]

let ratio a b = if b = 0. then 0. else a /. b

let layer ~untraced ~traced ~micro =
  let u = untraced.timed and t = traced.timed in
  let per_op x = ratio x (float_of_int u.ops) in
  let counters = Machine.Counters.to_assoc u.usage.counters in
  let c name = float_of_int (List.assoc name counters) in
  let span name kind =
    match List.assoc_opt name traced.spans with
    | None -> plain 0.
    | Some (n, p50, self) ->
        { v = float_of_int (if kind = `Self then self else p50); note = Printf.sprintf "n=%d" n }
  in
  let computed =
    [
      ("oscrypto.page_enc_per_op", per_op (c "page_encryptions"));
      ("oscrypto.clean_reenc_per_op", per_op (c "clean_reencryptions"));
      ("oscrypto.page_dec_per_op", per_op (c "page_decryptions"));
      ("oscrypto.mac_computes_per_op", per_op (c "hash_computes"));
      ("oscrypto.mac_checks_per_op", per_op (c "hash_checks"));
      ( "oscrypto.clean_reenc_ratio",
        ratio (c "clean_reencryptions") (c "clean_reencryptions" +. c "page_encryptions") );
      ("machine.tlb_miss_ratio", ratio (c "tlb_misses") (c "tlb_misses" +. c "tlb_hits"));
      ("machine.shadow_walks_per_op", per_op (c "shadow_walks"));
      ("vmm.world_switches_per_op", per_op (c "world_switches"));
      ("vmm.hypercalls_per_op", per_op (c "hypercalls"));
      ("vmm.hidden_faults_per_op", per_op (c "hidden_faults"));
      ("vmm.guest_faults_per_op", per_op (c "guest_faults"));
      ("shim.syscalls_per_op", per_op (c "syscalls"));
      ("shim.bytes_copied_per_op", per_op (c "bytes_copied"));
      ("guest.context_switches_per_op", per_op (c "context_switches"));
      ("guest.disk_ios_per_op", per_op (c "disk_reads" +. c "disk_writes"));
      ("journal.records_per_op", per_op (float_of_int u.usage.journal_records));
      ("journal.store_writes_per_op", per_op (float_of_int u.usage.journal_writes));
      ("seal.checkpoints_per_op", per_op (c "seal_checkpoints"));
      ("migrate.frames_per_hop", per_op (float_of_int u.wire_frames));
      ("migrate.wire_kb_per_hop", per_op (float_of_int u.wire_bytes /. 1e3));
      ("sim.host_ns_per_mcy", ratio (float_of_int u.host_ns) (float_of_int u.usage.cycles /. 1e6));
      ( "trace.overhead_pct",
        100. *. (ratio (Stats.median_float u.rates) (Stats.median_float t.rates) -. 1.) );
    ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name computed with
        | Some x -> plain x
        | None -> (
            match List.find_opt (fun (m, _, _) -> m = name) span_metrics with
            | Some (_, sp, kind) -> span sp kind
            | None -> plain (Option.value ~default:0. (List.assoc_opt name micro)))
      in
      (name, v))
    per_layer

(* Tracing is host-only: the traced repeat must spend exactly the model
   cycles of the untraced run, or the spans perturbed what they measure. *)
let same_model a b =
  a.timed.usage.cycles = b.timed.usage.cycles && a.timed.lat = b.timed.lat
