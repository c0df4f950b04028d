(* The flight recorder: ring semantics, histogram percentiles, span
   pairing, the zero-cost null sink, the trace-checked invariants (both
   directions: real runs pass, seeded violations fail), and the Counters
   field-table refactor that rides along. *)

open Machine

let quick name f = Alcotest.test_case name `Quick f

(* --- ring wraparound (qcheck) --- *)

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring keeps the newest min(n,cap) events" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 300))
    (fun (cap, n) ->
      let t = Trace.ring ~cap () in
      for i = 0 to n - 1 do
        Trace.emit t ~aux:i Trace.Hypercall
      done;
      let kept = min n cap in
      let evs = Trace.events t in
      Trace.count t = n
      && Trace.dropped t = max 0 (n - cap)
      && Trace.capacity t = cap
      && List.length evs = kept
      (* oldest evicted first: the survivors are exactly the last [kept]
         emissions, in order *)
      && List.for_all2
           (fun (e : Trace.event) expect -> e.aux = expect)
           evs
           (List.init kept (fun i -> n - kept + i)))

let prop_ring_count_monotone =
  QCheck.Test.make ~name:"count is monotone under emission" ~count:100
    QCheck.(int_range 0 200)
    (fun n ->
      let t = Trace.ring ~cap:8 () in
      let ok = ref true in
      let prev = ref (-1) in
      for _ = 1 to n do
        Trace.emit t Trace.Disk_read;
        if Trace.count t <= !prev then ok := false;
        prev := Trace.count t
      done;
      !ok && Trace.count t = n)

(* --- percentile extraction (qcheck) --- *)

let prop_percentile_brackets =
  QCheck.Test.make ~name:"percentile bounds bracket the true order statistic"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
    (fun values ->
      let h = Trace.Hist.create () in
      List.iter (Trace.Hist.add h) values;
      let sorted = List.sort compare values in
      let n = List.length values in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
          let v = List.nth sorted (rank - 1) in
          let lo, hi = Trace.Hist.percentile_bounds h p in
          lo <= v && v <= hi && Trace.Hist.percentile h p = hi)
        [ 0.01; 0.25; 0.5; 0.95; 0.99; 1.0 ])

let test_hist_buckets () =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.add h) [ 0; 1; 1; 5; 300 ];
  Alcotest.(check int) "count" 5 (Trace.Hist.count h);
  Alcotest.(check int) "total" 307 (Trace.Hist.total h);
  Alcotest.(check int) "min" 0 (Trace.Hist.min_value h);
  Alcotest.(check int) "max" 300 (Trace.Hist.max_value h);
  (* bucket 0 holds exactly 0; bucket i>=1 holds [2^(i-1), 2^i - 1] *)
  Alcotest.(check (list (triple int int int)))
    "buckets"
    [ (0, 0, 1); (1, 1, 2); (4, 7, 1); (256, 511, 1) ]
    (Trace.Hist.buckets h)

(* --- span pairing and histograms --- *)

let test_span_pairing () =
  let t = Trace.ring () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  Trace.span_enter t Trace.Hypercall;
  now := 137;
  Trace.span_exit t Trace.Hypercall;
  let histogram kind = List.assoc_opt kind (Trace.span_classes t) in
  (match histogram Trace.Hypercall with
  | None -> Alcotest.fail "no histogram after a completed span"
  | Some h ->
      Alcotest.(check int) "one span" 1 (Trace.Hist.count h);
      Alcotest.(check int) "latency = clock delta" 137 (Trace.Hist.total h));
  (* an exception aborts the open span: no exit event, no latency *)
  (try Trace.with_span t Trace.Syscall (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "aborted span records no latency" true
    (histogram Trace.Syscall = None);
  (* a stray exit (no matching enter) records the event but no latency *)
  Trace.span_exit t Trace.Disk_read;
  Alcotest.(check bool) "stray exit records no latency" true
    (histogram Trace.Disk_read = None)

(* --- the null sink is free --- *)

let run_sieve trace =
  let kernel = Workloads.Spec.find "sieve" in
  Harness.run_program ~cloaked:true ?trace (fun env ->
      let u = Uapi.of_env env in
      ignore (kernel.Workloads.Spec.run u ~scale:1))

let test_null_sink_free () =
  let base = run_sieve None in
  let null = run_sieve (Some Trace.null) in
  let ring = Trace.ring () in
  let live = run_sieve (Some ring) in
  Alcotest.(check int) "null sink adds zero model cycles" base.Harness.cycles
    null.Harness.cycles;
  Alcotest.(check int) "ring sink adds zero model cycles" base.Harness.cycles
    live.Harness.cycles;
  Alcotest.(check int) "null sink records nothing" 0 (Trace.count Trace.null);
  Alcotest.(check bool) "null sink is disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "ring recorded the run" true (Trace.count ring > 0);
  Alcotest.(check (list string)) "the real run satisfies the invariants" []
    (Trace.Check.verdict ring)

(* --- trace-checked invariants: seeded violations must be caught --- *)

let ev ?(phase = Trace.Instant) ?(ctx = Trace.Vmm) ?(page = -1) ?(pid = -1)
    ?(site = "") ?(aux = 0) kind =
  { Trace.kind; phase; cycles = 0; ctx; page; pid; site; aux }

let fails n evs = Alcotest.(check int) "violations" n (List.length (Trace.Check.run evs))
let passes evs = Alcotest.(check (list string)) "clean" [] (Trace.Check.run evs)

let test_check_mac_before_decrypt () =
  fails 1 [ ev ~phase:Trace.Exit ~site:"shm:1" ~page:0 ~pid:4 ~aux:1 Trace.Page_decrypt ];
  (* a MAC check of the wrong version does not license the decrypt *)
  fails 1
    [ ev ~site:"shm:1" ~page:0 ~aux:1 Trace.Mac_check;
      ev ~phase:Trace.Exit ~site:"shm:1" ~page:0 ~pid:4 ~aux:2 Trace.Page_decrypt ];
  (* a check of a different page does not either *)
  fails 1
    [ ev ~site:"shm:1" ~page:1 ~aux:1 Trace.Mac_check;
      ev ~phase:Trace.Exit ~site:"shm:1" ~page:0 ~pid:4 ~aux:1 Trace.Page_decrypt ];
  passes
    [ ev ~site:"shm:1" ~page:0 ~aux:1 Trace.Mac_check;
      ev ~phase:Trace.Exit ~site:"shm:1" ~page:0 ~pid:4 ~aux:1 Trace.Page_decrypt ]

let test_check_scrub_before_free () =
  fails 1 [ ev ~site:"shm:1" ~page:0 ~pid:7 Trace.Page_zero; ev ~pid:7 Trace.Frame_free ];
  passes
    [ ev ~site:"shm:1" ~page:0 ~pid:7 Trace.Page_zero;
      ev ~pid:7 Trace.Frame_scrub;
      ev ~pid:7 Trace.Frame_free ];
  (* re-encryption discharges the obligation too *)
  passes
    [ ev ~site:"shm:1" ~page:0 ~pid:7 Trace.Page_zero;
      ev ~phase:Trace.Exit ~site:"shm:1" ~page:0 ~pid:7 ~aux:1 Trace.Page_encrypt;
      ev ~pid:7 Trace.Frame_free ];
  (* freeing a frame that never held plaintext is fine *)
  passes [ ev ~pid:9 Trace.Frame_free ]

let test_check_bump_before_restore () =
  fails 1 [ ev ~phase:Trace.Exit ~site:"anon:1" ~aux:2 Trace.Seal_restore ];
  fails 1
    [ ev ~site:"anon:1" ~aux:1 Trace.Seal_gen_bump;
      ev ~phase:Trace.Exit ~site:"anon:1" ~aux:2 Trace.Seal_restore ];
  passes
    [ ev ~site:"anon:1" ~aux:2 Trace.Seal_gen_bump;
      ev ~phase:Trace.Exit ~site:"anon:1" ~aux:2 Trace.Seal_restore ];
  (* restoring an older (but bumped-past) generation is the stale-checkpoint
     detector's job, not the trace's: the ordering invariant holds *)
  passes
    [ ev ~site:"anon:1" ~aux:3 Trace.Seal_gen_bump;
      ev ~phase:Trace.Exit ~site:"anon:1" ~aux:2 Trace.Seal_restore ]

let test_check_owner_only_plaintext () =
  fails 1 [ ev ~ctx:(Trace.Cloaked 2) ~site:"anon:1" ~page:0 ~pid:1 Trace.Plaintext_access ];
  fails 1 [ ev ~ctx:Trace.Kernel ~site:"anon:1" ~page:0 ~pid:1 Trace.Plaintext_access ];
  passes [ ev ~ctx:(Trace.Cloaked 1) ~site:"anon:1" ~page:0 ~pid:1 Trace.Plaintext_access ];
  (* ownerless (shm) accesses carry pid = -1 and are exempt *)
  passes [ ev ~ctx:Trace.Kernel ~site:"shm:1" ~page:0 ~pid:(-1) Trace.Plaintext_access ]

let test_check_skips_truncated_ring () =
  let t = Trace.ring ~cap:2 () in
  (* an unlicensed decrypt whose MAC check was evicted must NOT fail *)
  Trace.emit t ~site:"shm:1" ~page:0 ~aux:1 Trace.Mac_check;
  for _ = 1 to 3 do
    Trace.emit t Trace.Disk_read
  done;
  Trace.span_enter t ~site:"shm:1" ~page:0 Trace.Page_decrypt;
  Trace.span_exit t ~site:"shm:1" ~page:0 ~pid:4 ~aux:1 Trace.Page_decrypt;
  Alcotest.(check bool) "ring truncated" true (Trace.Check.truncated t);
  Alcotest.(check (list string)) "verdict skipped" [] (Trace.Check.verdict t);
  (* the span table folds the same stream, so it refuses too *)
  Alcotest.(check string) "span table unavailable"
    "span classes unavailable: the ring dropped 4 events"
    (Format.asprintf "%a" Trace.pp_decomposition t)

(* --- real runs stay green end to end --- *)

let test_chaos_run_green () =
  let r = Harness.Chaos.run_once ~seed:3 in
  Alcotest.(check (list string)) "no trace failures" [] r.Harness.Chaos.obs.trace_failures;
  Alcotest.(check int) "nothing evicted" 0 r.Harness.Chaos.obs.trace_dropped

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_chrome_export () =
  let t = Trace.ring () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  Trace.set_ctx t (Trace.Cloaked 1);
  Trace.span_enter t ~site:"he \"quoted\"" Trace.Hypercall;
  now := 50;
  Trace.span_exit t Trace.Hypercall;
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool) "has traceEvents" true (contains json "\"traceEvents\"");
  Alcotest.(check bool) "has the span" true (contains json "\"hypercall\"");
  Alcotest.(check bool) "escapes quotes" true (contains json "he \\\"quoted\\\"")

(* --- Counters: the field table and snapshot detachment --- *)

let test_counters_snapshot_detached () =
  let c = Counters.create () in
  c.Counters.disk_reads <- 5;
  let s = Counters.snapshot c in
  c.Counters.disk_reads <- 9;
  let d = Counters.diff ~after:c ~before:s in
  Alcotest.(check int) "diff sees only the post-snapshot delta" 4
    d.Counters.disk_reads;
  s.Counters.disk_reads <- 1000;
  Alcotest.(check int) "mutating the snapshot leaves the original alone" 9
    c.Counters.disk_reads;
  let d2 = Counters.diff ~after:c ~before:c in
  Alcotest.(check int) "self-diff is zero" 0 d2.Counters.disk_reads

let test_counters_field_table () =
  let c = Counters.create () in
  c.Counters.hypercalls <- 3;
  c.Counters.seal_restores <- 2;
  let assoc = Counters.to_assoc c in
  Alcotest.(check int) "one row per field" (List.length Counters.fields)
    (List.length assoc);
  Alcotest.(check int) "hypercalls" 3 (List.assoc "hypercalls" assoc);
  Alcotest.(check int) "seal_restores" 2 (List.assoc "seal_restores" assoc);
  Counters.reset c;
  Alcotest.(check bool) "reset zeroes every field" true
    (List.for_all (fun (_, v) -> v = 0) (Counters.to_assoc c))

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_wraparound;
          QCheck_alcotest.to_alcotest prop_ring_count_monotone;
        ] );
      ( "hist",
        [
          QCheck_alcotest.to_alcotest prop_percentile_brackets;
          quick "buckets" test_hist_buckets;
        ] );
      ( "spans",
        [ quick "pairing" test_span_pairing; quick "chrome export" test_chrome_export ] );
      ("null sink", [ quick "free and silent" test_null_sink_free ]);
      ( "check",
        [
          quick "mac before decrypt" test_check_mac_before_decrypt;
          quick "scrub before free" test_check_scrub_before_free;
          quick "bump before restore" test_check_bump_before_restore;
          quick "owner-only plaintext" test_check_owner_only_plaintext;
          quick "skips truncated ring" test_check_skips_truncated_ring;
        ] );
      ( "end to end",
        [ quick "chaos run green" test_chaos_run_green ] );
      ( "counters",
        [
          quick "snapshot detached" test_counters_snapshot_detached;
          quick "field table" test_counters_field_table;
        ] );
    ]
