(* Fleet supervision: the balancer policy (suspicion accrual, routing and
   the typed shed taxonomy, rejoin backoff), the migration session-key
   scrub-before-free lifecycle on the flight recorder, the harness
   subcommands' exit codes, a short hostile fleet sweep and the retry of
   an aborted drain. *)

let vconfig = { Cloak.Vmm.default_config with seed = 0xF1EE }

let bal ?rejoin_backoff hosts = Cloak.Balancer.create ~hosts ?rejoin_backoff ()

let check_state what expected b i =
  Alcotest.(check string) what
    (Cloak.Balancer.state_to_string expected)
    (Cloak.Balancer.state_to_string (Cloak.Balancer.state b i))

(* --- suspicion accrual and the Suspect latch --- *)

let test_suspicion_accrues_and_recovers () =
  let b = bal 2 in
  Alcotest.(check (float 1e-9)) "fresh host carries no suspicion" 0.0
    (Cloak.Balancer.suspicion b 0 ~now:0);
  Cloak.Balancer.missed_heartbeat b 0;
  Alcotest.(check bool) "one miss is below the default threshold" false
    (Cloak.Balancer.suspect b 0 ~now:0);
  check_state "still healthy" Cloak.Balancer.Healthy b 0;
  Cloak.Balancer.missed_heartbeat b 0;
  Alcotest.(check bool) "two misses cross it" true
    (Cloak.Balancer.suspect b 0 ~now:0);
  check_state "latched Suspect" Cloak.Balancer.Suspect b 0;
  check_state "the peer is untouched" Cloak.Balancer.Healthy b 1;
  (* a live beat clears the misses and recovers the state *)
  Cloak.Balancer.heartbeat b 0 ~now:10;
  check_state "heartbeat recovers Suspect" Cloak.Balancer.Healthy b 0;
  Alcotest.(check bool) "suspicion fell back under threshold" true
    (Cloak.Balancer.suspicion b 0 ~now:10 < Cloak.Balancer.threshold)

let test_suspicion_overdue_term_capped () =
  let b = bal 1 in
  Cloak.Balancer.heartbeat b 0 ~now:0;
  Cloak.Balancer.heartbeat b 0 ~now:100;
  Alcotest.(check (float 1e-9)) "gap learned from the beats" 100.0
    (Cloak.Balancer.mean_gap b 0);
  Alcotest.(check (float 1e-9)) "on-time: no overdue evidence" 0.0
    (Cloak.Balancer.suspicion b 0 ~now:150);
  let s = Cloak.Balancer.suspicion b 0 ~now:280 in
  Alcotest.(check bool) "overdue accrues fractionally" true
    (s > 0.0 && s < 1.0);
  Alcotest.(check (float 1e-9))
    "a long silence is at most one beat of evidence" 1.0
    (Cloak.Balancer.suspicion b 0 ~now:100_000)

let test_suspicion_error_term_bounded () =
  let b = bal 1 in
  for _ = 1 to 8 do
    Cloak.Balancer.record_error b 0
  done;
  Alcotest.(check (float 1e-9)) "8 errors are half a unit" 0.5
    (Cloak.Balancer.suspicion b 0 ~now:0);
  for _ = 1 to 100 do
    Cloak.Balancer.record_error b 0
  done;
  Alcotest.(check (float 1e-9)) "the error term saturates at one unit" 1.0
    (Cloak.Balancer.suspicion b 0 ~now:0)

(* --- routing and the typed shed taxonomy --- *)

let test_route_least_loaded_deterministic () =
  let b = bal 3 in
  (match Cloak.Balancer.route b ~load:(Array.get [| 2; 0; 1 |]) with
  | Ok i -> Alcotest.(check int) "least-loaded wins" 1 i
  | Error _ -> Alcotest.fail "routable fleet shed a request");
  match Cloak.Balancer.route b ~load:(Array.get [| 2; 1; 1 |]) with
  | Ok i -> Alcotest.(check int) "lowest index breaks ties" 1 i
  | Error _ -> Alcotest.fail "routable fleet shed a request"

let test_shed_taxonomy () =
  let b = bal 3 in
  let full _ = Cloak.Balancer.queue_bound in
  (* every routable host at its bound: Overload *)
  (match Cloak.Balancer.route b ~load:full with
  | Error Cloak.Balancer.Overload -> ()
  | Ok i -> Alcotest.failf "admitted beyond the bound at host %d" i
  | Error r ->
      Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r));
  (* a dead host is never polled, so its empty queue attracts nothing *)
  Cloak.Balancer.mark_dead b 1 ~now:0;
  let polled = ref [] in
  (match
     Cloak.Balancer.route b ~load:(fun i ->
         polled := i :: !polled;
         if i = 1 then 0 else Cloak.Balancer.queue_bound)
   with
  | Error Cloak.Balancer.Overload -> ()
  | Ok i -> Alcotest.failf "routed to or around a dead host (%d)" i
  | Error r ->
      Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r));
  Alcotest.(check (list int)) "only the live hosts polled" [ 2; 0 ] !polled;
  (* nothing routable at all *)
  Cloak.Balancer.mark_dead b 0 ~now:0;
  Cloak.Balancer.mark_dead b 2 ~now:0;
  match
    Cloak.Balancer.route b ~load:(fun i ->
        Alcotest.failf "polled dead host %d" i)
  with
  | Error Cloak.Balancer.No_capacity -> ()
  | Ok i -> Alcotest.failf "routed to a dead fleet (host %d)" i
  | Error r -> Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r)

let test_reduced_service_halves_bound () =
  let b = bal 3 in
  let half _ = Cloak.Balancer.queue_bound / 2 in
  Alcotest.(check bool) "full fleet: full service" false
    (Cloak.Balancer.reduced_service b);
  (match Cloak.Balancer.route b ~load:half with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "a half-full queue must admit at full service");
  Cloak.Balancer.mark_dead b 2 ~now:0;
  Alcotest.(check bool) "losing a host flips reduced service" true
    (Cloak.Balancer.reduced_service b);
  Alcotest.(check int) "two hosts still serve" 2 (Cloak.Balancer.serving b);
  match Cloak.Balancer.route b ~load:half with
  | Error Cloak.Balancer.Overload -> ()
  | Ok i -> Alcotest.failf "host %d admitted past the halved bound" i
  | Error r -> Alcotest.failf "wrong shed: %s" (Cloak.Balancer.shed_to_string r)

let test_rejoin_backoff () =
  let b = bal ~rejoin_backoff:10 2 in
  Cloak.Balancer.mark_dead b 0 ~now:0;
  Cloak.Balancer.tick b ~now:9;
  check_state "backoff holds the corpse out" Cloak.Balancer.Dead b 0;
  Cloak.Balancer.tick b ~now:10;
  check_state "backoff expiry re-admits at reduced service"
    Cloak.Balancer.Rejoining b 0;
  Alcotest.(check int) "a rejoining host counts as serving" 2
    (Cloak.Balancer.serving b);
  Cloak.Balancer.tick b ~now:19;
  check_state "full trust needs another interval" Cloak.Balancer.Rejoining b 0;
  Cloak.Balancer.tick b ~now:20;
  check_state "good behaviour earns Healthy back" Cloak.Balancer.Healthy b 0;
  (* backoff 0 disables re-admission outright *)
  let b0 = bal 2 in
  Cloak.Balancer.mark_dead b0 1 ~now:0;
  Cloak.Balancer.tick b0 ~now:1_000_000;
  check_state "no backoff: a retired host stays Dead" Cloak.Balancer.Dead b0 1

(* --- the session key obeys scrub-before-free (satellite of the fleet
   failover path: every drain/rescue closes both endpoints) --- *)

let test_session_key_close_is_clean () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let snd = Cloak.Migrate.sender vmm ~session:"scrub-snd" (Bytes.make 600 'x') in
  let rcv = Cloak.Migrate.receiver vmm ~session:"scrub-rcv" in
  Alcotest.(check bool) "sender key live until closed" false
    (Cloak.Migrate.sender_key_scrubbed snd);
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  Alcotest.(check bool) "sender key scrubbed" true
    (Cloak.Migrate.sender_key_scrubbed snd);
  Alcotest.(check bool) "receiver key scrubbed" true
    (Cloak.Migrate.receiver_key_scrubbed rcv);
  Alcotest.(check (list string)) "scrub-before-free holds on the trace" []
    (Trace.Check.verdict trace);
  (* close is idempotent: teardown paths may race COMMIT/ABORT handling *)
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  Alcotest.(check (list string)) "double close stays clean" []
    (Trace.Check.verdict trace)

let expect_scrub_violation what verdict =
  match verdict with
  | [] -> Alcotest.failf "%s: dropping an unscrubbed key went unreported" what
  | fails ->
      Alcotest.(check bool)
        (what ^ ": flagged as a free-while-holding-plaintext")
        true
        (List.exists
           (fun f ->
             let has needle =
               let nl = String.length needle and fl = String.length f in
               let rec at i = i + nl <= fl && (String.sub f i nl = needle || at (i + 1)) in
               at 0
             in
             has "freed while holding")
           fails)

let test_sender_key_drop_without_scrub_flagged () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let snd = Cloak.Migrate.sender vmm ~session:"leaky-snd" (Bytes.make 600 'x') in
  Cloak.Migrate.drop_sender snd;
  expect_scrub_violation "sender" (Trace.Check.verdict trace)

let test_receiver_key_drop_without_scrub_flagged () =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:vconfig ~trace () in
  let rcv = Cloak.Migrate.receiver vmm ~session:"leaky-rcv" in
  Cloak.Migrate.drop_receiver rcv;
  expect_scrub_violation "receiver" (Trace.Check.verdict trace)

(* --- the shared exit policy every sweep subcommand runs --- *)

(* A sweep with no simulation behind it: seed reports are the seeds, red
   ones fail, and the summary carries the given sweep-level failures. *)
let fake ?(red = []) ?(sweep_failures = []) () : (module Harness.S) =
  (module struct
    let name = "fake"
    let bench_name = "fake"
    let doc = "a sweep over nothing"
    let default_seeds = 3
    let held = "fake sweep held"

    type seed_report = int

    let run_seed ~seed = seed
    let failures seed = if List.mem seed red then [ "boom" ] else []
    let pp_seed_report = Format.pp_print_int

    let summary reports =
      {
        Harness.Sweep.lines = [];
        fields = [ ("seeds", Report.Int (List.length reports)) ];
        failures = sweep_failures;
      }
  end)

let run_fake ?bench_out h = Harness.Sweep.run h ~seeds:3 ~base:1 ~verbose:false ~bench_out

let test_green_exits_0 () =
  let path = Filename.temp_file "bench_fake" ".json" in
  Alcotest.(check int) "green sweep exits 0" 0 (run_fake ~bench_out:path (fake ()));
  let j = Report.load ~path in
  Sys.remove path;
  Alcotest.(check (list string)) "fields, then the wall_s/failures envelope"
    [ "schema_version"; "benchmark"; "seeds"; "wall_s"; "failures" ]
    (match j with Report.Obj kv -> List.map fst kv | _ -> []);
  Alcotest.(check (option int)) "no failures counted" (Some 0)
    (Option.bind (Report.member "failures" j) Report.to_int)

let test_red_seed_exits_1 () =
  (* the sweep's second seed: base 1 + 7919 *)
  Alcotest.(check int) "one red seed exits 1" 1 (run_fake (fake ~red:[ 7920 ] ()))

let test_sweep_failure_exits_1 () =
  Alcotest.(check int) "a sweep-level failure exits 1" 1
    (run_fake (fake ~sweep_failures:[ "bar missed" ] ()))

(* Soak's strict win on synthetic seed reports: supervision must beat its
   absence on total useful work, and a tie is not a win. *)
let test_soak_tie_is_not_a_win () =
  let report ~seed ~sup ~unsup =
    {
      Harness.Soak.seed;
      units_ff = Harness.Soak.rounds;
      units_sup = sup;
      units_unsup = unsup;
      restarts = 2;
      circuit_breaks = 0;
      checkpoints = 10;
      recovery_cycles = 1000;
      audit_dropped = 0;
      trace_dropped = 0;
      hot_spots = [];
      failures = [];
    }
  in
  let exit_code reports =
    Harness.Sweep.exit_code (Harness.Soak.summary reports).Harness.Sweep.failures
  in
  Alcotest.(check int) "a strict win exits 0" 0
    (exit_code [ report ~seed:1 ~sup:20 ~unsup:10; report ~seed:2 ~sup:8 ~unsup:8 ]);
  Alcotest.(check int) "a goodput tie is not a win" 1
    (exit_code [ report ~seed:1 ~sup:12 ~unsup:10; report ~seed:2 ~sup:8 ~unsup:10 ])

(* --- the fleet sweep: supervision wins, exactly-once failover --- *)

let fleet_seeds = Harness.Sweep.seeds_from ~base:1 ~count:3

let test_fleet_invariants () =
  let reports = List.map (fun seed -> Harness.Fleet.run_seed ~seed) fleet_seeds in
  let failures =
    List.concat_map
      (fun (r : Harness.Fleet.seed_report) -> List.map (fun f -> (r.seed, f)) r.failures)
      reports
  in
  Alcotest.(check (list (pair int string))) "no invariant failures" [] failures;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  (* each seed's hostile and blackhole runs both kill a host *)
  Alcotest.(check bool) "the antagonist drew blood" true
    (sum (fun r -> r.Harness.Fleet.deaths) >= 2 * List.length fleet_seeds);
  Alcotest.(check bool) "failovers committed" true
    (sum (fun r -> r.Harness.Fleet.failovers) >= 1);
  Alcotest.(check int) "no failover ever resumed twice" 0
    (sum (fun r -> r.Harness.Fleet.double_resumes));
  Alcotest.(check bool) "fault-free SLO: >= 99% within budget" true
    (List.for_all (fun r -> r.Harness.Fleet.ff_budget_pct >= 99.0) reports);
  (* the acceptance bar: the supervised fleet strictly out-serves the
     same arrivals with no supervisor *)
  Alcotest.(check bool) "supervised goodput strictly beats unsupervised" true
    (sum (fun r -> r.Harness.Fleet.sup_goodput)
    > sum (fun r -> r.Harness.Fleet.unsup_goodput));
  (* every shed is typed: the taxonomy accounts for each rejection *)
  List.iter
    (fun (r : Harness.Fleet.seed_report) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: typed reasons cover every shed"
           r.Harness.Fleet.seed)
        r.Harness.Fleet.sheds
        (r.Harness.Fleet.sheds_overload + r.Harness.Fleet.sheds_no_capacity))
    reports

(* An aborted drain leaves its host in service, so the drain budget buys
   a second attempt and the next suspect can drain too. Every heartbeat
   is lost (each host turns suspect at its first quiesce points) and every
   migration frame is dropped (every drain aborts): hosts 0 and 1 each
   spend both attempts, one Migration span apiece, and host 2 has no
   unspawned peer left to drain to. Nothing commits and nothing is lost. *)
let test_aborted_drain_retries () =
  let plan =
    Inject.plan ~seed:1
      [ { Inject.site = Inject.Hb_send; trigger = Inject.always; action = Inject.Drop };
        { Inject.site = Inject.Mig_send; trigger = Inject.always; action = Inject.Drop } ]
  in
  let r = Harness.Fleet.run_once ~plan ~seed:1 () in
  let drains (_, _, trace) =
    Trace.fold trace ~init:0 ~f:(fun n (e : Trace.event) ->
        if e.kind = Trace.Migration && e.phase = Trace.Enter then n + 1 else n)
  in
  Alcotest.(check (list int)) "drain attempts per host" [ 2; 2; 0 ]
    (List.map drains r.Harness.Fleet.r_host_traces);
  Alcotest.(check int) "no failover committed" 0 r.Harness.Fleet.r_failovers;
  Alcotest.(check int) "no process lost" 0 r.Harness.Fleet.r_lost

let () =
  Alcotest.run "fleet"
    [
      ( "balancer-suspicion",
        [
          Alcotest.test_case "misses accrue, heartbeat recovers" `Quick
            test_suspicion_accrues_and_recovers;
          Alcotest.test_case "overdue term capped at one beat" `Quick
            test_suspicion_overdue_term_capped;
          Alcotest.test_case "error term saturates" `Quick
            test_suspicion_error_term_bounded;
        ] );
      ( "balancer-routing",
        [
          Alcotest.test_case "least-loaded, deterministic ties" `Quick
            test_route_least_loaded_deterministic;
          Alcotest.test_case "shed taxonomy" `Quick test_shed_taxonomy;
          Alcotest.test_case "reduced service halves the bound" `Quick
            test_reduced_service_halves_bound;
          Alcotest.test_case "rejoin backoff" `Quick test_rejoin_backoff;
        ] );
      ( "session-key-scrub",
        [
          Alcotest.test_case "close scrubs both endpoints" `Quick
            test_session_key_close_is_clean;
          Alcotest.test_case "sender drop without scrub flagged" `Quick
            test_sender_key_drop_without_scrub_flagged;
          Alcotest.test_case "receiver drop without scrub flagged" `Quick
            test_receiver_key_drop_without_scrub_flagged;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "green sweep exits 0" `Quick test_green_exits_0;
          Alcotest.test_case "soak" `Quick test_soak_tie_is_not_a_win;
          Alcotest.test_case "red seed exits 1" `Quick test_red_seed_exits_1;
          Alcotest.test_case "sweep-level failure exits 1" `Quick
            test_sweep_failure_exits_1;
        ] );
      ( "sweep",
        [ Alcotest.test_case "3-seed hostile fleet" `Slow test_fleet_invariants;
          Alcotest.test_case "aborted drain retries" `Quick
            test_aborted_drain_retries ] );
    ]
