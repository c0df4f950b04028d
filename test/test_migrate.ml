(* Live migration: the frame codec, qcheck fuzzing of mangled chunk
   streams, the extended retry policy (deadlines + jitter), single-use
   restore across VMM instances, the kernel drain/adopt hooks, and the
   full hostile-channel sweep + crash matrix. *)

open Guest

let vconfig = { Cloak.Vmm.default_config with seed = 0xAB12 }
let kconfig = Harness.Migrate.kconfig
let policy = Harness.Migrate.policy

let fresh_vmm () = Cloak.Vmm.create ~config:vconfig ()

(* --- the frame codec --- *)

let frames_equal a b =
  match (a, b) with
  | Cloak.Migrate.Chunk { seq = s1; payload = p1 }, Cloak.Migrate.Chunk { seq = s2; payload = p2 }
    ->
      s1 = s2 && Bytes.equal p1 p2
  | a, b -> a = b

let test_codec_roundtrip () =
  let vmm = fresh_vmm () in
  let session = "codec-1" in
  let key = Cloak.Migrate.session_key vmm ~session in
  List.iter
    (fun frame ->
      let wire = Cloak.Migrate.encode ~key ~session frame in
      match Cloak.Migrate.decode ~key ~session wire with
      | Ok got -> Alcotest.(check bool) "frame survives the wire" true (frames_equal frame got)
      | Error why ->
          Alcotest.failf "round trip rejected: %s" (Cloak.Migrate.reject_to_string why))
    [
      Cloak.Migrate.Offer { nchunks = 7; blob_len = 3000; digest = "abcd0123" };
      Cloak.Migrate.Chunk { seq = 0; payload = Bytes.of_string "hello" };
      Cloak.Migrate.Chunk { seq = 6; payload = Bytes.empty };
      Cloak.Migrate.Ready;
      Cloak.Migrate.Commit;
      Cloak.Migrate.Abort;
      Cloak.Migrate.Ack 3;
      Cloak.Migrate.Ack (-1);
    ]

let test_codec_rejects () =
  let vmm = fresh_vmm () in
  let key = Cloak.Migrate.session_key vmm ~session:"codec-2" in
  let wire =
    Cloak.Migrate.encode ~key ~session:"codec-2"
      (Cloak.Migrate.Chunk { seq = 1; payload = Bytes.of_string "payload" })
  in
  (* a flipped byte anywhere fails the MAC *)
  for i = 0 to Bytes.length wire - 1 do
    let t = Bytes.copy wire in
    Bytes.set t i (Char.chr (Char.code (Bytes.get t i) lxor 0x01));
    match Cloak.Migrate.decode ~key ~session:"codec-2" t with
    | Error Cloak.Migrate.Bad_mac -> ()
    | Error why ->
        Alcotest.failf "flip at %d: expected Bad_mac, got %s" i
          (Cloak.Migrate.reject_to_string why)
    | Ok _ -> Alcotest.failf "flip at %d accepted" i
  done;
  (* truncation fails the MAC *)
  (match Cloak.Migrate.decode ~key ~session:"codec-2" (Bytes.sub wire 0 (Bytes.length wire - 1)) with
  | Error Cloak.Migrate.Bad_mac -> ()
  | _ -> Alcotest.fail "truncated frame not rejected as Bad_mac");
  (* a validly-MAC'd frame from another session is refused *)
  let key3 = Cloak.Migrate.session_key vmm ~session:"codec-3" in
  let other = Cloak.Migrate.encode ~key:key3 ~session:"codec-3" Cloak.Migrate.Ready in
  match Cloak.Migrate.decode ~key ~session:"codec-2" other with
  | Error (Cloak.Migrate.Bad_mac | Cloak.Migrate.Wrong_session) -> ()
  | _ -> Alcotest.fail "cross-session frame accepted"

(* An empty blob has no chunks, so the OFFER alone must assemble and
   verify it: the receiver answers the offer's ack and READY together. *)
let test_empty_blob () =
  let vmm = fresh_vmm () in
  let session = "empty" in
  let snd = Cloak.Migrate.sender vmm ~session Bytes.empty in
  let rcv = Cloak.Migrate.receiver vmm ~session in
  List.iter (Cloak.Migrate.absorb_ack snd)
    (Cloak.Migrate.deliver rcv (Cloak.Migrate.offer_wire snd));
  Alcotest.(check int) "no chunks to send" 0 (Cloak.Migrate.outstanding snd);
  Alcotest.(check bool) "offer acked" true (Cloak.Migrate.offer_acked snd);
  Alcotest.(check bool) "the offer alone yields READY" true (Cloak.Migrate.ready snd);
  Alcotest.(check (option bytes)) "empty blob assembled" (Some Bytes.empty)
    (Cloak.Migrate.blob rcv)

(* --- chunk-stream fuzzing ---

   Apply an arbitrary mangling script (drop, duplicate, swap, bit-flip,
   truncate) to a full transfer's frame stream and deliver the result.
   The receiver must either reconstruct the byte-identical blob or
   refuse with typed rejects — never install a corrupted page image,
   never die on an exception. *)

type fop =
  | Fdrop of int
  | Fdup of int
  | Fswap of int * int
  | Fflip of int * int
  | Ftrunc of int * int

let fop_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Fdrop i) (int_range 0 200));
        (2, map (fun i -> Fdup i) (int_range 0 200));
        (2, map2 (fun i j -> Fswap (i, j)) (int_range 0 200) (int_range 0 200));
        (2, map2 (fun i o -> Fflip (i, o)) (int_range 0 200) (int_range 0 700));
        (1, map2 (fun i l -> Ftrunc (i, l)) (int_range 0 200) (int_range 0 700));
      ])

let fop_print = function
  | Fdrop i -> Printf.sprintf "drop%d" i
  | Fdup i -> Printf.sprintf "dup%d" i
  | Fswap (i, j) -> Printf.sprintf "swap%d,%d" i j
  | Fflip (i, o) -> Printf.sprintf "flip%d@%d" i o
  | Ftrunc (i, l) -> Printf.sprintf "trunc%d@%d" i l

let apply_fop frames op =
  let n = List.length frames in
  if n = 0 then frames
  else
    match op with
    | Fdrop i ->
        let i = i mod n in
        List.filteri (fun j _ -> j <> i) frames
    | Fdup i ->
        let i = i mod n in
        let f = List.nth frames i in
        List.concat (List.mapi (fun j g -> if j = i then [ g; Bytes.copy f ] else [ g ]) frames)
    | Fswap (i, j) ->
        let i = i mod n and j = j mod n in
        let arr = Array.of_list frames in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t;
        Array.to_list arr
    | Fflip (i, off) ->
        let i = i mod n in
        List.mapi
          (fun j f ->
            if j = i && Bytes.length f > 0 then begin
              let f = Bytes.copy f in
              let o = off mod Bytes.length f in
              Bytes.set f o (Char.chr (Char.code (Bytes.get f o) lxor 0x80));
              f
            end
            else f)
          frames
    | Ftrunc (i, len) ->
        let i = i mod n in
        List.mapi
          (fun j f -> if j = i then Bytes.sub f 0 (min len (Bytes.length f)) else f)
          frames

let fuzz_case =
  QCheck.make
    ~print:(fun (blen, seed, ops) ->
      Printf.sprintf "blob=%d seed=%d [%s]" blen seed
        (String.concat " " (List.map fop_print ops)))
    QCheck.Gen.(
      triple (int_range 0 2500) (int_range 0 10_000)
        (list_size (int_range 0 30) fop_gen))

let prop_mangled_stream_identical_or_refused =
  QCheck.Test.make ~count:300
    ~name:"fuzz: mangled chunk stream yields the identical blob or typed rejects"
    fuzz_case
    (fun (blen, seed, ops) ->
      let vmm = fresh_vmm () in
      let blob = Oscrypto.Prng.bytes (Oscrypto.Prng.create ~seed) blen in
      let session = "fuzz" in
      let snd = Cloak.Migrate.sender vmm ~session ~chunk_size:64 blob in
      let frames =
        (Cloak.Migrate.offer_wire snd :: Cloak.Migrate.chunk_wires snd)
        @ [ Cloak.Migrate.commit_wire snd ]
      in
      let mangled = List.fold_left apply_fop frames ops in
      let rcv = Cloak.Migrate.receiver vmm ~session in
      List.iter (fun w -> ignore (Cloak.Migrate.deliver rcv w)) mangled;
      match Cloak.Migrate.blob rcv with
      | Some b -> Bytes.equal b blob
      | None -> not (Cloak.Migrate.committed rcv))

(* --- retry: deadlines and jitter --- *)

exception Flaky
exception Worn_out

let test_retry_deadline () =
  (* base 100, doubling: charges 100, 200, 400... the 800 charge takes the
     cumulative spend to 1500 > 1000, so the third retry is the last *)
  let runs = ref 0 in
  (match
     Retry.with_backoff ~deadline_cycles:1000 ~limit:50
       ~retryable:(function Flaky -> true | _ -> false)
       ~charge:(fun ~cycles:_ -> ())
       ~base_cost:100 ~exhausted:Worn_out
       (fun () ->
         incr runs;
         raise Flaky)
   with
  | _ -> Alcotest.fail "always-failing body returned"
  | exception Worn_out -> ());
  Alcotest.(check int) "deadline cut the budget before the attempt limit" 4 !runs;
  (* a zero deadline still allows the first attempt and one retry charge *)
  match
    Retry.with_backoff ~deadline_cycles:0 ~limit:50
      ~retryable:(function Flaky -> true | _ -> false)
      ~charge:(fun ~cycles:_ -> ())
      ~base_cost:100 ~exhausted:Worn_out
      (fun () -> raise Flaky)
  with
  | _ -> Alcotest.fail "always-failing body returned"
  | exception Worn_out -> ()

let jittered_charges ~seed ~fail_times =
  let charges = ref [] in
  let runs = ref 0 in
  let r = Oscrypto.Prng.create ~seed in
  ignore
    (Retry.with_backoff ~jitter:r ~limit:10
       ~retryable:(function Flaky -> true | _ -> false)
       ~charge:(fun ~cycles -> charges := cycles :: !charges)
       ~base_cost:100 ~exhausted:Worn_out
       (fun () ->
         incr runs;
         if !runs <= fail_times then raise Flaky;
         !runs));
  List.rev !charges

let test_retry_jitter () =
  let charges = jittered_charges ~seed:42 ~fail_times:6 in
  Alcotest.(check int) "six backoffs charged" 6 (List.length charges);
  List.iteri
    (fun a c ->
      let base = 100 * (1 lsl a) in
      Alcotest.(check bool)
        (Printf.sprintf "charge %d within [base, 2*base)" a)
        true
        (c >= base && c < 2 * base))
    charges;
  (* same prng seed, same charges: jitter keeps determinism *)
  Alcotest.(check (list int))
    "jitter is deterministic under the same prng" charges
    (jittered_charges ~seed:42 ~fail_times:6)

(* --- single-use restore and the fence --- *)

(* Capture at VMM A via the drain hook (no channel involved), adopt at
   VMM B: the blob installs exactly once there, and after A retires the
   generation (the migration fence) A refuses it too. *)
let test_drain_adopt_cross_vmm () =
  let vmm_a = fresh_vmm () in
  let ka = Kernel.create ~config:kconfig vmm_a in
  let pid = Kernel.spawn_supervised ka ~policy Harness.Migrate.service in
  let captured = ref None in
  Kernel.request_migration ka ~pid (fun blob ->
      captured := Some blob;
      Kernel.Mig_commit);
  Kernel.run ka;
  Alcotest.(check (option int))
    "source incarnation retired with the migrated status"
    (Some Kernel.migrated_exit_status)
    (Kernel.exit_status ka ~pid);
  let blob = match !captured with Some b -> b | None -> Alcotest.fail "no blob drained" in
  (* adopt on a second VMM sharing the master secret *)
  let vmm_b = Cloak.Vmm.create ~config:vconfig () in
  let kb = Kernel.create ~config:kconfig vmm_b in
  let pid_b = Kernel.adopt_migrated kb ~policy ~prog:Harness.Migrate.service blob in
  Alcotest.(check int) "pid travels with the blob" pid pid_b;
  Kernel.run kb;
  Alcotest.(check (option int)) "migrated process completes at the destination"
    (Some 0) (Kernel.exit_status kb ~pid);
  (match Fs.lookup (Kernel.fs kb) "/progress" with
  | Ok ino ->
      Alcotest.(check int) "destination finished the remaining units"
        Harness.Migrate.rounds
        (Fs.size (Kernel.fs kb) ino)
  | Error _ -> Alcotest.fail "no progress file at the destination");
  (* single-use: the destination consumed the generation at install *)
  (match Kernel.adopt_migrated kb ~policy ~prog:Harness.Migrate.service blob with
  | _ -> Alcotest.fail "blob adopted twice at the destination"
  | exception e when Migration.is_stale e -> ());
  (* the fence: once A retires the generation, A refuses the blob too *)
  let tag = Cloak.Resource.tag (Cloak.Resource.Anon pid) in
  let gen = Cloak.Vmm.seal_generation vmm_a ~tag in
  Cloak.Vmm.retire_seal_generation vmm_a ~tag ~gen;
  match Cloak.Seal.unseal vmm_a blob with
  | _ -> Alcotest.fail "source unsealed the blob after the fence"
  | exception e when Migration.is_stale e -> ()

let test_drain_abort_resumes_source () =
  let vmm = fresh_vmm () in
  let k = Kernel.create ~config:kconfig vmm in
  let pid = Kernel.spawn_supervised k ~policy Harness.Migrate.service in
  let fired = ref 0 in
  Kernel.request_migration k ~pid (fun _blob ->
      incr fired;
      Kernel.Mig_abort);
  Kernel.run k;
  Alcotest.(check int) "drain hook fired once" 1 !fired;
  Alcotest.(check (option int)) "aborted migration leaves the source running to completion"
    (Some 0) (Kernel.exit_status k ~pid);
  match Kernel.supervision_stats k ~pid with
  | Some s ->
      Alcotest.(check int) "abort surfaced in supervision stats" 1
        s.Kernel.sup_migrations_aborted;
      Alcotest.(check int) "no completion surfaced" 0 s.Kernel.sup_migrations_completed
  | None -> Alcotest.fail "supervision stats vanished"

let test_request_migration_unsupervised_rejected () =
  let vmm = fresh_vmm () in
  let k = Kernel.create ~config:kconfig vmm in
  let pid = Kernel.spawn k ~cloaked:true Harness.Migrate.service in
  match Kernel.request_migration k ~pid (fun _ -> Kernel.Mig_commit) with
  | () -> Alcotest.fail "armed a drain hook on an unsupervised pid"
  | exception Invalid_argument _ -> ()

let test_adopt_tampered_blob_refused () =
  let vmm_a = fresh_vmm () in
  let ka = Kernel.create ~config:kconfig vmm_a in
  let pid = Kernel.spawn_supervised ka ~policy Harness.Migrate.service in
  let captured = ref None in
  Kernel.request_migration ka ~pid (fun blob ->
      captured := Some blob;
      Kernel.Mig_commit);
  Kernel.run ka;
  let blob = match !captured with Some b -> b | None -> Alcotest.fail "no blob" in
  let t = Bytes.copy blob in
  let i = Bytes.length t / 2 in
  Bytes.set t i (Char.chr (Char.code (Bytes.get t i) lxor 0x10));
  let vmm_b = Cloak.Vmm.create ~config:vconfig () in
  let kb = Kernel.create ~config:kconfig vmm_b in
  match Kernel.adopt_migrated kb ~policy ~prog:Harness.Migrate.service t with
  | _ -> Alcotest.fail "tampered blob adopted"
  | exception Cloak.Violation.Security_fault _ -> ()

(* --- the full harness --- *)

(* 3 seeds of `make migrate`'s sweep through the sweep runner: every
   per-seed invariant, the channel crash matrix over those seeds, and the
   sweep-level bars (a crash point on every channel site and one after
   the fence, retries or MAC rejects, populated downtime percentiles);
   `make migrate` runs the same contract over 20 seeds. *)
let test_migration_sweep () =
  Alcotest.(check int) "3-seed migration sweep exits 0" 0
    (Harness.Sweep.run (module Harness.Migrate) ~seeds:3 ~base:1 ~verbose:false
       ~bench_out:None)

(* The same crash matrix on seeds the sweep does not draw, checked
   directly rather than through the sweep's failure list. *)
let test_crash_matrix () =
  let c = Harness.Migrate.run_crash_matrix ~seeds:[ 101; 102; 103 ] in
  (match c.Harness.Migrate.matrix_failures with
  | [] -> ()
  | (point, what) :: _ ->
      Alcotest.failf "%d crash failure(s); first: %s: %s"
        (List.length c.Harness.Migrate.matrix_failures)
        point what);
  Alcotest.(check bool) "crash points covered every channel site" true
    (c.Harness.Migrate.crash_points >= 9);
  Alcotest.(check int) "every Mig_* site got a crash point" 3
    (List.length c.Harness.Migrate.crash_sites);
  Alcotest.(check bool) "some crashes landed after the fence" true
    (c.Harness.Migrate.crash_fenced > 0)

let () =
  Alcotest.run "migrate"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "flip/truncate/cross-session rejected" `Quick
            test_codec_rejects;
          Alcotest.test_case "empty blob assembles from the offer alone" `Quick
            test_empty_blob;
        ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_mangled_stream_identical_or_refused ] );
      ( "retry",
        [
          Alcotest.test_case "deadline bounds cumulative backoff" `Quick
            test_retry_deadline;
          Alcotest.test_case "jitter bounded and deterministic" `Quick
            test_retry_jitter;
        ] );
      ( "drain-adopt",
        [
          Alcotest.test_case "cross-VMM single-use adopt + fence" `Quick
            test_drain_adopt_cross_vmm;
          Alcotest.test_case "abort resumes the source" `Quick
            test_drain_abort_resumes_source;
          Alcotest.test_case "unsupervised pid rejected" `Quick
            test_request_migration_unsupervised_rejected;
          Alcotest.test_case "tampered blob refused" `Quick
            test_adopt_tampered_blob_refused;
        ] );
      ( "hostile-channel",
        [
          Alcotest.test_case "3-seed sweep" `Slow test_migration_sweep;
          Alcotest.test_case "crash matrix on the channel sites" `Slow
            test_crash_matrix;
        ] );
    ]
