(* Crash consistency: the metadata journal's write-ahead discipline, the
   recovery replay's committed/redone/torn classification, and the
   crash-point matrix over seeded workloads. Plus the satellite robustness
   checks that ride along: typed block-device errors and export blob
   truncation/reordering. *)

open Machine
open Guest

let jkey = Bytes.init 32 (fun i -> Char.chr (i * 7 mod 256))

(* An in-memory journal store with a write counter, for unit tests. *)
let mem_store ?(blocks = 12) () =
  let data = Array.init blocks (fun _ -> Bytes.make 512 '\000') in
  let store =
    {
      Cloak.Journal.blocks;
      block_size = 512;
      read = (fun b -> Bytes.copy data.(b));
      write = (fun b d -> data.(b) <- Bytes.copy d);
    }
  in
  (store, data)

let iv = Bytes.make 16 'i'
let mac = Bytes.make 32 'm'

let upd tag idx = Cloak.Journal.Update { tag; idx; version = 1; iv; mac }
let intent tag idx block = Cloak.Journal.Intent { tag; idx; dev = "disk"; block }
let commit tag idx block = Cloak.Journal.Commit { tag; idx; dev = "disk"; block }

(* --- journal unit tests --- *)

let test_journal_roundtrip () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:9" 0);
  Cloak.Journal.record j (intent "shm:9" 0 42);
  Cloak.Journal.record j (commit "shm:9" 0 42);
  Cloak.Journal.record j (upd "shm:9" 1);
  Cloak.Journal.record j (intent "shm:9" 1 43);
  Cloak.Journal.record j
    (Cloak.Journal.Generation { id = 9; gen = 3; size = 100; pages = 2 });
  let r = Cloak.Journal.load ~key:jkey store in
  let st = r.Cloak.Journal.rstate in
  Alcotest.(check int) "replayed the log tail" 6 r.Cloak.Journal.replayed;
  Alcotest.(check bool) "page 0 committed" true
    (Hashtbl.find_opt st.binds ("shm:9", 0)
    = Some { Cloak.Journal.dev = "disk"; block = 42 });
  Alcotest.(check bool) "page 1 still in flight" true
    (Hashtbl.find_opt st.inflight ("shm:9", 1)
    = Some { Cloak.Journal.dev = "disk"; block = 43 });
  Alcotest.(check bool) "page 1 has no committed bind" true
    (Hashtbl.find_opt st.binds ("shm:9", 1) = None);
  Alcotest.(check bool) "generation restored" true
    (Hashtbl.find_opt st.gens 9 = Some (3, 100, 2))

let test_journal_update_invalidates_bind () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:1" 0);
  Cloak.Journal.record j (intent "shm:1" 0 7);
  Cloak.Journal.record j (commit "shm:1" 0 7);
  (* a re-encryption makes the durable ciphertext stale *)
  Cloak.Journal.record j (upd "shm:1" 0);
  let st = (Cloak.Journal.load ~key:jkey store).Cloak.Journal.rstate in
  Alcotest.(check bool) "bind invalidated by fresh encryption" true
    (Hashtbl.find_opt st.binds ("shm:1", 0) = None)

let test_journal_freed_removes_binds () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:1" 0);
  Cloak.Journal.record j (intent "shm:1" 0 7);
  Cloak.Journal.record j (commit "shm:1" 0 7);
  Alcotest.(check bool) "block referenced before the free" true
    (Cloak.Journal.references_block j ~dev:"disk" ~block:7);
  Cloak.Journal.record j (Cloak.Journal.Freed { dev = "disk"; block = 7 });
  Alcotest.(check bool) "block unreferenced after the free" false
    (Cloak.Journal.references_block j ~dev:"disk" ~block:7);
  let st = (Cloak.Journal.load ~key:jkey store).Cloak.Journal.rstate in
  Alcotest.(check bool) "freed block's bind gone" true
    (Hashtbl.find_opt st.binds ("shm:1", 0) = None)

let test_journal_checkpoint_compacts () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~ckpt_every:4 ~key:jkey store in
  for i = 0 to 9 do
    Cloak.Journal.record j (upd "shm:2" i)
  done;
  Alcotest.(check bool) "cadence checkpoints happened" true
    (Cloak.Journal.checkpoints_taken j >= 2);
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check bool) "log tail shorter than history" true
    (r.Cloak.Journal.replayed < 10);
  Alcotest.(check int) "all ten pages survive compaction" 10
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

let test_journal_epoch_advances_across_attach () =
  let store, _ = mem_store () in
  let j1 = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j1 (upd "shm:3" 0);
  let e1 = Cloak.Journal.epoch j1 in
  let j2 = Cloak.Journal.attach ~key:jkey store in
  Alcotest.(check bool) "epoch advanced" true (Cloak.Journal.epoch j2 > e1);
  Alcotest.(check bool) "state survived the re-attach" true
    (Cloak.Journal.knows j2 ~tag:"shm:3" ~idx:0)

let test_journal_torn_tail_truncates () =
  let store, data = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:4" 0);
  Cloak.Journal.record j (intent "shm:4" 0 9);
  Cloak.Journal.record j (commit "shm:4" 0 9);
  (* corrupt the first log block: every post-checkpoint record sits behind
     a now-broken chain MAC *)
  let log_start = 2 + (2 * max 1 ((Array.length data - 2) / 4)) in
  Bytes.set data.(log_start) 0 '\xff';
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "replay stops at the first bad frame" 0
    r.Cloak.Journal.replayed;
  Alcotest.(check int) "no forged state accepted" 0
    (Hashtbl.length r.Cloak.Journal.rstate.binds)

let test_journal_blank_and_garbage_store () =
  let store, data = mem_store () in
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "blank store recovers empty" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages);
  Array.iteri (fun i _ -> data.(i) <- Bytes.make 512 '\x5a') data;
  let r = Cloak.Journal.load ~key:jkey store in
  Alcotest.(check int) "garbage store recovers empty, never raises" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

let test_journal_too_small () =
  let store, _ = mem_store ~blocks:(Cloak.Journal.min_blocks - 1) () in
  Alcotest.(check bool) "undersized store rejected" true
    (match Cloak.Journal.attach ~key:jkey store with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_journal_wrong_key_recovers_nothing () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:5" 0);
  let other = Bytes.make 32 'k' in
  let r = Cloak.Journal.load ~key:other store in
  Alcotest.(check int) "foreign key sees nothing" 0
    (Hashtbl.length r.Cloak.Journal.rstate.pages)

(* Re-attaching compacts the whole state into one checkpoint, so loading
   it back must rebuild the bind, the intent beside it and both generation
   tables with nothing left to replay. A commit loaded before its page's
   update would lose the bind, which pins the checkpoint's record order. *)
let test_journal_checkpoint_carries_full_state () =
  let store, _ = mem_store () in
  let j = Cloak.Journal.attach ~key:jkey store in
  Cloak.Journal.record j (upd "shm:6" 0);
  Cloak.Journal.record j (intent "shm:6" 0 11);
  Cloak.Journal.record j (commit "shm:6" 0 11);
  Cloak.Journal.record j (intent "shm:6" 0 12);
  Cloak.Journal.record j (Cloak.Journal.Generation { id = 6; gen = 4; size = 100; pages = 1 });
  Cloak.Journal.record j (Cloak.Journal.Seal { tag = "anon:3"; gen = 2 });
  ignore (Cloak.Journal.attach ~key:jkey store);
  let r = Cloak.Journal.load ~key:jkey store in
  let st = r.Cloak.Journal.rstate in
  Alcotest.(check int) "everything came from the checkpoint" 0 r.Cloak.Journal.replayed;
  Alcotest.(check bool) "page metadata kept" true (Hashtbl.mem st.pages ("shm:6", 0));
  Alcotest.(check bool) "committed bind kept" true
    (Hashtbl.find_opt st.binds ("shm:6", 0)
    = Some { Cloak.Journal.dev = "disk"; block = 11 });
  Alcotest.(check bool) "intent kept beside the bind" true
    (Hashtbl.find_opt st.inflight ("shm:6", 0)
    = Some { Cloak.Journal.dev = "disk"; block = 12 });
  Alcotest.(check bool) "generation kept" true (Hashtbl.find_opt st.gens 6 = Some (4, 100, 1));
  Alcotest.(check (option int)) "seal generation kept" (Some 2)
    (Hashtbl.find_opt st.seals "anon:3")

(* --- crash-point matrix (the tentpole acceptance, smaller here; the CI
   target runs the full 20-seed sweep through the CLI) --- *)

let test_crash_matrix () =
  let reports =
    List.map
      (fun seed -> Harness.Crash.run_seed ~seed)
      (Harness.Sweep.seeds_from ~base:11 ~count:5)
  in
  let failures =
    List.concat_map
      (fun (r : Harness.Crash.seed_report) -> List.map (fun f -> (r.seed, f)) r.failures)
      reports
  in
  Alcotest.(check (list (pair int string))) "no invariant failures" [] failures;
  let outcomes = List.concat_map (fun r -> r.Harness.Crash.outcomes) reports in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  Alcotest.(check bool) "every sampled point actually crashed" true
    (List.for_all (fun o -> o.Harness.Crash.crashed) outcomes);
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "site %s covered" (Inject.site_to_string site))
        true
        (List.exists (fun o -> o.Harness.Crash.point.site = site) outcomes))
    Harness.Crash.crash_sites;
  Alcotest.(check bool) "matrix saw committed data" true
    (sum (fun o -> o.Harness.Crash.committed) > 0);
  Alcotest.(check bool) "matrix saw torn pages quarantined" true
    (sum (fun o -> o.Harness.Crash.torn) > 0
    && sum (fun o -> o.Harness.Crash.quarantined) > 0)

(* The one crash-point sampler behind both crash matrices, over every
   small (per_site, total) pair: one point per site at per_site = 1 (no
   division by zero), every occurrence when per_site >= total, otherwise
   distinct points spanning both ends. *)
let test_sampler () =
  for per_site = 1 to 8 do
    for total = 0 to 40 do
      let pts = Harness.Crash.sample ~per_site total in
      let name = Printf.sprintf "per_site=%d total=%d" per_site total in
      if total = 0 then Alcotest.(check (list int)) name [] pts
      else if per_site = 1 then Alcotest.(check int) name 1 (List.length pts)
      else if per_site >= total then
        Alcotest.(check (list int)) name (List.init total (fun i -> i + 1)) pts
      else begin
        Alcotest.(check int) (name ^ " distinct") per_site
          (List.length (List.sort_uniq compare pts));
        Alcotest.(check bool) (name ^ " spans 1..total") true
          (List.mem 1 pts && List.mem total pts
          && List.for_all (fun p -> p >= 1 && p <= total) pts)
      end
    done
  done

let test_crash_point_deterministic () =
  let point = { Harness.Crash.site = Inject.Blk_write; occurrence = 23 } in
  let a = Harness.Crash.run_point ~seed:1 point in
  let b = Harness.Crash.run_point ~seed:1 point in
  Alcotest.(check (list string)) "same crash, same story" a.Harness.Crash.audit
    b.Harness.Crash.audit

let test_recovery_of_clean_run () =
  (* no crash: everything synced must come back committed, nothing torn *)
  let o =
    Harness.Crash.run_point ~seed:5
      { Harness.Crash.site = Inject.Jrnl_append; occurrence = 100_000 }
  in
  Alcotest.(check bool) "no power cut fired" false o.Harness.Crash.crashed;
  Alcotest.(check (list string)) "invariants hold" [] o.Harness.Crash.failures;
  Alcotest.(check int) "nothing torn" 0 o.Harness.Crash.torn;
  Alcotest.(check bool) "committed pages recovered" true
    (o.Harness.Crash.committed >= o.Harness.Crash.ledger_committed
    && o.Harness.Crash.ledger_committed > 0)

(* --- the commit rule: only a clean transfer earns a Commit ---

   A journaled kernel runs a cloaked process that saves a 2-page protected
   file and syncs it, so the file's writeback carries both pages to the
   disk under the journal's intent/commit protocol. When the device
   mangles or holds back every data write, both pages must stay intents:
   the log may never record a transfer that did not land. *)

let commit_rule_run action =
  let rules =
    match action with
    | None -> []
    | Some action -> [ { Inject.site = Inject.Blk_write; trigger = Inject.always; action } ]
  in
  let vmm = Cloak.Vmm.create ~engine:(Inject.create (Inject.plan ~seed:1 rules)) () in
  let k = Kernel.create ~config:{ Kernel.default_config with journal_blocks = 16 } vmm in
  let saver env =
    let u = Uapi.of_env env in
    let sh = Oshim.Shim.install u in
    let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:2 in
    Oshim.Shim_io.write sh f ~pos:0 (Bytes.make (2 * Addr.page_size) 'v');
    Oshim.Shim_io.save sh f;
    Uapi.sync u;
    Uapi.exit u 0
  in
  let pid = Kernel.spawn k ~cloaked:true saver in
  Kernel.run k;
  Alcotest.(check (option int)) "saver exited cleanly" (Some 0) (Kernel.exit_status k ~pid);
  let st =
    match Cloak.Vmm.journal vmm with
    | Some j -> Cloak.Journal.state j
    | None -> Alcotest.fail "kernel booted without a journal"
  in
  let pages = Hashtbl.fold (fun key _ acc -> key :: acc) st.pages [] in
  Alcotest.(check int) "both file pages journaled" 2 (List.length pages);
  let count tbl = List.length (List.filter (Hashtbl.mem tbl) pages) in
  (count st.inflight, count st.binds)

let test_commit_rule () =
  Alcotest.(check (pair int int)) "clean transfers: both committed, no intent" (0, 2)
    (commit_rule_run None);
  List.iter
    (fun (name, action) ->
      Alcotest.(check (pair int int))
        (name ^ ": both pages stay intents, no commit")
        (2, 0)
        (commit_rule_run (Some action)))
    [ ("bit flip", Inject.Bit_flip 100); ("torn write", Inject.Torn_write 2048);
      ("reorder", Inject.Reorder) ]

(* --- satellite: typed block-device errors --- *)

let mk_dev ?(reserve = 0) blocks =
  let vmm = Cloak.Vmm.create () in
  (vmm, Blockdev.create ~reserve ~vmm ~blocks ())

let expect_bad_block name f =
  Alcotest.(check bool) name true
    (match f () with _ -> false | exception Blockdev.Bad_block _ -> true)

let test_blockdev_bounds () =
  let _, dev = mk_dev 8 in
  expect_bad_block "negative block" (fun () -> Blockdev.peek dev (-1));
  expect_bad_block "block past the end" (fun () -> Blockdev.peek dev 8);
  expect_bad_block "free out of range" (fun () -> Blockdev.free_block dev 9);
  expect_bad_block "raw write out of range" (fun () ->
      Blockdev.write_raw dev 8 (Bytes.make Addr.page_size 'x'))

let test_blockdev_reserved_region () =
  let vmm, dev = mk_dev ~reserve:4 16 in
  ignore vmm;
  Alcotest.(check int) "reservation visible" 4 (Blockdev.reserved dev);
  Alcotest.(check bool) "allocation skips the journal region" true
    (Blockdev.alloc_block dev >= 4);
  expect_bad_block "data write into the journal region" (fun () ->
      Blockdev.write_block dev 2 ~ppn:0);
  expect_bad_block "data read from the journal region" (fun () ->
      Blockdev.read_block dev 2 ~ppn:0);
  expect_bad_block "freeing a journal block" (fun () -> Blockdev.free_block dev 1);
  (* the journal itself uses the raw path, which may touch the region *)
  Blockdev.write_raw dev 1 (Bytes.make Addr.page_size 'j');
  Alcotest.(check bool) "raw journal write landed" true
    (Bytes.get (Blockdev.peek dev 1) 0 = 'j')

let test_blockdev_double_free () =
  let _, dev = mk_dev 8 in
  let b = Blockdev.alloc_block dev in
  Blockdev.free_block dev b;
  Alcotest.(check bool) "double free is a typed error" true
    (match Blockdev.free_block dev b with
    | () -> false
    | exception Blockdev.Bad_block { op = "free"; block; _ } -> block = b);
  expect_bad_block "freeing a never-allocated block" (fun () ->
      Blockdev.free_block dev 7)

(* --- satellite: export blob truncation and reordering --- *)

let secret = "journal-satellite-secret-page!!!"
let app = Cloak.Context.app 1

let shm_setup ?store () =
  let vmm = Cloak.Vmm.create () in
  Option.iter (fun store -> ignore (Cloak.Vmm.attach_journal vmm ~store)) store;
  let pt = Page_table.create ~asid:1 in
  Cloak.Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn (100 + vpn) ~writable:true ~user:true
  done;
  let shm = Cloak.Vmm.fresh_shm vmm in
  Cloak.Vmm.cloak_range vmm ~asid:1 ~resource:shm ~start_vpn:0 ~pages:4 ~base_idx:0;
  (vmm, shm)

let rejected vmm blob =
  match Cloak.Vmm.import_metadata vmm blob with
  | _ -> false
  | exception Cloak.Violation.Security_fault v ->
      v.Cloak.Violation.kind = Cloak.Violation.Metadata_forged

let test_import_rejects_every_truncation_class () =
  let vmm, shm = shm_setup () in
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:Addr.page_size (Bytes.of_string secret);
  let blob = Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64 in
  let n = Bytes.length blob in
  List.iter
    (fun keep ->
      Alcotest.(check bool)
        (Printf.sprintf "truncation to %d bytes rejected" keep)
        true
        (rejected vmm (Bytes.sub blob 0 keep)))
    [ 0; 1; n / 4; n / 2; n - 33; n - 32; n - 1 ]

let test_import_rejects_record_reordering () =
  let vmm, shm = shm_setup () in
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Cloak.Vmm.write vmm ~ctx:app ~vaddr:Addr.page_size (Bytes.of_string "other-page");
  let blob = Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64 in
  (* page records are fixed 65-byte cells after the header line: swapping
     two of them is the "give page 1 page 0's metadata" splice attack *)
  let header_end = 1 + Bytes.index blob '\n' in
  let cell = 65 in
  let swapped = Bytes.copy blob in
  Bytes.blit blob (header_end + cell) swapped header_end cell;
  Bytes.blit blob header_end swapped (header_end + cell) cell;
  Alcotest.(check bool) "reordered page records rejected" true (rejected vmm swapped);
  (* sanity: the unmodified blob still imports *)
  ignore (Cloak.Vmm.import_metadata vmm (Cloak.Vmm.export_metadata vmm shm ~pages:4 ~logical_size:64))

(* A same-seed VMM that re-attaches a journal takes on the shm metadata
   generations and shm ids it records, not only its seal generations:
   otherwise the older metadata blob would import as fresh, a rollback of
   protected-file metadata across a reboot. *)
let test_reattach_keeps_freshness () =
  let store, _ = mem_store ~blocks:16 () in
  let a, shm = shm_setup ~store () in
  Cloak.Vmm.write a ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let old_blob = Cloak.Vmm.export_metadata a shm ~pages:4 ~logical_size:64 in
  ignore (Cloak.Vmm.export_metadata a shm ~pages:4 ~logical_size:64);
  ignore (Cloak.Vmm.bump_seal_generation a ~tag:"anon:5");
  ignore (Cloak.Vmm.bump_seal_generation a ~tag:"anon:5");
  Alcotest.(check bool) "the exporting VMM refuses the older blob" true
    (rejected a old_blob);
  let b = Cloak.Vmm.create () in
  ignore (Cloak.Vmm.attach_journal b ~store);
  Alcotest.(check int) "seal generation inherited" 2
    (Cloak.Vmm.seal_generation b ~tag:"anon:5");
  Alcotest.(check string) "a fresh shm id, not a journaled one" "shm:2"
    (Cloak.Resource.tag (Cloak.Vmm.fresh_shm b));
  Alcotest.(check bool) "the re-attached VMM refuses the older blob" true
    (rejected b old_blob)

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "record/load round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "update invalidates bind" `Quick
            test_journal_update_invalidates_bind;
          Alcotest.test_case "freed removes binds" `Quick
            test_journal_freed_removes_binds;
          Alcotest.test_case "checkpoints compact" `Quick
            test_journal_checkpoint_compacts;
          Alcotest.test_case "epoch advances across attach" `Quick
            test_journal_epoch_advances_across_attach;
          Alcotest.test_case "torn tail truncates" `Quick
            test_journal_torn_tail_truncates;
          Alcotest.test_case "blank/garbage store" `Quick
            test_journal_blank_and_garbage_store;
          Alcotest.test_case "undersized store rejected" `Quick test_journal_too_small;
          Alcotest.test_case "wrong key recovers nothing" `Quick
            test_journal_wrong_key_recovers_nothing;
          Alcotest.test_case "checkpoint carries the full state" `Quick
            test_journal_checkpoint_carries_full_state;
          Alcotest.test_case "re-attach keeps metadata freshness" `Quick
            test_reattach_keeps_freshness;
        ] );
      ( "crash-matrix",
        [
          Alcotest.test_case "invariants over 5 seeds" `Slow test_crash_matrix;
          Alcotest.test_case "crash point deterministic" `Quick
            test_crash_point_deterministic;
          Alcotest.test_case "clean run recovers everything" `Quick
            test_recovery_of_clean_run;
          Alcotest.test_case "sampler edge cases" `Quick test_sampler;
        ] );
      ( "commit-rule",
        [
          Alcotest.test_case "only a clean transfer commits" `Quick test_commit_rule;
        ] );
      ( "blockdev-errors",
        [
          Alcotest.test_case "bounds" `Quick test_blockdev_bounds;
          Alcotest.test_case "reserved region" `Quick test_blockdev_reserved_region;
          Alcotest.test_case "double free" `Quick test_blockdev_double_free;
        ] );
      ( "metadata-blob",
        [
          Alcotest.test_case "truncation classes rejected" `Quick
            test_import_rejects_every_truncation_class;
          Alcotest.test_case "record reordering rejected" `Quick
            test_import_rejects_record_reordering;
        ] );
    ]
