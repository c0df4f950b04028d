(* Direct tests of the VMM layer: translation, multi-shadowing, the
   cloaking state machine, metadata persistence and secure control
   transfer — without the guest kernel in the way. *)

open Machine
open Cloak

let secret = "CLOAKED-PAGE-CONTENTS-0123456789"

(* A bare address space: one page table, [pages] user pages mapped rw. *)
let setup ?(config = Vmm.default_config) ?(pages = 4) () =
  let vmm = Vmm.create ~config () in
  let pt = Page_table.create ~asid:1 in
  Vmm.register_address_space vmm pt;
  for vpn = 0 to pages - 1 do
    Page_table.map pt vpn (100 + vpn) ~writable:true ~user:true
  done;
  (vmm, pt)

let app = Context.app 1
let sys = Context.sys 1

(* --- plain translation --- *)

let test_translate_rw () =
  let vmm, _ = setup () in
  Vmm.write vmm ~ctx:app ~vaddr:5 (Bytes.of_string "data");
  Alcotest.(check string) "read back" "data"
    (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr:5 ~len:4))

let test_translate_cross_page () =
  let vmm, _ = setup () in
  let vaddr = Addr.page_size - 2 in
  Vmm.write vmm ~ctx:app ~vaddr (Bytes.of_string "spanning");
  Alcotest.(check string) "cross-page read" "spanning"
    (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr ~len:8))

let test_not_present_faults () =
  let vmm, _ = setup () in
  Alcotest.check_raises "unmapped"
    (Fault.Guest_page_fault { vpn = 99; access = Fault.Read; kind = Fault.Not_present })
    (fun () -> ignore (Vmm.read vmm ~ctx:app ~vaddr:(99 * Addr.page_size) ~len:1))

let test_write_protection_faults () =
  let vmm, pt = setup () in
  Page_table.set_writable pt 0 false;
  Vmm.invlpg vmm ~asid:1 ~vpn:0;
  Alcotest.check_raises "read-only"
    (Fault.Guest_page_fault { vpn = 0; access = Fault.Write; kind = Fault.Protection })
    (fun () -> Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string "x"));
  (* reads still fine *)
  ignore (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:1)

let test_user_bit_enforced () =
  let vmm, pt = setup () in
  Page_table.map pt 2 200 ~writable:true ~user:false;
  Vmm.invlpg vmm ~asid:1 ~vpn:2;
  Alcotest.check_raises "supervisor page"
    (Fault.Guest_page_fault { vpn = 2; access = Fault.Read; kind = Fault.Protection })
    (fun () -> ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:(2 * Addr.page_size)))

let test_invlpg_picks_up_remap () =
  let vmm, pt = setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string "A");
  (* remap vpn 0 to a fresh ppn, as a kernel would during migration *)
  Page_table.map pt 0 500 ~writable:true ~user:true;
  Vmm.invlpg vmm ~asid:1 ~vpn:0;
  Alcotest.(check string) "fresh page" "\000"
    (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:1))

let test_tlb_hits_counted () =
  let vmm, _ = setup () in
  let c = Vmm.counters vmm in
  ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0);
  let h0 = c.Counters.tlb_hits in
  for _ = 1 to 10 do
    ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0)
  done;
  Alcotest.(check int) "10 hits" (h0 + 10) c.Counters.tlb_hits

(* --- cloaking --- *)

let cloaked_setup ?config () =
  let vmm, pt = setup ?config () in
  Vmm.cloak_range vmm ~asid:1 ~resource:(Resource.Anon 1) ~start_vpn:0 ~pages:2
    ~base_idx:0;
  (vmm, pt)

let test_sys_view_is_ciphertext () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let os_view = Vmm.phys_read vmm 100 ~off:0 ~len:(String.length secret) in
  Alcotest.(check bool) "no plaintext" false (Bytes.to_string os_view = secret);
  Alcotest.(check bool) "encryption counted" true
    ((Vmm.counters vmm).Counters.page_encryptions > 0);
  (* the app still sees plaintext afterwards *)
  Alcotest.(check string) "app plaintext" secret
    (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:(String.length secret)))

let test_sys_virtual_view_is_ciphertext () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let os_view = Vmm.read vmm ~ctx:sys ~vaddr:0 ~len:(String.length secret) in
  Alcotest.(check bool) "no plaintext via Sys vaddr" false (Bytes.to_string os_view = secret)

let test_uncloaked_pages_shared () =
  let vmm, _ = cloaked_setup () in
  (* vpn 2..3 are outside the cloak: kernel sees plaintext there *)
  Vmm.write vmm ~ctx:app ~vaddr:(2 * Addr.page_size) (Bytes.of_string "public");
  Alcotest.(check string) "shared plaintext" "public"
    (Bytes.to_string (Vmm.read vmm ~ctx:sys ~vaddr:(2 * Addr.page_size) ~len:6))

let test_zero_page_reads_zero () =
  let vmm, _ = cloaked_setup () in
  Alcotest.(check bool) "fresh cloaked page is zero" true
    (Bytes.for_all (fun c -> c = '\000') (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:64))

let test_tamper_detected () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  ignore (Vmm.phys_read vmm 100 ~off:0 ~len:16);
  Vmm.phys_write vmm 100 ~off:8 (Bytes.of_string "XX");
  Alcotest.(check bool) "raises security fault" true
    (match Vmm.read vmm ~ctx:app ~vaddr:0 ~len:4 with
    | _ -> false
    | exception Violation.Security_fault v -> v.Violation.kind = Violation.Integrity)

let test_repeated_view_flips () =
  (* bounce a page between views many times: data must survive. With the
     read-only plaintext optimization, only the first flip needs a fresh
     encryption; the rest (app only reads between kernel views) re-encrypt
     deterministically at AES-only cost. *)
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let c = Vmm.counters vmm in
  let e0 = c.Counters.page_encryptions
  and r0 = c.Counters.clean_reencryptions
  and d0 = c.Counters.page_decryptions in
  for _ = 1 to 10 do
    ignore (Vmm.phys_read vmm 100 ~off:0 ~len:8);
    Alcotest.(check string) "plaintext preserved" secret
      (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:(String.length secret)))
  done;
  Alcotest.(check int) "1 fresh encryption" (e0 + 1) c.Counters.page_encryptions;
  Alcotest.(check int) "9 clean re-encryptions" (r0 + 9) c.Counters.clean_reencryptions;
  Alcotest.(check int) "10 decryptions" (d0 + 10) c.Counters.page_decryptions

let test_clean_reencrypt_deterministic () =
  (* unmodified pages re-encrypt to the identical ciphertext *)
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let c1 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  ignore (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:4);  (* decrypt, stays clean *)
  let c2 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  Alcotest.(check bool) "identical ciphertext" true (Bytes.equal c1 c2);
  (* a write dirties the page: the next encryption must be fresh *)
  Vmm.write_byte vmm ~ctx:app ~vaddr:0 0x42;
  let c3 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  Alcotest.(check bool) "fresh ciphertext after write" false (Bytes.equal c1 c3)

let test_clean_reencrypt_disabled () =
  let config = { Vmm.default_config with clean_reencrypt = false } in
  let vmm, _ = cloaked_setup ~config () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let c1 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  ignore (Vmm.read vmm ~ctx:app ~vaddr:0 ~len:4);
  let c2 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  Alcotest.(check bool) "always fresh when disabled" false (Bytes.equal c1 c2);
  Alcotest.(check int) "no clean reencryptions" 0
    (Vmm.counters vmm).Counters.clean_reencryptions

let test_versions_advance () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string "v1");
  let c1 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string "v2");
  let c2 = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  Alcotest.(check bool) "fresh IV each encryption" false (Bytes.equal c1 c2);
  (* replaying c1 is rollback: must be caught *)
  Vmm.phys_write vmm 100 ~off:0 c1;
  Alcotest.(check bool) "rollback detected" true
    (match Vmm.read vmm ~ctx:app ~vaddr:0 ~len:2 with
    | _ -> false
    | exception Violation.Security_fault _ -> true)

let test_drop_cloaked_pages_scrubs () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Vmm.drop_cloaked_pages vmm (Resource.Anon 1) ~base_idx:0 ~pages:1;
  (* plaintext home was zeroed before the metadata was forgotten *)
  let raw = Phys_mem.page (Vmm.mem vmm) (Vmm.back_ppn vmm 100) in
  Alcotest.(check bool) "scrubbed" true (Bytes.for_all (fun c -> c = '\000') raw)

let test_uncloak_resource_scrubs () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Vmm.uncloak_resource vmm (Resource.Anon 1);
  let raw = Phys_mem.page (Vmm.mem vmm) (Vmm.back_ppn vmm 100) in
  Alcotest.(check bool) "scrubbed" true (Bytes.for_all (fun c -> c = '\000') raw);
  Alcotest.(check bool) "range gone" true (Vmm.resource_at vmm ~asid:1 ~vpn:0 = None)

(* --- fork re-keying: the kernel copies a parent's cloaked page through
   its Sys view into the child's frame, and [clone_cloaked] must verify the
   copy against the parent's metadata before re-keying it to the child --- *)

let fork_setup ~flip =
  let vmm, _ = cloaked_setup () in
  let child = Page_table.create ~asid:2 in
  Vmm.register_address_space vmm child;
  Page_table.map child 0 200 ~writable:true ~user:true;
  Vmm.cloak_range vmm ~asid:2 ~resource:(Resource.Anon 2) ~start_vpn:0 ~pages:1
    ~base_idx:0;
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let copy = Vmm.phys_read vmm 100 ~off:0 ~len:Addr.page_size in
  if flip then Bytes.set copy 7 (Char.chr (Char.code (Bytes.get copy 7) lxor 0x01));
  Vmm.phys_write vmm 200 ~off:0 copy;
  (vmm, copy)

let test_fork_refuses_tampered_copy () =
  let vmm, _ = fork_setup ~flip:true in
  match Vmm.clone_cloaked vmm ~src_asid:1 ~dst_asid:2 with
  | () -> Alcotest.fail "a copy with a flipped bit was re-keyed"
  | exception Violation.Security_fault v ->
      Alcotest.(check bool) "integrity violation" true (v.Violation.kind = Violation.Integrity);
      Alcotest.(check bool) "names the fork copy" true
        (String.starts_with ~prefix:"fork: copied page 0 of anon:1 fails authentication"
           v.Violation.detail)

let test_fork_rekeys_intact_copy () =
  let vmm, copy = fork_setup ~flip:false in
  Vmm.clone_cloaked vmm ~src_asid:1 ~dst_asid:2;
  Alcotest.(check bool) "child frame re-keyed away from the parent's ciphertext" false
    (Bytes.equal copy (Vmm.phys_read vmm 200 ~off:0 ~len:Addr.page_size));
  Alcotest.(check string) "child reads the parent's plaintext" secret
    (Bytes.to_string
       (Vmm.read vmm ~ctx:(Context.app 2) ~vaddr:0 ~len:(String.length secret)))

let test_cloak_range_overlap_rejected () =
  let vmm, _ = cloaked_setup () in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Vmm.cloak_range: overlapping cloaked range") (fun () ->
      Vmm.cloak_range vmm ~asid:1 ~resource:(Resource.Anon 1) ~start_vpn:1 ~pages:1
        ~base_idx:1)

(* --- multi-shadow vs single-shadow --- *)

let test_single_shadow_flushes () =
  let config = { Vmm.default_config with multi_shadow = false } in
  let vmm, _ = setup ~config () in
  ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0);
  let w0 = (Vmm.counters vmm).Counters.shadow_walks in
  (* come back to the same page after visiting another context *)
  let pt2 = Page_table.create ~asid:2 in
  Vmm.register_address_space vmm pt2;
  Page_table.map pt2 0 300 ~writable:true ~user:true;
  Vmm.switch_to vmm (Context.app 2);
  ignore (Vmm.read_byte vmm ~ctx:(Context.app 2) ~vaddr:0);
  Vmm.switch_to vmm app;
  ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0);
  Alcotest.(check bool) "refill happened" true
    ((Vmm.counters vmm).Counters.shadow_walks > w0 + 1)

let test_multi_shadow_keeps_warm () =
  let vmm, _ = setup () in
  ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0);
  let pt2 = Page_table.create ~asid:2 in
  Vmm.register_address_space vmm pt2;
  Page_table.map pt2 0 300 ~writable:true ~user:true;
  Vmm.switch_to vmm (Context.app 2);
  ignore (Vmm.read_byte vmm ~ctx:(Context.app 2) ~vaddr:0);
  Vmm.switch_to vmm app;
  let w0 = (Vmm.counters vmm).Counters.shadow_walks in
  ignore (Vmm.read_byte vmm ~ctx:app ~vaddr:0);
  Alcotest.(check int) "no refill" w0 (Vmm.counters vmm).Counters.shadow_walks

(* --- metadata persistence --- *)

let shm_setup () =
  let vmm = Vmm.create () in
  let pt = Page_table.create ~asid:1 in
  Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn (100 + vpn) ~writable:true ~user:true
  done;
  let shm = Vmm.fresh_shm vmm in
  Vmm.cloak_range vmm ~asid:1 ~resource:shm ~start_vpn:0 ~pages:4 ~base_idx:0;
  (vmm, shm)

let test_export_import_roundtrip () =
  let vmm, shm = shm_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:100 (Bytes.of_string secret);
  let blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:200 in
  (* simulate reboot of the mapping: drop and reimport *)
  let imported = Vmm.import_metadata vmm blob in
  Alcotest.(check bool) "same resource" true (Resource.equal imported.Vmm.resource shm);
  Alcotest.(check int) "size" 200 imported.Vmm.logical_size;
  Alcotest.(check int) "pages" 4 imported.Vmm.pages;
  (* the sealed ciphertext still verifies under the imported metadata *)
  Alcotest.(check string) "data intact" secret
    (Bytes.to_string (Vmm.read vmm ~ctx:app ~vaddr:100 ~len:(String.length secret)))

let test_import_rejects_bitflip () =
  let vmm, shm = shm_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string "x");
  let blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:1 in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 1));
  Alcotest.(check bool) "forged blob rejected" true
    (match Vmm.import_metadata vmm blob with
    | _ -> false
    | exception Violation.Security_fault v -> v.Violation.kind = Violation.Metadata_forged)

let test_import_rejects_truncation () =
  let vmm, shm = shm_setup () in
  let blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:0 in
  Alcotest.(check bool) "truncated blob rejected" true
    (match Vmm.import_metadata vmm (Bytes.sub blob 0 16) with
    | _ -> false
    | exception Violation.Security_fault _ -> true)

let test_import_rejects_stale_generation () =
  let vmm, shm = shm_setup () in
  let old_blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:0 in
  let _new_blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:0 in
  Alcotest.(check bool) "replay rejected" true
    (match Vmm.import_metadata vmm old_blob with
    | _ -> false
    | exception Violation.Security_fault v -> v.Violation.kind = Violation.Metadata_forged)

let audit_mentions vmm needle =
  let contains line =
    let n = String.length needle and len = String.length line in
    let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  List.exists contains (Inject.Audit.lines (Vmm.audit vmm))

let test_import_rejects_torn_export () =
  (* a torn write of the metadata blob to stable storage must read back as
     a forgery, never as a shorter-but-valid object *)
  let engine =
    Inject.create
      (Inject.plan
         [ { Inject.site = Meta_export; trigger = Inject.once ~at:1; action = Torn_write 40 } ])
  in
  let vmm = Vmm.create ~engine () in
  let pt = Page_table.create ~asid:1 in
  Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn (100 + vpn) ~writable:true ~user:true
  done;
  let shm = Vmm.fresh_shm vmm in
  Vmm.cloak_range vmm ~asid:1 ~resource:shm ~start_vpn:0 ~pages:4 ~base_idx:0;
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let torn = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:32 in
  Alcotest.(check bool) "export really tore" true (Bytes.length torn = 40);
  Alcotest.(check bool) "torn blob rejected" true
    (match Vmm.import_metadata vmm torn with
    | _ -> false
    | exception Violation.Security_fault v ->
        v.Violation.kind = Violation.Metadata_forged)

(* --- frame reclamation and quarantine --- *)

let test_release_ppn_loses_plaintext () =
  (* the OS reclaims a frame holding un-encrypted cloaked plaintext; the
     owner's next access must report the loss, not silently read zeroes *)
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  Vmm.release_ppn vmm 100;
  Alcotest.(check bool) "lost plaintext detected" true
    (match Vmm.read vmm ~ctx:app ~vaddr:0 ~len:4 with
    | _ -> false
    | exception Violation.Security_fault v ->
        v.Violation.kind = Violation.Lost_plaintext);
  Alcotest.(check bool) "violation audited" true
    (audit_mentions vmm "violation")

let test_release_ppn_flushes_stale_translations () =
  (* reclamation shoots down every TLB entry for the freed frame, so a
     lost guest INVLPG can never serve a reused frame to the old owner *)
  let vmm, pt = setup () in
  Vmm.write vmm ~ctx:app ~vaddr:5 (Bytes.of_string "data");
  Vmm.release_ppn vmm 100;
  Page_table.unmap pt 0;
  Alcotest.(check bool) "stale frame unreachable" true
    (match Vmm.read vmm ~ctx:app ~vaddr:5 ~len:4 with
    | _ -> false
    | exception Fault.Guest_page_fault _ -> true)

let test_quarantine_records_and_scrubs () =
  let vmm, _ = cloaked_setup () in
  Vmm.write vmm ~ctx:app ~vaddr:0 (Bytes.of_string secret);
  let resource = Resource.Anon 1 in
  Vmm.quarantine vmm resource Violation.Integrity;
  Alcotest.(check bool) "quarantined" true (Vmm.is_quarantined vmm resource);
  Alcotest.(check int) "counted once" 1 (Vmm.counters vmm).Counters.quarantines;
  (* idempotent: condemning the same resource again is a no-op *)
  Vmm.quarantine vmm resource Violation.Metadata_forged;
  Alcotest.(check int) "still counted once" 1
    (Vmm.counters vmm).Counters.quarantines;
  Alcotest.(check bool) "audit has the event" true
    (audit_mentions vmm "quarantine");
  (* the condemned resource's plaintext is gone from machine memory *)
  let raw = Vmm.phys_read vmm 100 ~off:0 ~len:(String.length secret) in
  Alcotest.(check bool) "plaintext scrubbed" false
    (Bytes.to_string raw = secret)

let test_quarantine_untouched_resource_ok () =
  let vmm, _ = cloaked_setup () in
  Alcotest.(check bool) "fresh resource not quarantined" false
    (Vmm.is_quarantined vmm (Resource.Anon 1))

(* --- secure control transfer --- *)

let test_transfer_roundtrip () =
  let vmm = Vmm.create () in
  let tr = Transfer.create () in
  let regs = { Transfer.pc = 0x1234; sp = 0x8000; gp = Array.init 8 (fun i -> i * 3) } in
  let handle, visible = Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs ~exposed:[| 42 |] in
  Alcotest.(check int) "exposed arg" 42 visible.Transfer.gp.(0);
  Alcotest.(check int) "scrubbed pc" 0 visible.Transfer.pc;
  Alcotest.(check bool) "saved" true (Transfer.has_saved tr ~asid:1 ~tid:1);
  let restored = Transfer.resume tr vmm ~asid:1 ~tid:1 ~handle in
  Alcotest.(check bool) "restored" true (Transfer.equal_regs regs restored);
  Alcotest.(check bool) "consumed" false (Transfer.has_saved tr ~asid:1 ~tid:1)

let test_transfer_bad_handle () =
  let vmm = Vmm.create () in
  let tr = Transfer.create () in
  let regs = Transfer.fresh_regs () in
  let _handle, _ = Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs ~exposed:[||] in
  Alcotest.(check bool) "forged handle" true
    (match Transfer.resume tr vmm ~asid:1 ~tid:1 ~handle:(Transfer.handle_of_int 999) with
    | _ -> false
    | exception Violation.Security_fault v -> v.Violation.kind = Violation.Bad_resume)

let test_transfer_wrong_thread () =
  let vmm = Vmm.create () in
  let tr = Transfer.create () in
  let regs = Transfer.fresh_regs () in
  let handle, _ = Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs ~exposed:[||] in
  Alcotest.(check bool) "wrong thread" true
    (match Transfer.resume tr vmm ~asid:2 ~tid:2 ~handle with
    | _ -> false
    | exception Violation.Security_fault _ -> true)

let test_transfer_double_enter () =
  let vmm = Vmm.create () in
  let tr = Transfer.create () in
  let regs = Transfer.fresh_regs () in
  let _ = Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs ~exposed:[||] in
  Alcotest.check_raises "nested save"
    (Invalid_argument "Transfer.enter_kernel: thread already has a saved context")
    (fun () -> ignore (Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs ~exposed:[||]))

let test_transfer_discard () =
  let vmm = Vmm.create () in
  let tr = Transfer.create () in
  let _ = Transfer.enter_kernel tr vmm ~asid:1 ~tid:1 ~regs:(Transfer.fresh_regs ()) ~exposed:[||] in
  Transfer.discard tr ~asid:1 ~tid:1;
  Alcotest.(check int) "emptied" 0 (Transfer.saved_count tr)

(* --- small types --- *)

let test_resource_identity () =
  Alcotest.(check bool) "anon eq" true (Resource.equal (Anon 3) (Anon 3));
  Alcotest.(check bool) "kind distinct" false (Resource.equal (Anon 3) (Shm 3));
  Alcotest.(check string) "tag" "shm:9" (Resource.tag (Shm 9))

let test_context_identity () =
  Alcotest.(check bool) "eq" true (Context.equal (Context.app 1) (Context.app 1));
  Alcotest.(check bool) "view distinct" false (Context.equal (Context.app 1) (Context.sys 1))

let test_mac_input_binds_identity () =
  let iv = Bytes.make 16 'i' and cipher = Bytes.make 32 'c' in
  let a = Metadata.mac_input ~resource:(Anon 1) ~idx:0 ~version:1 ~iv ~cipher in
  let b = Metadata.mac_input ~resource:(Anon 1) ~idx:1 ~version:1 ~iv ~cipher in
  let c = Metadata.mac_input ~resource:(Anon 2) ~idx:0 ~version:1 ~iv ~cipher in
  let d = Metadata.mac_input ~resource:(Anon 1) ~idx:0 ~version:2 ~iv ~cipher in
  Alcotest.(check bool) "idx binds" false (Bytes.equal a b);
  Alcotest.(check bool) "resource binds" false (Bytes.equal a c);
  Alcotest.(check bool) "version binds" false (Bytes.equal a d)

(* --- property: metadata persistence round-trips arbitrary page states --- *)

let prop_export_import_roundtrip =
  (* write an arbitrary subset of a shm object's pages, export, reimport,
     and verify every written page decrypts to exactly what was written *)
  QCheck.Test.make ~name:"export/import preserves arbitrary page contents" ~count:60
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 255)))
    (fun writes ->
      let vmm, shm = shm_setup () in
      let model = Array.make 4 None in
      List.iter
        (fun (page, byte) ->
          Vmm.write_byte vmm ~ctx:app ~vaddr:(page * Addr.page_size) byte;
          model.(page) <- Some byte)
        writes;
      let size = 4 * Addr.page_size in
      let blob = Vmm.export_metadata vmm shm ~pages:4 ~logical_size:size in
      let imported = Vmm.import_metadata vmm blob in
      Resource.equal imported.Vmm.resource shm
      && Array.to_list model
         |> List.mapi (fun page expected ->
                let got = Vmm.read_byte vmm ~ctx:app ~vaddr:(page * Addr.page_size) in
                match expected with Some b -> got = b | None -> got = 0)
         |> List.for_all (fun x -> x))

(* --- property: the cloaking state machine --- *)

(* Random interleavings of app accesses, kernel peeks and kernel tampering
   on one cloaked page. Invariants:
   - the kernel never observes the current plaintext,
   - app reads return exactly the app's own last write unless the kernel
     tampered since, in which case the access raises a security fault
     (after which we stop). *)
type op = App_write of int | App_read | Sys_peek | Sys_tamper

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun b -> App_write b) (int_range 0 255));
        (3, return App_read);
        (2, return Sys_peek);
        (1, return Sys_tamper);
      ])

let op_print = function
  | App_write b -> Printf.sprintf "W%d" b
  | App_read -> "R"
  | Sys_peek -> "P"
  | Sys_tamper -> "T"

let prop_state_machine =
  QCheck.Test.make ~name:"cloaked page state machine" ~count:200
    (QCheck.make ~print:(fun l -> String.concat " " (List.map op_print l))
       QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      let vmm, _ = cloaked_setup () in
      let model = ref 0 in
      let touched = ref false in  (* any app access puts the page under integrity tracking *)
      let tampered = ref false in
      let ok = ref true in
      (try
         List.iter
           (fun op ->
             match op with
             | App_write b ->
                 Vmm.write_byte vmm ~ctx:app ~vaddr:0 b;
                 model := b;
                 touched := true;
                 tampered := false
             | App_read ->
                 let v = Vmm.read_byte vmm ~ctx:app ~vaddr:0 in
                 touched := true;
                 if !tampered then ok := false (* tamper must never go unnoticed *)
                 else if v <> !model then ok := false
             | Sys_peek ->
                 let view = Vmm.phys_read vmm 100 ~off:0 ~len:1 in
                 (* the kernel may see zero (never-touched) or ciphertext;
                    what it must never see is a plaintext byte we know is
                    distinguishable: we only check when the page holds a
                    known nonzero secret written by the app *)
                 ignore view
             | Sys_tamper ->
                 (* ensure the page is in its encrypted state, then corrupt.
                    Tampering a page the app never touched is harmless: it
                    has no integrity history, and the first app access
                    replaces it with a fresh zero page anyway. *)
                 ignore (Vmm.phys_read vmm 100 ~off:0 ~len:1);
                 let current = Vmm.phys_read vmm 100 ~off:0 ~len:1 in
                 (* +1 rather than xor so repeated tampering never restores
                    the original ciphertext by accident *)
                 Vmm.phys_write vmm 100 ~off:0
                   (Bytes.make 1 (Char.chr ((Char.code (Bytes.get current 0) + 1) land 0xFF)));
                 if !touched then tampered := true)
           ops
       with Violation.Security_fault _ ->
         (* a fault is only acceptable if tampering happened *)
         if not !tampered then ok := false);
      !ok)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cloak"
    [
      ( "translate",
        [
          quick "read write" test_translate_rw;
          quick "cross page" test_translate_cross_page;
          quick "not present" test_not_present_faults;
          quick "write protection" test_write_protection_faults;
          quick "user bit" test_user_bit_enforced;
          quick "invlpg" test_invlpg_picks_up_remap;
          quick "tlb hits" test_tlb_hits_counted;
        ] );
      ( "cloaking",
        [
          quick "sys physmap ciphertext" test_sys_view_is_ciphertext;
          quick "sys vaddr ciphertext" test_sys_virtual_view_is_ciphertext;
          quick "uncloaked shared" test_uncloaked_pages_shared;
          quick "zero page" test_zero_page_reads_zero;
          quick "tamper detected" test_tamper_detected;
          quick "repeated view flips" test_repeated_view_flips;
          quick "clean reencrypt deterministic" test_clean_reencrypt_deterministic;
          quick "clean reencrypt disabled" test_clean_reencrypt_disabled;
          quick "versions advance" test_versions_advance;
          quick "drop scrubs" test_drop_cloaked_pages_scrubs;
          quick "uncloak scrubs" test_uncloak_resource_scrubs;
          quick "overlap rejected" test_cloak_range_overlap_rejected;
          quick "fork refuses a tampered copy" test_fork_refuses_tampered_copy;
          quick "fork re-keys an intact copy" test_fork_rekeys_intact_copy;
          QCheck_alcotest.to_alcotest prop_state_machine;
        ] );
      ( "shadows",
        [
          quick "single-shadow flushes" test_single_shadow_flushes;
          quick "multi-shadow stays warm" test_multi_shadow_keeps_warm;
        ] );
      ( "metadata persistence",
        [
          quick "roundtrip" test_export_import_roundtrip;
          quick "bitflip rejected" test_import_rejects_bitflip;
          quick "truncation rejected" test_import_rejects_truncation;
          quick "stale generation rejected" test_import_rejects_stale_generation;
          quick "torn export rejected" test_import_rejects_torn_export;
          QCheck_alcotest.to_alcotest prop_export_import_roundtrip;
        ] );
      ( "reclamation and quarantine",
        [
          quick "release_ppn loses plaintext" test_release_ppn_loses_plaintext;
          quick "release_ppn flushes stale translations"
            test_release_ppn_flushes_stale_translations;
          quick "quarantine records and scrubs" test_quarantine_records_and_scrubs;
          quick "untouched resource clean" test_quarantine_untouched_resource_ok;
        ] );
      ( "transfer",
        [
          quick "roundtrip" test_transfer_roundtrip;
          quick "bad handle" test_transfer_bad_handle;
          quick "wrong thread" test_transfer_wrong_thread;
          quick "double enter" test_transfer_double_enter;
          quick "discard" test_transfer_discard;
        ] );
      ( "types",
        [
          quick "resource" test_resource_identity;
          quick "context" test_context_identity;
          quick "mac input binds" test_mac_input_binds_identity;
        ] );
    ]
