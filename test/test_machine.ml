(* Unit and property tests for the machine substrate: address arithmetic,
   physical memory, guest page tables, the TLB model, cost accounting. *)

open Machine

(* --- Addr --- *)

let test_addr_split () =
  Alcotest.(check int) "page size" 4096 Addr.page_size;
  let va = (7 * Addr.page_size) + 123 in
  Alcotest.(check int) "vpn" 7 (Addr.vpn_of_vaddr va);
  Alcotest.(check int) "offset" 123 (Addr.offset_of_vaddr va);
  Alcotest.(check int) "rebuild" (7 * Addr.page_size) (Addr.vaddr_of_vpn 7)

let test_pages_spanned () =
  Alcotest.(check int) "zero len" 0 (Addr.pages_spanned 100 0);
  Alcotest.(check int) "within page" 1 (Addr.pages_spanned 100 100);
  Alcotest.(check int) "exact page" 1 (Addr.pages_spanned 0 Addr.page_size);
  Alcotest.(check int) "crossing" 2 (Addr.pages_spanned (Addr.page_size - 1) 2);
  Alcotest.(check int) "three pages" 3
    (Addr.pages_spanned (Addr.page_size / 2) (2 * Addr.page_size))

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"vaddr = vpn*psize + offset" ~count:500
    QCheck.(int_range 0 ((1 lsl 40) - 1))
    (fun va ->
      Addr.vaddr_of_vpn (Addr.vpn_of_vaddr va) + Addr.offset_of_vaddr va = va)

(* --- Phys_mem --- *)

let test_phys_alloc_zeroed () =
  let mem = Phys_mem.create ~pages:4 () in
  let mpn = Phys_mem.alloc mem in
  Alcotest.(check bool) "zero filled" true
    (Bytes.for_all (fun c -> c = '\000') (Phys_mem.page mem mpn))

let test_phys_rw () =
  let mem = Phys_mem.create ~pages:4 () in
  let mpn = Phys_mem.alloc mem in
  Phys_mem.write mem mpn ~off:100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Phys_mem.read mem mpn ~off:100 ~len:5));
  Phys_mem.set_byte mem mpn ~off:0 0xAB;
  Alcotest.(check int) "byte" 0xAB (Phys_mem.get_byte mem mpn ~off:0)

let test_phys_free_scrubs () =
  let mem = Phys_mem.create ~pages:1 () in
  let mpn = Phys_mem.alloc mem in
  Phys_mem.write mem mpn ~off:0 (Bytes.of_string "secret");
  Phys_mem.free mem mpn;
  Alcotest.(check bool) "deallocated" false (Phys_mem.allocated mem mpn);
  (* the only page comes back on realloc: must be clean *)
  let mpn2 = Phys_mem.alloc mem in
  Alcotest.(check bool) "scrubbed" true
    (Bytes.for_all (fun c -> c = '\000') (Phys_mem.page mem mpn2))

let test_phys_oom () =
  let mem = Phys_mem.create ~pages:2 () in
  let _ = Phys_mem.alloc mem and _ = Phys_mem.alloc mem in
  Alcotest.check_raises "exhausted" Phys_mem.Out_of_memory (fun () ->
      ignore (Phys_mem.alloc mem))

let test_phys_fresh_first () =
  (* freed MPNs are not recycled while fresh ones remain: dangling homes in
     cloak metadata must point at unallocated pages *)
  let mem = Phys_mem.create ~pages:3 () in
  let a = Phys_mem.alloc mem in
  Phys_mem.free mem a;
  let b = Phys_mem.alloc mem in
  Alcotest.(check bool) "fresh page preferred" true (b <> a)

let test_phys_copy_page () =
  let mem = Phys_mem.create ~pages:2 () in
  let a = Phys_mem.alloc mem and b = Phys_mem.alloc mem in
  Phys_mem.write mem a ~off:0 (Bytes.of_string "payload");
  Phys_mem.copy_page mem ~src:a ~dst:b;
  Alcotest.(check string) "copied" "payload"
    (Bytes.to_string (Phys_mem.read mem b ~off:0 ~len:7))

let test_phys_bounds () =
  let mem = Phys_mem.create ~pages:1 () in
  let mpn = Phys_mem.alloc mem in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Phys_mem.read: out of page bounds") (fun () ->
      ignore (Phys_mem.read mem mpn ~off:4090 ~len:10));
  Alcotest.check_raises "load bad size"
    (Invalid_argument "Phys_mem.load_page: buffer must be one page") (fun () ->
      Phys_mem.load_page mem mpn (Bytes.create 10))

(* --- Page_table --- *)

let test_pt_basic () =
  let pt = Page_table.create ~asid:7 in
  Alcotest.(check int) "asid" 7 (Page_table.asid pt);
  Page_table.map pt 10 100 ~writable:true ~user:true;
  (match Page_table.lookup pt 10 with
  | Some pte ->
      Alcotest.(check int) "ppn" 100 pte.Page_table.ppn;
      Alcotest.(check bool) "writable" true pte.Page_table.writable
  | None -> Alcotest.fail "mapping missing");
  Alcotest.(check int) "count" 1 (Page_table.mapped_count pt);
  Page_table.unmap pt 10;
  Alcotest.(check bool) "unmapped" true (Page_table.lookup pt 10 = None)

let test_pt_set_writable () =
  let pt = Page_table.create ~asid:1 in
  Page_table.map pt 5 50 ~writable:true ~user:true;
  Page_table.set_writable pt 5 false;
  (match Page_table.lookup pt 5 with
  | Some pte -> Alcotest.(check bool) "now RO" false pte.Page_table.writable
  | None -> Alcotest.fail "missing");
  Alcotest.check_raises "missing vpn" Not_found (fun () ->
      Page_table.set_writable pt 99 true)

let test_pt_find_ppn () =
  let pt = Page_table.create ~asid:1 in
  Page_table.map pt 5 50 ~writable:true ~user:true;
  Page_table.map pt 6 60 ~writable:true ~user:true;
  Alcotest.(check (option int)) "reverse hit" (Some 6) (Page_table.find_ppn pt 60);
  Alcotest.(check (option int)) "reverse miss" None (Page_table.find_ppn pt 70)

let test_pt_replace () =
  let pt = Page_table.create ~asid:1 in
  Page_table.map pt 5 50 ~writable:true ~user:true;
  Page_table.map pt 5 51 ~writable:false ~user:true;
  match Page_table.lookup pt 5 with
  | Some pte ->
      Alcotest.(check int) "replaced ppn" 51 pte.Page_table.ppn;
      Alcotest.(check bool) "replaced prot" false pte.Page_table.writable;
      Alcotest.(check int) "still one entry" 1 (Page_table.mapped_count pt)
  | None -> Alcotest.fail "missing"

(* --- Tlb --- *)

let entry shadow vpn mpn = { Tlb.shadow; vpn; mpn; writable = true }

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~slots:16 () in
  Alcotest.(check bool) "cold miss" true (Tlb.lookup tlb ~shadow:0 ~vpn:3 = None);
  Tlb.insert tlb (entry 0 3 42);
  (match Tlb.lookup tlb ~shadow:0 ~vpn:3 with
  | Some e -> Alcotest.(check int) "mpn" 42 e.Tlb.mpn
  | None -> Alcotest.fail "expected hit");
  (* same vpn under another shadow is a distinct entry *)
  Alcotest.(check bool) "other shadow misses" true (Tlb.lookup tlb ~shadow:1 ~vpn:3 = None)

let test_tlb_flushes () =
  let tlb = Tlb.create ~slots:16 () in
  Tlb.insert tlb (entry 0 1 10);
  Tlb.insert tlb (entry 1 2 20);
  Tlb.flush_shadow tlb ~shadow:0;
  Alcotest.(check bool) "shadow 0 gone" true (Tlb.lookup tlb ~shadow:0 ~vpn:1 = None);
  Alcotest.(check bool) "shadow 1 kept" true (Tlb.lookup tlb ~shadow:1 ~vpn:2 <> None);
  Tlb.flush_vpn tlb ~vpn:2;
  Alcotest.(check bool) "vpn 2 gone" true (Tlb.lookup tlb ~shadow:1 ~vpn:2 = None);
  Tlb.insert tlb (entry 0 1 10);
  Tlb.flush_all tlb;
  Alcotest.(check bool) "all gone" true (Tlb.lookup tlb ~shadow:0 ~vpn:1 = None)

let test_tlb_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Tlb.create: slots must be a positive power of two") (fun () ->
      ignore (Tlb.create ~slots:3 ()))

let prop_tlb_insert_lookup =
  QCheck.Test.make ~name:"lookup finds the latest insert" ~count:300
    QCheck.(pair (int_range 0 7) (int_range 0 100_000))
    (fun (shadow, vpn) ->
      let tlb = Tlb.create ~slots:64 () in
      Tlb.insert tlb (entry shadow vpn 7);
      match Tlb.lookup tlb ~shadow ~vpn with Some e -> e.Tlb.mpn = 7 | None -> false)

(* --- Cost --- *)

let test_cost_accounting () =
  let acct = Cost.create () in
  Cost.charge acct 100;
  Cost.charge acct 23;
  Alcotest.(check int) "sum" 123 (Cost.cycles acct);
  Cost.reset acct;
  Alcotest.(check int) "reset" 0 (Cost.cycles acct)

let test_cost_crypto_charge () =
  let acct = Cost.create () in
  let m = Cost.model acct in
  Cost.charge_crypto_page acct ~bytes_count:4096 ~hash:true;
  Alcotest.(check int) "aes+sha" ((m.Cost.aes_byte + m.Cost.sha_byte) * 4096)
    (Cost.cycles acct);
  Cost.reset acct;
  Cost.charge_crypto_page acct ~bytes_count:4096 ~hash:false;
  Alcotest.(check int) "aes only" (m.Cost.aes_byte * 4096) (Cost.cycles acct)

(* --- Counters --- *)

let test_counters_diff () =
  let c = Counters.create () in
  c.Counters.syscalls <- 5;
  let snap = Counters.snapshot c in
  c.Counters.syscalls <- 12;
  c.Counters.tlb_hits <- 3;
  let d = Counters.diff ~after:c ~before:snap in
  Alcotest.(check int) "syscalls delta" 7 d.Counters.syscalls;
  Alcotest.(check int) "tlb delta" 3 d.Counters.tlb_hits;
  Counters.reset c;
  Alcotest.(check int) "reset" 0 c.Counters.syscalls

let test_counters_rows () =
  let c = Counters.create () in
  c.Counters.page_encryptions <- 9;
  let rows = Counters.to_assoc c in
  Alcotest.(check (option int)) "row value" (Some 9) (List.assoc_opt "page_encryptions" rows);
  Alcotest.(check int) "all fields present" 28 (List.length rows)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "machine"
    [
      ( "addr",
        [
          quick "split" test_addr_split;
          quick "pages spanned" test_pages_spanned;
          QCheck_alcotest.to_alcotest prop_addr_roundtrip;
        ] );
      ( "phys_mem",
        [
          quick "alloc zeroed" test_phys_alloc_zeroed;
          quick "read write" test_phys_rw;
          quick "free scrubs" test_phys_free_scrubs;
          quick "out of memory" test_phys_oom;
          quick "fresh first" test_phys_fresh_first;
          quick "copy page" test_phys_copy_page;
          quick "bounds" test_phys_bounds;
        ] );
      ( "page_table",
        [
          quick "basic" test_pt_basic;
          quick "set writable" test_pt_set_writable;
          quick "reverse lookup" test_pt_find_ppn;
          quick "replace" test_pt_replace;
        ] );
      ( "tlb",
        [
          quick "hit/miss" test_tlb_hit_miss;
          quick "flushes" test_tlb_flushes;
          quick "validation" test_tlb_validation;
          QCheck_alcotest.to_alcotest prop_tlb_insert_lookup;
        ] );
      ( "cost",
        [ quick "accounting" test_cost_accounting; quick "crypto" test_cost_crypto_charge ] );
      ( "counters",
        [ quick "diff" test_counters_diff; quick "rows" test_counters_rows ] );
    ]
