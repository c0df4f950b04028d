(* Unit tests of the guest kernel's internal services — filesystem, block
   device, pipes — exercised directly against a bare VMM, plus errno. *)

open Machine
open Guest

(* A bare storage stack: VMM + block device + fs with a trivial ppn
   allocator (no kernel, no processes). *)
let storage ?(blocks = 64) () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks () in
  let next = ref 0 in
  let alloc_ppn () =
    let p = !next in
    incr next;
    p
  in
  let fs = Fs.create ~vmm ~dev ~alloc_ppn ~free_ppn:(fun _ -> ()) in
  (vmm, dev, fs)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (Errno.to_string expected)
  | Error e -> Alcotest.(check string) "errno" (Errno.to_string expected) (Errno.to_string e)

(* --- fs namespace --- *)

let test_fs_paths () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/a");
  ok (Fs.mkdir fs "/a/b");
  let ino = ok (Fs.create_file fs "/a/b/f") in
  Alcotest.(check int) "lookup" ino (ok (Fs.lookup fs "/a/b/f"));
  expect_err Errno.ENOENT (Fs.lookup fs "/a/b/g");
  expect_err Errno.ENOTDIR (Fs.lookup fs "/a/b/f/x");
  expect_err Errno.EINVAL (Fs.lookup fs "relative/path");
  Alcotest.(check bool) "kinds" true (Fs.kind fs ino = `File)

let test_fs_mkdir_errors () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/d");
  expect_err Errno.EEXIST (Fs.mkdir fs "/d");
  expect_err Errno.ENOENT (Fs.mkdir fs "/missing/sub")

let test_fs_unlink_semantics () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/d");
  let _ = ok (Fs.create_file fs "/d/f") in
  expect_err Errno.ENOTEMPTY (Fs.unlink fs "/d");
  ok (Fs.unlink fs "/d/f");
  ok (Fs.unlink fs "/d");
  expect_err Errno.ENOENT (Fs.lookup fs "/d")

let test_fs_create_truncates () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/f") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "0123456789")) in
  Alcotest.(check int) "size" 10 (Fs.size fs ino);
  let ino2 = ok (Fs.create_file fs "/f") in
  Alcotest.(check int) "same inode" ino ino2;
  Alcotest.(check int) "truncated" 0 (Fs.size fs ino2)

let test_fs_rename () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/old") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "moved")) in
  ok (Fs.rename fs ~src:"/old" ~dst:"/new");
  expect_err Errno.ENOENT (Fs.lookup fs "/old");
  Alcotest.(check int) "same inode" ino (ok (Fs.lookup fs "/new"));
  Alcotest.(check string) "content survives" "moved"
    (Bytes.to_string (ok (Fs.read_host fs ~inode:ino ~pos:0 ~len:5)))

let test_fs_rename_replaces () =
  let _, _, fs = storage () in
  let a = ok (Fs.create_file fs "/a") in
  let _ = ok (Fs.write_host fs ~inode:a ~pos:0 (Bytes.of_string "AAAA")) in
  let b = ok (Fs.create_file fs "/b") in
  let _ = ok (Fs.write_host fs ~inode:b ~pos:0 (Bytes.of_string "BBBB")) in
  ok (Fs.rename fs ~src:"/a" ~dst:"/b");
  Alcotest.(check int) "a's inode now at /b" a (ok (Fs.lookup fs "/b"));
  Alcotest.(check string) "a's content" "AAAA"
    (Bytes.to_string (ok (Fs.read_host fs ~inode:a ~pos:0 ~len:4)));
  expect_err Errno.ENOENT (Fs.lookup fs "/a");
  (* replacing a directory is refused *)
  ok (Fs.mkdir fs "/dir");
  expect_err Errno.EISDIR (Fs.rename fs ~src:"/b" ~dst:"/dir");
  (* renaming onto itself is a no-op *)
  ok (Fs.rename fs ~src:"/b" ~dst:"/b");
  Alcotest.(check int) "self rename keeps entry" a (ok (Fs.lookup fs "/b"))

(* --- fs data path --- *)

let test_fs_sparse_holes () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/sparse") in
  let far = (3 * Addr.page_size) + 17 in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:far (Bytes.of_string "end")) in
  Alcotest.(check int) "size covers the hole" (far + 3) (Fs.size fs ino);
  let hole = ok (Fs.read_host fs ~inode:ino ~pos:100 ~len:8) in
  Alcotest.(check bool) "hole reads zero" true (Bytes.for_all (fun c -> c = '\000') hole);
  let tail = ok (Fs.read_host fs ~inode:ino ~pos:far ~len:3) in
  Alcotest.(check string) "tail" "end" (Bytes.to_string tail)

let test_fs_read_past_eof () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/f") in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 (Bytes.of_string "abc")) in
  let data = ok (Fs.read_host fs ~inode:ino ~pos:1 ~len:100) in
  Alcotest.(check string) "clamped" "bc" (Bytes.to_string data);
  let empty = ok (Fs.read_host fs ~inode:ino ~pos:50 ~len:10) in
  Alcotest.(check int) "past eof" 0 (Bytes.length empty)

let test_fs_writeback_and_reload () =
  let _, _, fs = storage () in
  let ino = ok (Fs.create_file fs "/persist") in
  let payload = Bytes.init 9000 (fun i -> Char.chr ((i * 5) land 0xFF)) in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 payload) in
  Alcotest.(check bool) "cache populated" true (Fs.cached_pages fs > 0);
  Fs.drop_caches fs;
  Alcotest.(check int) "cache emptied" 0 (Fs.cached_pages fs);
  (* data survives on the block device and reloads through real DMA *)
  let back = ok (Fs.read_host fs ~inode:ino ~pos:0 ~len:9000) in
  Alcotest.(check bool) "content survived writeback" true (Bytes.equal payload back);
  Alcotest.(check bool) "block assigned" true
    (Fs.block_of_page fs ~inode:ino ~idx:0 <> None)

let test_fs_truncate_frees_blocks () =
  let _, dev, fs = storage ~blocks:8 () in
  ignore dev;
  let ino = ok (Fs.create_file fs "/big") in
  (* fill most of the device, then truncate and fill again: blocks must be
     recycled or the second fill would hit ENOSPC *)
  let chunk = Bytes.make (6 * Addr.page_size) 'x' in
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 chunk) in
  Fs.sync fs;
  ok (Fs.truncate fs ~inode:ino);
  let _ = ok (Fs.write_host fs ~inode:ino ~pos:0 chunk) in
  Fs.sync fs;
  Alcotest.(check int) "size" (6 * Addr.page_size) (Fs.size fs ino)

let test_fs_readdir () =
  let _, _, fs = storage () in
  ok (Fs.mkdir fs "/dir");
  let _ = ok (Fs.create_file fs "/dir/c") in
  let _ = ok (Fs.create_file fs "/dir/a") in
  ok (Fs.mkdir fs "/dir/b");
  Alcotest.(check (list string)) "sorted entries" [ "a"; "b"; "c" ]
    (ok (Fs.readdir fs "/dir"));
  expect_err Errno.ENOTDIR (Fs.readdir fs "/dir/a")

(* --- block device --- *)

let test_blockdev_alloc_exhaustion () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:2 () in
  let a = Blockdev.alloc_block dev in
  let _b = Blockdev.alloc_block dev in
  Alcotest.check_raises "full" (Errno.Error Errno.ENOSPC) (fun () ->
      ignore (Blockdev.alloc_block dev));
  Blockdev.free_block dev a;
  let c = Blockdev.alloc_block dev in
  Alcotest.(check int) "recycled" a c

let test_blockdev_free_scrubs () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:2 () in
  let b = Blockdev.alloc_block dev in
  Blockdev.poke dev b (Bytes.make Addr.page_size 'S');
  Blockdev.free_block dev b;
  Alcotest.(check bool) "scrubbed on free" true
    (Bytes.for_all (fun c -> c = '\000') (Blockdev.peek dev b))

let test_blockdev_dma_roundtrip () =
  let vmm = Cloak.Vmm.create () in
  let dev = Blockdev.create ~vmm ~blocks:4 () in
  let b = Blockdev.alloc_block dev in
  let data = Bytes.init Addr.page_size (fun i -> Char.chr (i land 0xFF)) in
  Cloak.Vmm.phys_write vmm 0 ~off:0 data;
  Alcotest.(check bool) "a fault-free transfer lands clean" true
    (Blockdev.write_block dev b ~ppn:0);
  Cloak.Vmm.phys_write vmm 1 ~off:0 (Bytes.make Addr.page_size '\000');
  Blockdev.read_block dev b ~ppn:1;
  Alcotest.(check bool) "roundtrip" true
    (Bytes.equal data (Cloak.Vmm.phys_read vmm 1 ~off:0 ~len:Addr.page_size));
  let c = Cloak.Vmm.counters vmm in
  Alcotest.(check int) "reads counted" 1 c.Counters.disk_reads;
  Alcotest.(check int) "writes counted" 1 c.Counters.disk_writes

(* --- pipes (direct, against a bare address space) --- *)

let pipe_setup () =
  let vmm = Cloak.Vmm.create () in
  let pt = Page_table.create ~asid:1 in
  Cloak.Vmm.register_address_space vmm pt;
  for vpn = 0 to 3 do
    Page_table.map pt vpn vpn ~writable:true ~user:true
  done;
  (vmm, Cloak.Context.sys 1)

let test_pipe_fifo_order () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:16 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "abcdef");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:6 with
  | `Wrote 6 -> ()
  | _ -> Alcotest.fail "write failed");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:3 with
  | `Data 3 -> ()
  | _ -> Alcotest.fail "read failed");
  Alcotest.(check string) "first half" "abc"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:3));
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:10 with
  | `Data 3 -> ()
  | _ -> Alcotest.fail "second read failed");
  Alcotest.(check string) "second half" "def"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:3))

let test_pipe_wraparound () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:8 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  (* fill, drain partially, refill past the physical end of the ring *)
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "12345678");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:8 with
  | `Wrote 8 -> ()
  | _ -> Alcotest.fail "fill failed");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:1 with
  | `Full -> ()
  | _ -> Alcotest.fail "expected Full");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:5 with
  | `Data 5 -> ()
  | _ -> Alcotest.fail "drain failed");
  Cloak.Vmm.write vmm ~ctx ~vaddr:0 (Bytes.of_string "ABCDE");
  (match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:5 with
  | `Wrote 5 -> ()
  | _ -> Alcotest.fail "wrap write failed");
  (match Pipe.read_into p vmm ~ctx ~vaddr:100 ~len:8 with
  | `Data 8 -> ()
  | _ -> Alcotest.fail "wrap read failed");
  Alcotest.(check string) "wrapped content" "678ABCDE"
    (Bytes.to_string (Cloak.Vmm.read vmm ~ctx ~vaddr:100 ~len:8))

let test_pipe_eof_and_broken () =
  let vmm, ctx = pipe_setup () in
  let p = Pipe.create ~id:1 ~capacity:8 in
  Pipe.add_reader p;
  Pipe.add_writer p;
  (match Pipe.read_into p vmm ~ctx ~vaddr:0 ~len:4 with
  | `Empty -> ()
  | _ -> Alcotest.fail "expected Empty while writer exists");
  Pipe.close_writer p;
  (match Pipe.read_into p vmm ~ctx ~vaddr:0 ~len:4 with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Pipe.close_reader p;
  Pipe.add_writer p;
  match Pipe.write_from p vmm ~ctx ~vaddr:0 ~len:1 with
  | `Broken -> ()
  | _ -> Alcotest.fail "expected Broken with no readers"

(* --- errno --- *)

let test_errno_strings () =
  List.iter
    (fun (e, s) -> Alcotest.(check string) s s (Errno.to_string e))
    [
      (Errno.ENOENT, "ENOENT"); (Errno.EEXIST, "EEXIST"); (Errno.EBADF, "EBADF");
      (Errno.EINVAL, "EINVAL"); (Errno.ENOMEM, "ENOMEM"); (Errno.ENOTDIR, "ENOTDIR");
      (Errno.EISDIR, "EISDIR"); (Errno.ENOTEMPTY, "ENOTEMPTY"); (Errno.EPIPE, "EPIPE");
      (Errno.ECHILD, "ECHILD"); (Errno.ESRCH, "ESRCH"); (Errno.EACCES, "EACCES");
      (Errno.ENOSPC, "ENOSPC");
    ]

(* --- property: fs random write/read consistency --- *)

let prop_fs_random_io =
  QCheck.Test.make ~name:"random writes then reads match a model file" ~count:60
    QCheck.(small_list (pair (int_range 0 20_000) (int_range 1 600)))
    (fun writes ->
      let _, _, fs = storage ~blocks:256 () in
      let ino = match Fs.create_file fs "/m" with Ok i -> i | Error _ -> assert false in
      let model = Bytes.make 32_768 '\000' in
      let model_size = ref 0 in
      List.iteri
        (fun i (pos, len) ->
          let pos = pos mod 20_000 and len = 1 + (len mod 600) in
          let data = Bytes.make len (Char.chr (33 + (i mod 90))) in
          (match Fs.write_host fs ~inode:ino ~pos data with
          | Ok _ -> ()
          | Error _ -> ());
          Bytes.blit data 0 model pos len;
          model_size := max !model_size (pos + len))
        writes;
      (* compare the whole file against the model, through the cache *)
      let same_cached =
        match Fs.read_host fs ~inode:ino ~pos:0 ~len:!model_size with
        | Ok b -> Bytes.equal b (Bytes.sub model 0 !model_size)
        | Error _ -> false
      in
      (* and again after writeback + cache drop (through the disk) *)
      Fs.drop_caches fs;
      let same_disk =
        match Fs.read_host fs ~inode:ino ~pos:0 ~len:!model_size with
        | Ok b -> Bytes.equal b (Bytes.sub model 0 !model_size)
        | Error _ -> false
      in
      same_cached && same_disk)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "guest"
    [
      ( "fs namespace",
        [
          quick "paths" test_fs_paths;
          quick "mkdir errors" test_fs_mkdir_errors;
          quick "unlink semantics" test_fs_unlink_semantics;
          quick "create truncates" test_fs_create_truncates;
          quick "rename" test_fs_rename;
          quick "rename replaces" test_fs_rename_replaces;
          quick "readdir" test_fs_readdir;
        ] );
      ( "fs data",
        [
          quick "sparse holes" test_fs_sparse_holes;
          quick "read past eof" test_fs_read_past_eof;
          quick "writeback and reload" test_fs_writeback_and_reload;
          quick "truncate frees blocks" test_fs_truncate_frees_blocks;
          QCheck_alcotest.to_alcotest prop_fs_random_io;
        ] );
      ( "blockdev",
        [
          quick "alloc exhaustion" test_blockdev_alloc_exhaustion;
          quick "free scrubs" test_blockdev_free_scrubs;
          quick "dma roundtrip" test_blockdev_dma_roundtrip;
        ] );
      ( "pipes",
        [
          quick "fifo order" test_pipe_fifo_order;
          quick "ring wraparound" test_pipe_wraparound;
          quick "eof and broken" test_pipe_eof_and_broken;
        ] );
      ("errno", [ quick "strings" test_errno_strings ]);
    ]
