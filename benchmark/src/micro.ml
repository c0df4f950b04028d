(* The micro pass: host ns per call of the layer primitives the workloads
   lean on, each the median of [batches] batches of at least [batch_ns]
   of back-to-back calls. A batch median shrugs off the odd descheduled
   batch that a single mean or an OLS fit over short runs absorbs (the
   Bechamel table in bench/ has printed AES+HMAC faster than AES alone).
   [hmac_64b] sits beside [hmac_4k] because a 64-byte message isolates the
   per-call key-padding cost from the per-byte compression cost. *)

open Machine
open Guest

let batches = 10
let batch_ns = 50_000_000

(* Double the iteration count until one batch takes [batch_ns], then
   time [batches] batches of that many calls. *)
let median_ns f =
  let time iters =
    let t0 = Clock.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    Clock.now_ns () - t0
  in
  let rec calibrate iters = if time iters >= batch_ns then iters else calibrate (2 * iters) in
  let iters = calibrate 1 in
  Stats.median_float
    (List.init batches (fun _ -> float_of_int (time iters) /. float_of_int iters))

let page = Bytes.init Addr.page_size (fun i -> Char.chr (i land 0xFF))
let small = Bytes.sub page 0 64
let aes_key = Oscrypto.Aes.expand (Bytes.of_string "0123456789abcdef")
let iv = Bytes.make 16 '\x42'
let mac_key = Bytes.of_string "a-32-byte-key-for-hmac-sha256!!!"

let crypto () =
  [
    ("oscrypto.aes_ctr_4k_ns", median_ns (fun () -> ignore (Oscrypto.Aes.ctr_transform aes_key ~iv page)));
    ("oscrypto.sha256_4k_ns", median_ns (fun () -> ignore (Oscrypto.Sha256.digest page)));
    ("oscrypto.hmac_4k_ns", median_ns (fun () -> ignore (Oscrypto.Hmac.mac ~key:mac_key page)));
    ("oscrypto.hmac_64b_ns", median_ns (fun () -> ignore (Oscrypto.Hmac.mac ~key:mac_key small)));
  ]

let phys_alloc_free () =
  let mem = Phys_mem.create ~pages:64 () in
  median_ns (fun () -> Phys_mem.free mem (Phys_mem.alloc mem))

(* Journal.record of a page-metadata update on an in-memory store, with
   the default checkpoint cadence amortised in. *)
let journal_record () =
  let blocks = 64 in
  let disk = Array.init blocks (fun _ -> Bytes.make Addr.page_size '\000') in
  let store =
    {
      Cloak.Journal.blocks;
      block_size = Addr.page_size;
      read = (fun b -> Bytes.copy disk.(b));
      write = (fun b data -> disk.(b) <- Bytes.copy data);
    }
  in
  let j = Cloak.Journal.attach ~key:mac_key store in
  let n = ref 0 in
  median_ns (fun () ->
      incr n;
      Cloak.Journal.record j
        (Cloak.Journal.Update
           { tag = "shm:1"; idx = !n land 63; version = !n; iv; mac = mac_key }))

let codec () =
  let vmm = Cloak.Vmm.create () in
  let session = "micro" in
  let key = Cloak.Migrate.session_key vmm ~session in
  let wire = Cloak.Migrate.encode ~key ~session (Cloak.Migrate.Chunk { seq = 7; payload = page }) in
  [
    ( "migrate.encode_4k_ns",
      median_ns (fun () ->
          ignore (Cloak.Migrate.encode ~key ~session (Cloak.Migrate.Chunk { seq = 7; payload = page }))) );
    ("migrate.decode_4k_ns", median_ns (fun () -> ignore (Cloak.Migrate.decode ~key ~session wire)));
  ]

(* The guest-level primitives are timed from inside a cloaked process, so
   they include everything the simulator does for them: the shim's
   marshalling round trip is a 512-byte write into a pipe plus the read
   back out, and a first touch is the store that faults in a fresh
   cloaked page (guest fault, zero fill, shadow fill). *)
let in_guest prog =
  let vmm = Cloak.Vmm.create () in
  let kernel = Kernel.create vmm in
  let result = ref nan in
  let pid = Kernel.spawn kernel ~cloaked:true (prog result) in
  Kernel.run kernel;
  if Kernel.exit_status kernel ~pid <> Some 0 then failwith "micro: guest program failed";
  !result

let marshal_roundtrip () =
  in_guest (fun result env ->
      let u = Uapi.of_env env in
      ignore (Oshim.Shim.install u);
      let r, w = Uapi.pipe u in
      let buf = Uapi.malloc u 512 in
      Uapi.store u ~vaddr:buf (Bytes.sub page 0 512);
      result :=
        median_ns (fun () ->
            ignore (Uapi.write u ~fd:w ~vaddr:buf ~len:512);
            ignore (Uapi.read u ~fd:r ~vaddr:buf ~len:512));
      Uapi.exit u 0)

let first_touch () =
  in_guest (fun result env ->
      let u = Uapi.of_env env in
      let chunk = 64 in
      (* touch time only: the mmap/munmap around each chunk is excluded *)
      let batch () =
        let touched = ref 0 and spent = ref 0 in
        while !spent < batch_ns do
          let vpn = Uapi.mmap u ~pages:chunk ~cloaked:true () in
          let t0 = Clock.now_ns () in
          for i = 0 to chunk - 1 do
            Uapi.store_byte u ~vaddr:(Addr.vaddr_of_vpn (vpn + i)) 1
          done;
          spent := !spent + (Clock.now_ns () - t0);
          touched := !touched + chunk;
          Uapi.munmap u ~start_vpn:vpn ~pages:chunk
        done;
        float_of_int !spent /. float_of_int !touched
      in
      result := Stats.median_float (List.init batches (fun _ -> batch ()));
      Uapi.exit u 0)

let run () =
  crypto ()
  @ [
      ("machine.phys_alloc_free_ns", phys_alloc_free ());
      ("vmm.first_touch_ns", first_touch ());
      ("shim.marshal_roundtrip_ns", marshal_roundtrip ());
      ("journal.record_ns", journal_record ());
    ]
  @ codec ()
