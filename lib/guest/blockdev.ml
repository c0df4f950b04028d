open Machine

exception Io_error of string
exception Bad_block of { op : string; block : int; reason : string }

type t = {
  vmm : Cloak.Vmm.t;
  name : string;
  store : bytes array;
  allocated : bool array;
  reserved : int;
  mutable free : int list;
  mutable next_fresh : int;
  mutable pending_reorder : (int * bytes) option;
      (* a write whose payload the hostile controller is holding back,
         waiting to swap it with the next write's *)
}

let create ?(name = "blk") ?(reserve = 0) ~vmm ~blocks () =
  if blocks <= 0 then invalid_arg "Blockdev.create: blocks must be positive";
  if reserve < 0 || reserve >= blocks then
    invalid_arg "Blockdev.create: reserve must leave at least one data block";
  {
    vmm;
    name;
    store = Array.init blocks (fun _ -> Bytes.make Addr.page_size '\000');
    allocated = Array.make blocks false;
    reserved = reserve;
    free = [];
    next_fresh = reserve;
    pending_reorder = None;
  }

let block_count t = Array.length t.store
let name t = t.name
let reserved t = t.reserved

let engine t = Cloak.Vmm.engine t.vmm

let check t ~op ~data_path b =
  if b < 0 || b >= Array.length t.store then
    raise (Bad_block { op; block = b; reason = "out of range" });
  if data_path && b < t.reserved then
    raise (Bad_block { op; block = b; reason = "reserved for the journal" })

let alloc_block t =
  (match Inject.fire_opt (engine t) Inject.Blk_alloc with
  | Some Inject.Exhaust -> raise (Errno.Error ENOSPC)
  | Some _ | None -> ());
  let b =
    if t.next_fresh < Array.length t.store then begin
      let b = t.next_fresh in
      t.next_fresh <- t.next_fresh + 1;
      b
    end
    else
      match t.free with
      | b :: rest ->
          t.free <- rest;
          b
      | [] -> raise (Errno.Error ENOSPC)
  in
  t.allocated.(b) <- true;
  b

let free_block t b =
  check t ~op:"free" ~data_path:true b;
  if not t.allocated.(b) then
    raise (Bad_block { op = "free"; block = b; reason = "double free" });
  (* WAL ordering: the Freed record must be durable before the scrub — a
     crash between the two must not leave a committed bind pointing at
     zeroed bytes, which recovery would misread as a torn page *)
  Cloak.Vmm.journal_block_freed t.vmm ~dev:t.name ~block:b;
  let action = Inject.fire_opt (engine t) Inject.Blk_free in
  (match action with
  | Some Inject.Crash_point -> Inject.crashed Inject.Blk_free
  | Some _ | None -> ());
  (match action with
  | Some Inject.Fail_scrub -> ()  (* disk remanence: freed block keeps its bytes *)
  | Some _ | None -> Bytes.fill t.store.(b) 0 Addr.page_size '\000');
  t.allocated.(b) <- false;
  t.free <- b :: t.free

let charge_disk t =
  Cloak.Vmm.charge t.vmm (Cost.model (Cloak.Vmm.cost t.vmm)).disk_op

let rec read_block t b ~ppn =
  Trace.with_span (Cloak.Vmm.trace t.vmm) ~page:b ~site:t.name Trace.Disk_read
    (fun () -> read_block_body t b ~ppn)

and read_block_body t b ~ppn =
  check t ~op:"read" ~data_path:true b;
  let action = Inject.fire_opt (engine t) Inject.Blk_read in
  (match action with
  | Some Inject.Io_error -> raise (Io_error (Printf.sprintf "read of block %d" b))
  | Some _ | None -> ());
  charge_disk t;
  (Cloak.Vmm.counters t.vmm).disk_reads <-
    (Cloak.Vmm.counters t.vmm).disk_reads + 1;
  match action with
  | Some (Inject.Short_read n) ->
      (* the DMA stops early; the tail of the destination page keeps
         whatever the allocator left there *)
      Cloak.Vmm.phys_write t.vmm ppn ~off:0
        (Bytes.sub t.store.(b) 0 (max 0 (min n Addr.page_size)))
  | Some _ | None -> Cloak.Vmm.phys_write t.vmm ppn ~off:0 t.store.(b)

let rec write_block t b ~ppn =
  Trace.with_span (Cloak.Vmm.trace t.vmm) ~page:b ~site:t.name Trace.Disk_write
    (fun () -> write_block_body t b ~ppn)

and write_block_body t b ~ppn =
  check t ~op:"write" ~data_path:true b;
  let action = Inject.fire_opt (engine t) Inject.Blk_write in
  (match action with
  | Some Inject.Io_error -> raise (Io_error (Printf.sprintf "write of block %d" b))
  | Some _ | None -> ());
  charge_disk t;
  (Cloak.Vmm.counters t.vmm).disk_writes <-
    (Cloak.Vmm.counters t.vmm).disk_writes + 1;
  (* reading through the physmap encrypts a cloaked plaintext page first,
     which journals its fresh metadata (U) before any byte can land *)
  let data = Cloak.Vmm.phys_read t.vmm ppn ~off:0 ~len:Addr.page_size in
  (* WAL: the intent record is durable before the payload transfer starts *)
  Cloak.Vmm.journal_dma t.vmm `Intent ppn ~dev:t.name ~block:b;
  match t.pending_reorder with
  | Some (b0, d0) ->
      (* complete a held-back write by swapping payloads: the earlier
         write's data lands here, ours lands on its block *)
      t.pending_reorder <- None;
      Bytes.blit data 0 t.store.(b0) 0 Addr.page_size;
      Bytes.blit d0 0 t.store.(b) 0 Addr.page_size
  | None -> (
      (* only a clean, complete transfer earns a commit record: a torn,
         corrupted or held-back payload leaves the intent standing, so
         recovery re-verifies the bytes instead of trusting them *)
      match action with
      | Some Inject.Reorder -> t.pending_reorder <- Some (b, data)
      | Some ((Inject.Torn_write _ | Inject.Bit_flip _) as a) ->
          let d = Inject.mangle a data in
          Bytes.blit d 0 t.store.(b) 0 (Bytes.length d)
      | Some Inject.Crash_point ->
          (* power cut mid-DMA: half the payload lands, then the lights go
             out — the canonical torn page recovery must quarantine *)
          Bytes.blit data 0 t.store.(b) 0 (Addr.page_size / 2);
          Inject.crashed Inject.Blk_write
      | Some _ | None ->
          Bytes.blit data 0 t.store.(b) 0 Addr.page_size;
          Cloak.Vmm.journal_dma t.vmm `Commit ppn ~dev:t.name ~block:b)

let rec write_raw t b data =
  Trace.with_span (Cloak.Vmm.trace t.vmm) ~page:b ~site:t.name Trace.Disk_write
    (fun () -> write_raw_body t b data)

and write_raw_body t b data =
  check t ~op:"write-raw" ~data_path:false b;
  if Bytes.length data <> Addr.page_size then
    invalid_arg "Blockdev.write_raw: data must be one block";
  let action = Inject.fire_opt (engine t) Inject.Blk_write in
  (match action with
  | Some Inject.Io_error -> raise (Io_error (Printf.sprintf "raw write of block %d" b))
  | Some _ | None -> ());
  charge_disk t;
  (Cloak.Vmm.counters t.vmm).disk_writes <-
    (Cloak.Vmm.counters t.vmm).disk_writes + 1;
  match action with
  | Some Inject.Crash_point ->
      Bytes.blit data 0 t.store.(b) 0 (Addr.page_size / 2);
      Inject.crashed Inject.Blk_write
  | Some _ | None -> Bytes.blit data 0 t.store.(b) 0 Addr.page_size

let peek t b =
  check t ~op:"peek" ~data_path:false b;
  Bytes.copy t.store.(b)

let poke t b data =
  check t ~op:"poke" ~data_path:false b;
  if Bytes.length data <> Addr.page_size then
    invalid_arg "Blockdev.poke: data must be one block";
  Bytes.blit data 0 t.store.(b) 0 Addr.page_size
