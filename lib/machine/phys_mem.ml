type t = {
  pages : bytes option array;
  mutable free_list : int list;
  mutable next_fresh : int;
  engine : Inject.t option;
  (* MPNs whose release was hit by a Fail_scrub injection: the old contents
     survive in the pool (RAM remanence) and resurface unzeroed when the
     MPN is recycled. *)
  remanent : (int, bytes) Hashtbl.t;
  mutable trace : Trace.t;
}

exception Out_of_memory

let create ?engine ~pages () =
  if pages <= 0 then invalid_arg "Phys_mem.create: pages must be positive";
  {
    pages = Array.make pages None;
    free_list = [];
    next_fresh = 0;
    engine;
    remanent = Hashtbl.create 8;
    trace = Trace.null;
  }

let set_trace t trace = t.trace <- trace

(* Prefer never-used page numbers so that a freed page's MPN is not
   immediately recycled: a dangling "home" reference from cloaked-page
   metadata then reliably points at an unallocated page and the loss of
   plaintext is detected rather than silently aliased. *)
let alloc t =
  (match Inject.fire_opt t.engine Inject.Phys_alloc with
  | Some Inject.Exhaust -> raise Out_of_memory
  | Some _ | None -> ());
  let mpn =
    if t.next_fresh < Array.length t.pages then begin
      let mpn = t.next_fresh in
      t.next_fresh <- t.next_fresh + 1;
      mpn
    end
    else
      match t.free_list with
      | mpn :: rest ->
          t.free_list <- rest;
          mpn
      | [] -> raise Out_of_memory
  in
  let backing =
    match Hashtbl.find_opt t.remanent mpn with
    | Some stale ->
        Hashtbl.remove t.remanent mpn;
        stale
    | None -> Bytes.make Addr.page_size '\000'
  in
  t.pages.(mpn) <- Some backing;
  mpn

let backing t mpn =
  if mpn < 0 || mpn >= Array.length t.pages then
    Fault.machine_check "Phys_mem: MPN %d is outside machine memory" mpn;
  match t.pages.(mpn) with
  | Some b -> b
  | None -> Fault.machine_check "Phys_mem: MPN %d is not allocated" mpn

let free t mpn =
  let b = backing t mpn in
  (match Inject.fire_opt t.engine Inject.Phys_free with
  | Some Inject.Fail_scrub -> Hashtbl.replace t.remanent mpn (Bytes.copy b)
  | Some _ | None -> ());
  t.pages.(mpn) <- None;
  t.free_list <- mpn :: t.free_list;
  Trace.emit t.trace ~pid:mpn Trace.Frame_free

let allocated t mpn =
  mpn >= 0 && mpn < Array.length t.pages && t.pages.(mpn) <> None

let page = backing

let read t mpn ~off ~len =
  let b = backing t mpn in
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Phys_mem.read: out of page bounds";
  Bytes.sub b off len

(* Apply a hostile mutation to an incoming DMA payload: bit-flips corrupt
   one bit, torn writes drop the tail. Returns the (possibly shorter)
   bytes actually reaching the page. *)
let mangle t data =
  match Inject.fire_opt t.engine Inject.Phys_write with
  | Some action -> Inject.mangle action data
  | None -> data

let write t mpn ~off data =
  let b = backing t mpn in
  let len = Bytes.length data in
  if off < 0 || off + len > Addr.page_size then
    invalid_arg "Phys_mem.write: out of page bounds";
  let data = mangle t data in
  Bytes.blit data 0 b off (Bytes.length data)

let get_byte t mpn ~off = Char.code (Bytes.get (backing t mpn) off)
let set_byte t mpn ~off v = Bytes.set (backing t mpn) off (Char.chr (v land 0xFF))

let copy_page t ~src ~dst =
  Bytes.blit (backing t src) 0 (backing t dst) 0 Addr.page_size

let load_page t mpn data =
  if Bytes.length data <> Addr.page_size then
    invalid_arg "Phys_mem.load_page: buffer must be one page";
  let b = backing t mpn in
  let data = mangle t data in
  Bytes.blit data 0 b 0 (Bytes.length data)

let iter_allocated t f =
  Array.iteri
    (fun mpn slot -> match slot with Some b -> f mpn b | None -> ())
    t.pages

let iter_remanent t f = Hashtbl.iter f t.remanent
