open Machine
open Guest

type file = {
  resource : Cloak.Resource.t;
  start_vpn : Addr.vpn;
  pages : int;
  mutable size : int;
  path : string;
}

let size f = f.size
let capacity f = f.pages * Addr.page_size
let base_vaddr f = Addr.vaddr_of_vpn f.start_vpn

let meta_path path = path ^ ".meta"

let vmm_of shim = (Uapi.env (Shim.uapi shim)).Abi.vmm
let asid_of shim = (Uapi.env (Shim.uapi shim)).Abi.asid

(* Map [pages] of fresh memory and declare it to the VMM as a placement of
   [resource]. The kernel-side mmap is flagged uncloaked because the pages
   belong to the shm object, not to the process's anon resource. *)
let map_object shim resource pages =
  let start_vpn =
    Shim.paraverified shim ~name:"mmap"
      ~accept:(function Abi.Int vpn when vpn > 0 -> Some vpn | _ -> None)
      ~describe:(fun v ->
        Printf.sprintf "mmap of a %d-page object returned %s" pages
          (match v with Abi.Int n -> "vpn " ^ string_of_int n | _ -> "a non-integer"))
      (Abi.Mmap { pages; cloaked = false })
  in
  Cloak.Vmm.hypercall (vmm_of shim);
  Cloak.Vmm.cloak_range (vmm_of shim) ~asid:(asid_of shim) ~resource ~start_vpn ~pages
    ~base_idx:0;
  start_vpn

let create shim ~path ~pages =
  if pages <= 0 then invalid_arg "Shim_io.create: pages must be positive";
  let vmm = vmm_of shim in
  Cloak.Vmm.hypercall vmm;
  let resource = Cloak.Vmm.fresh_shm vmm in
  let start_vpn = map_object shim resource pages in
  { resource; start_vpn; pages; size = 0; path }

let read shim f ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "Shim_io.read: negative position";
  let len = max 0 (min len (f.size - pos)) in
  if len = 0 then Bytes.empty
  else Uapi.load (Shim.uapi shim) ~vaddr:(base_vaddr f + pos) ~len

let write shim f ~pos data =
  let len = Bytes.length data in
  if pos < 0 then invalid_arg "Shim_io.write: negative position";
  if pos + len > capacity f then invalid_arg "Shim_io.write: beyond capacity";
  Uapi.store (Shim.uapi shim) ~vaddr:(base_vaddr f + pos) data;
  f.size <- max f.size (pos + len)

(* A progress claim is believed only within the bounds of what was asked:
   0 < n <= remaining. A kernel claiming more (or negative) progress would
   walk the cursor out of the region — an Iago lie, audited and (after
   bounded retries) refused with [Shim.Hostile_os]. *)
let checked_progress shim ~name ~remaining call =
  Shim.paraverified shim ~name
    ~accept:(function
      | Abi.Int n when n >= 0 && n <= remaining -> Some (Ok n)
      | Abi.Err e -> Some (Error e)
      | _ -> None)
    ~describe:(fun v ->
      Printf.sprintf "kernel claimed %s progress for a %d-byte %s request"
        (match v with Abi.Int n -> string_of_int n ^ "-byte" | _ -> "non-integer")
        remaining name)
    call

(* Write [len] bytes starting at [vaddr] to [fd] with the *direct*
   dispatcher: the kernel copies straight from the region, which for a
   sealed object is ciphertext. *)
let direct_write_all shim ~fd ~vaddr ~len =
  let written = ref 0 in
  while !written < len do
    let remaining = len - !written in
    match
      checked_progress shim ~name:"write" ~remaining
        (Abi.Write { fd; vaddr = vaddr + !written; len = remaining })
    with
    | Ok n when n > 0 -> written := !written + n
    | Ok _ -> invalid_arg "Shim_io: short write"
    | Error e -> raise (Errno.Error e)
  done

let direct_read_all shim ~fd ~vaddr ~len =
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let remaining = len - !got in
    match
      checked_progress shim ~name:"read" ~remaining
        (Abi.Read { fd; vaddr = vaddr + !got; len = remaining })
    with
    | Ok 0 -> eof := true
    | Ok n -> got := !got + n
    | Error e -> raise (Errno.Error e)
  done;
  !got

let open_guest_file shim path flags =
  match Shim.direct_dispatch shim (Abi.Open { path; flags }) with
  | Abi.Int fd -> fd
  | Abi.Err e -> raise (Errno.Error e)
  | _ -> invalid_arg "Shim_io: unexpected open result"

let close_guest_fd shim fd = ignore (Shim.direct_dispatch shim (Abi.Close fd))

let save shim f =
  let vmm = vmm_of shim in
  (* 1. seal + export: after this the kernel's view of the region is the
     exact ciphertext the metadata authenticates *)
  Cloak.Vmm.hypercall vmm;
  let blob = Cloak.Vmm.export_metadata vmm f.resource ~pages:f.pages ~logical_size:f.size in
  (* 2. stream the (ciphertext) region into the content file; declaring the
     binding first routes the file's writeback through the metadata
     journal's intent/commit protocol *)
  let fd = open_guest_file shim f.path [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
  ignore (Shim.direct_dispatch shim (Abi.Bind_object { fd; resource = f.resource }));
  direct_write_all shim ~fd ~vaddr:(base_vaddr f) ~len:(f.pages * Addr.page_size);
  close_guest_fd shim fd;
  (* 3. store the metadata blob (OS-visible but unforgeable) via the
     marshal buffer *)
  let fd = open_guest_file shim (meta_path f.path) [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
  let chunk_limit = Shim.marshal_bytes shim in
  let sent = ref 0 in
  while !sent < Bytes.length blob do
    let chunk = min chunk_limit (Bytes.length blob - !sent) in
    let vaddr = Shim.store_uncloaked shim (Bytes.sub blob !sent chunk) in
    direct_write_all shim ~fd ~vaddr ~len:chunk;
    sent := !sent + chunk
  done;
  close_guest_fd shim fd

let open_existing shim ~path =
  let vmm = vmm_of shim in
  let u = Shim.uapi shim in
  (* 1. fetch the metadata blob *)
  let meta_size = (Uapi.stat u (meta_path path)).Abi.st_size in
  let fd = open_guest_file shim (meta_path path) [ Abi.O_RDONLY ] in
  let blob = Buffer.create meta_size in
  let marshal = Shim.marshal_vaddr shim in
  let remaining = ref meta_size in
  while !remaining > 0 do
    let chunk = min (Shim.marshal_bytes shim) !remaining in
    let n = direct_read_all shim ~fd ~vaddr:marshal ~len:chunk in
    if n = 0 then remaining := 0
    else begin
      Buffer.add_bytes blob (Uapi.load u ~vaddr:marshal ~len:n);
      remaining := !remaining - n
    end
  done;
  close_guest_fd shim fd;
  (* 2. verify and install it *)
  Cloak.Vmm.hypercall vmm;
  let imported = Cloak.Vmm.import_metadata vmm (Buffer.to_bytes blob) in
  (* 3. map the object and pull the ciphertext in through normal reads *)
  let start_vpn = map_object shim imported.Cloak.Vmm.resource imported.pages in
  let fd = open_guest_file shim path [ Abi.O_RDONLY ] in
  let _ =
    direct_read_all shim ~fd ~vaddr:(Addr.vaddr_of_vpn start_vpn)
      ~len:(imported.pages * Addr.page_size)
  in
  close_guest_fd shim fd;
  {
    resource = imported.resource;
    start_vpn;
    pages = imported.pages;
    size = imported.logical_size;
    path;
  }

let close shim f =
  let vmm = vmm_of shim in
  Cloak.Vmm.hypercall vmm;
  Cloak.Vmm.seal_resource vmm f.resource;
  Cloak.Vmm.uncloak_range vmm ~asid:(asid_of shim) ~start_vpn:f.start_vpn;
  ignore
    (Shim.direct_dispatch shim (Abi.Munmap { start_vpn = f.start_vpn; pages = f.pages }))
