open Machine

type inode = {
  id : int;
  kind : [ `File | `Dir ];
  mutable size : int;
  blocks : (int, int) Hashtbl.t;      (* file page idx -> device block *)
  entries : (string, int) Hashtbl.t;  (* directories: name -> inode id *)
}

type cache_entry = { ppn : Addr.ppn; mutable dirty : bool }

type t = {
  vmm : Cloak.Vmm.t;
  dev : Blockdev.t;
  alloc_ppn : unit -> Addr.ppn;
  free_ppn : Addr.ppn -> unit;
  inodes : (int, inode) Hashtbl.t;
  mutable next_inode : int;
  cache : (int * int, cache_entry) Hashtbl.t;
  bound : (int, Cloak.Resource.t) Hashtbl.t;
      (* inode -> protected object whose content image this file is; its
         writeback goes through the journal's intent/commit protocol *)
}

let root_id = 0

let make_inode t kind =
  let id = t.next_inode in
  t.next_inode <- id + 1;
  let ino =
    { id; kind; size = 0; blocks = Hashtbl.create 8; entries = Hashtbl.create 8 }
  in
  Hashtbl.add t.inodes id ino;
  ino

let create ~vmm ~dev ~alloc_ppn ~free_ppn =
  let t =
    {
      vmm;
      dev;
      alloc_ppn;
      free_ppn;
      inodes = Hashtbl.create 64;
      next_inode = root_id;
      cache = Hashtbl.create 64;
      bound = Hashtbl.create 8;
    }
  in
  ignore (make_inode t `Dir);
  t

let inode t id = Hashtbl.find t.inodes id

let bind_resource t ~inode resource = Hashtbl.replace t.bound inode resource

(* --- path resolution --- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then Error Errno.EINVAL
  else Ok (List.filter (fun s -> s <> "") (String.split_on_char '/' path))

let rec walk t ino = function
  | [] -> Ok ino
  | name :: rest -> (
      if ino.kind <> `Dir then Error Errno.ENOTDIR
      else
        match Hashtbl.find_opt ino.entries name with
        | None -> Error Errno.ENOENT
        | Some id -> walk t (inode t id) rest)

let resolve t path =
  match split_path path with
  | Error e -> Error e
  | Ok components -> walk t (inode t root_id) components

let resolve_parent t path =
  match split_path path with
  | Error e -> Error e
  | Ok [] -> Error Errno.EINVAL
  | Ok components -> (
      let rec split_last acc = function
        | [ leaf ] -> (List.rev acc, leaf)
        | x :: rest -> split_last (x :: acc) rest
        | [] -> assert false
      in
      let dirs, leaf = split_last [] components in
      match walk t (inode t root_id) dirs with
      | Error e -> Error e
      | Ok dir when dir.kind <> `Dir -> Error Errno.ENOTDIR
      | Ok dir -> Ok (dir, leaf))

(* --- namespace operations --- *)

let lookup t path =
  match resolve t path with Ok ino -> Ok ino.id | Error e -> Error e

let mkdir t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir, leaf) ->
      if Hashtbl.mem dir.entries leaf then Error Errno.EEXIST
      else begin
        let ino = make_inode t `Dir in
        Hashtbl.add dir.entries leaf ino.id;
        Ok ()
      end

let drop_page t ino idx =
  match Hashtbl.find_opt t.cache (ino.id, idx) with
  | Some entry ->
      Hashtbl.remove t.cache (ino.id, idx);
      t.free_ppn entry.ppn
  | None -> ()

let free_file_storage t ino =
  let cached =
    Hashtbl.fold
      (fun (id, idx) _ acc -> if id = ino.id then idx :: acc else acc)
      t.cache []
  in
  List.iter (fun idx -> drop_page t ino idx) cached;
  Hashtbl.iter (fun _ block -> Blockdev.free_block t.dev block) ino.blocks;
  Hashtbl.reset ino.blocks;
  ino.size <- 0

let truncate t ~inode:id =
  match Hashtbl.find_opt t.inodes id with
  | None -> Error Errno.ENOENT
  | Some ino when ino.kind = `Dir -> Error Errno.EISDIR
  | Some ino ->
      free_file_storage t ino;
      Ok ()

let create_file t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir, leaf) -> (
      match Hashtbl.find_opt dir.entries leaf with
      | Some id -> (
          let existing = inode t id in
          match existing.kind with
          | `Dir -> Error Errno.EISDIR
          | `File ->
              free_file_storage t existing;
              Ok id)
      | None ->
          let ino = make_inode t `File in
          Hashtbl.add dir.entries leaf ino.id;
          Ok ino.id)

let unlink t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir, leaf) -> (
      match Hashtbl.find_opt dir.entries leaf with
      | None -> Error Errno.ENOENT
      | Some id -> (
          let ino = inode t id in
          match ino.kind with
          | `Dir ->
              if Hashtbl.length ino.entries > 0 then Error Errno.ENOTEMPTY
              else begin
                Hashtbl.remove dir.entries leaf;
                Hashtbl.remove t.inodes id;
                Ok ()
              end
          | `File ->
              free_file_storage t ino;
              Hashtbl.remove dir.entries leaf;
              Hashtbl.remove t.inodes id;
              Hashtbl.remove t.bound id;
              Ok ()))

let rename t ~src ~dst =
  match (resolve_parent t src, resolve_parent t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok (src_dir, src_leaf), Ok (dst_dir, dst_leaf) -> (
      match Hashtbl.find_opt src_dir.entries src_leaf with
      | None -> Error Errno.ENOENT
      | Some id -> (
          match Hashtbl.find_opt dst_dir.entries dst_leaf with
          | Some existing_id when existing_id = id -> Ok ()
          | Some existing_id -> (
              let existing = inode t existing_id in
              match existing.kind with
              | `Dir -> Error Errno.EISDIR
              | `File ->
                  free_file_storage t existing;
                  Hashtbl.remove t.inodes existing_id;
                  Hashtbl.remove t.bound existing_id;
                  Hashtbl.replace dst_dir.entries dst_leaf id;
                  Hashtbl.remove src_dir.entries src_leaf;
                  Ok ())
          | None ->
              Hashtbl.add dst_dir.entries dst_leaf id;
              Hashtbl.remove src_dir.entries src_leaf;
              Ok ()))

let readdir t path =
  match resolve t path with
  | Error e -> Error e
  | Ok ino when ino.kind <> `Dir -> Error Errno.ENOTDIR
  | Ok ino ->
      Ok (List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) ino.entries []))

let kind t id = (inode t id).kind
let size t id = (inode t id).size

(* --- page cache --- *)

let cache_page t ino idx =
  match Hashtbl.find_opt t.cache (ino.id, idx) with
  | Some entry -> entry
  | None ->
      let ppn = t.alloc_ppn () in
      (match Hashtbl.find_opt ino.blocks idx with
      | Some block -> Retry.disk t.vmm (fun () -> Blockdev.read_block t.dev block ~ppn)
      | None ->
          (* hole: fresh zero page *)
          Cloak.Vmm.phys_write t.vmm ppn ~off:0 (Bytes.make Addr.page_size '\000'));
      let entry = { ppn; dirty = false } in
      Hashtbl.add t.cache (ino.id, idx) entry;
      entry

let with_file t id f =
  match Hashtbl.find_opt t.inodes id with
  | None -> Error Errno.EBADF
  | Some ino when ino.kind = `Dir -> Error Errno.EISDIR
  | Some ino -> f ino

(* Copy [len] bytes between file pages and a user buffer, page by page.
   [user_of_chunk]/[chunk_to_user] perform the user-memory half and may
   raise a guest page fault; the kernel retries the whole syscall, which is
   safe because the copy is position-based and idempotent. *)
let read t ~ctx ~inode:id ~pos ~vaddr ~len =
  with_file t id (fun ino ->
      if pos < 0 || len < 0 then Error Errno.EINVAL
      else begin
        let available = max 0 (min len (ino.size - pos)) in
        let copied = ref 0 in
        while !copied < available do
          let file_off = pos + !copied in
          let idx = file_off / Addr.page_size in
          let off = file_off mod Addr.page_size in
          let chunk = min (Addr.page_size - off) (available - !copied) in
          let entry = cache_page t ino idx in
          let data = Cloak.Vmm.phys_read t.vmm entry.ppn ~off ~len:chunk in
          Cloak.Vmm.write t.vmm ~ctx ~vaddr:(vaddr + !copied) data;
          copied := !copied + chunk
        done;
        Ok available
      end)

let write t ~ctx ~inode:id ~pos ~vaddr ~len =
  with_file t id (fun ino ->
      if pos < 0 || len < 0 then Error Errno.EINVAL
      else begin
        let copied = ref 0 in
        while !copied < len do
          let file_off = pos + !copied in
          let idx = file_off / Addr.page_size in
          let off = file_off mod Addr.page_size in
          let chunk = min (Addr.page_size - off) (len - !copied) in
          let data = Cloak.Vmm.read t.vmm ~ctx ~vaddr:(vaddr + !copied) ~len:chunk in
          let entry = cache_page t ino idx in
          Cloak.Vmm.phys_write t.vmm entry.ppn ~off data;
          entry.dirty <- true;
          copied := !copied + chunk
        done;
        ino.size <- max ino.size (pos + len);
        Ok len
      end)

let read_host t ~inode:id ~pos ~len =
  with_file t id (fun ino ->
      if pos < 0 || len < 0 then Error Errno.EINVAL
      else begin
        let available = max 0 (min len (ino.size - pos)) in
        let out = Bytes.create available in
        let copied = ref 0 in
        while !copied < available do
          let file_off = pos + !copied in
          let idx = file_off / Addr.page_size in
          let off = file_off mod Addr.page_size in
          let chunk = min (Addr.page_size - off) (available - !copied) in
          let entry = cache_page t ino idx in
          let data = Cloak.Vmm.phys_read t.vmm entry.ppn ~off ~len:chunk in
          Bytes.blit data 0 out !copied chunk;
          copied := !copied + chunk
        done;
        Ok out
      end)

let write_host t ~inode:id ~pos data =
  with_file t id (fun ino ->
      let len = Bytes.length data in
      if pos < 0 then Error Errno.EINVAL
      else begin
        let copied = ref 0 in
        while !copied < len do
          let file_off = pos + !copied in
          let idx = file_off / Addr.page_size in
          let off = file_off mod Addr.page_size in
          let chunk = min (Addr.page_size - off) (len - !copied) in
          let entry = cache_page t ino idx in
          Cloak.Vmm.phys_write t.vmm entry.ppn ~off (Bytes.sub data !copied chunk);
          entry.dirty <- true;
          copied := !copied + chunk
        done;
        ino.size <- max ino.size (pos + len);
        Ok len
      end)

(* --- writeback --- *)

let writeback_entry t (id, idx) entry =
  if entry.dirty then begin
    let ino = inode t id in
    let block =
      match Hashtbl.find_opt ino.blocks idx with
      | Some block -> block
      | None ->
          let block = Blockdev.alloc_block t.dev in
          Hashtbl.add ino.blocks idx block;
          block
    in
    match Hashtbl.find_opt t.bound id with
    | Some resource ->
        (* the content image of a protected object: file page idx = object
           page idx (the image starts at offset 0), and the write travels
           under the journal's intent/commit protocol so a crash mid-DMA is
           detected as torn instead of silently served *)
        let dev = Blockdev.name t.dev in
        Cloak.Vmm.journal_file_intent t.vmm ~resource ~idx ~dev ~block;
        Retry.disk t.vmm (fun () -> Blockdev.write_block t.dev block ~ppn:entry.ppn);
        Cloak.Vmm.journal_file_commit t.vmm ~resource ~idx ~dev ~block;
        entry.dirty <- false
    | None ->
        Retry.disk t.vmm (fun () -> Blockdev.write_block t.dev block ~ppn:entry.ppn);
        entry.dirty <- false
  end

let sync t = Hashtbl.iter (writeback_entry t) t.cache

let drop_caches t =
  sync t;
  Hashtbl.iter (fun _ entry -> t.free_ppn entry.ppn) t.cache;
  Hashtbl.reset t.cache

let cached_pages t = Hashtbl.length t.cache

let block_of_page t ~inode:id ~idx =
  match Hashtbl.find_opt t.inodes id with
  | None -> None
  | Some ino -> Hashtbl.find_opt ino.blocks idx
