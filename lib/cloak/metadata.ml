open Machine

type page_state =
  | Zero
  | Plain of { home : Addr.mpn; mutable clean : bool }
  | Encrypted

type entry = {
  mutable state : page_state;
  mutable iv : bytes;
  mutable mac : bytes;
  mutable version : int;
}

type key = { resource : Resource.t; idx : int }

type t = (key, entry) Hashtbl.t

let create () : t = Hashtbl.create 256

let find t resource idx = Hashtbl.find_opt t { resource; idx }

let find_or_add t resource idx =
  let key = { resource; idx } in
  match Hashtbl.find_opt t key with
  | Some entry -> entry
  | None ->
      let entry = { state = Zero; iv = Bytes.empty; mac = Bytes.empty; version = 0 } in
      Hashtbl.add t key entry;
      entry

let remove t resource idx = Hashtbl.remove t { resource; idx }

let drop_resource t resource =
  let doomed =
    Hashtbl.fold
      (fun key _ acc -> if Resource.equal key.resource resource then key :: acc else acc)
      t []
  in
  List.iter (Hashtbl.remove t) doomed

let iter_resource t resource f =
  Hashtbl.iter (fun key e -> if Resource.equal key.resource resource then f key.idx e) t

let fold_resource t resource f init =
  Hashtbl.fold
    (fun key e acc -> if Resource.equal key.resource resource then f key.idx e acc else acc)
    t init

let mac_input ~resource ~idx ~version ~iv ~cipher =
  let header = Printf.sprintf "%s|%d|%d|" (Resource.tag resource) idx version in
  let out = Bytes.create (String.length header + Bytes.length iv + Bytes.length cipher) in
  Bytes.blit_string header 0 out 0 (String.length header);
  Bytes.blit iv 0 out (String.length header) (Bytes.length iv);
  Bytes.blit cipher 0 out (String.length header + Bytes.length iv) (Bytes.length cipher);
  out
