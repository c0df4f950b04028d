(* Sealed checkpoints of a cloaked process. See seal.mli for the blob
   layout and the freshness argument. *)

open Machine

type page = {
  idx : int;
  version : int;
  iv : bytes;
  mac : bytes;
  cipher : bytes option;  (* None: the page was still Zero when sealed *)
}

type restored = {
  resource : Resource.t;
  gen : int;
  regs : Transfer.regs;
  layout : string;
  pages : page list;
}

let magic = "OVSCK1"

let check_layout layout =
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ';' | ',' | ':' | '-' | '_' -> ()
      | _ -> invalid_arg "Seal.capture: layout may not contain '|' or control bytes")
    layout

let render_regs (r : Transfer.regs) =
  [ string_of_int r.pc; string_of_int r.sp;
    String.concat "," (List.map string_of_int (Array.to_list r.gp)) ]

(* --- capture --- *)

let rec capture vmm ~resource ~regs ~layout ~read_page =
  let tr = Vmm.trace vmm in
  Trace.span_enter tr ~ctx:Trace.Vmm
    ~site:(if Trace.enabled tr then Resource.tag resource else "")
    Trace.Seal_capture;
  match capture_body vmm ~resource ~regs ~layout ~read_page with
  | blob ->
      if Trace.enabled tr then begin
        let tag = Resource.tag resource in
        Trace.span_exit tr ~ctx:Trace.Vmm ~site:tag
          ~aux:(Vmm.seal_generation vmm ~tag) Trace.Seal_capture
      end;
      blob
  | exception ex ->
      (* an aborted capture (torn frame, injection) unwinds mid-span *)
      Trace.span_abort tr Trace.Seal_capture;
      raise ex

and capture_body vmm ~resource ~regs ~layout ~read_page =
  check_layout layout;
  (* force every plaintext page to ciphertext: the blob must hold exactly
     what the OS is allowed to see *)
  Vmm.seal_resource vmm resource;
  let tag = Resource.tag resource in
  let entries =
    Vmm.fold_meta vmm resource (fun idx (e : Metadata.entry) acc -> (idx, e) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Read and authenticate every frame before the generation bump: hostile
     RAM may have torn or flipped a frame after the VMM encrypted it,
     leaving plaintext residue, and the checkpoint goes to OS-visible
     storage — so seal only authenticated bytes. Aborting here consumes no
     generation, so the supervisor's last good checkpoint stays fresh. *)
  let images =
    List.map
      (fun (idx, (e : Metadata.entry)) ->
        match e.state with
        | Metadata.Encrypted ->
            let cipher = read_page idx in
            if Bytes.length cipher <> Addr.page_size then
              invalid_arg "Seal.capture: read_page must return one full page";
            if not (Vmm.authenticate_cipher vmm resource idx e ~cipher) then
              Vmm.violate vmm ~resource Violation.Integrity
                "page %d of %s fails authentication at checkpoint capture (torn \
                 or tampered frame)"
                idx tag;
            (idx, e, Some cipher)
        | Zero -> (idx, e, None)
        | Plain _ ->
            (* unreachable after seal_resource unless the OS raced the VMM,
               which the model forbids *)
            invalid_arg "Seal.capture: plaintext page survived seal_resource")
      entries
  in
  (* write-ahead: the generation bump reaches the journal before the blob
     exists, so a crash can lose the new checkpoint but never unstale an
     old one *)
  let gen = Vmm.bump_seal_generation vmm ~tag in
  let buf = Buffer.create (List.length entries * (Addr.page_size + 80)) in
  List.iter
    (fun (idx, (e : Metadata.entry), cipher) ->
      match cipher with
      | Some cipher ->
          Buffer.add_string buf
            (Printf.sprintf "E|%d|%d|%s|%s\n" idx e.version
               (Oscrypto.Sha256.hex e.iv) (Oscrypto.Sha256.hex e.mac));
          Buffer.add_bytes buf cipher;
          Vmm.charge_copy vmm ~bytes_count:Addr.page_size
      | None -> Buffer.add_string buf (Printf.sprintf "Z|%d\n" idx))
    images;
  let blob =
    Envelope.wrap ~key:(Vmm.seal_key vmm)
      ([ magic; tag; string_of_int gen; string_of_int (List.length entries) ]
      @ render_regs regs @ [ layout ])
      (Buffer.to_bytes buf)
  in
  (Vmm.counters vmm).seal_checkpoints <- (Vmm.counters vmm).seal_checkpoints + 1;
  Inject.Audit.record (Vmm.audit vmm) "seal capture resource=%s gen=%d pages=%d" tag
    gen (List.length entries);
  (* hostile world: the checkpoint's trip to (OS-visible) storage may tear
     or flip bits — unseal must catch both *)
  match Inject.fire_opt (Vmm.engine vmm) Inject.Seal_write with
  | Some action -> Inject.mangle action blob
  | None -> blob

(* --- unseal --- *)

let parse_regs ~pc ~sp ~gp =
  match (int_of_string_opt pc, int_of_string_opt sp) with
  | Some pc, Some sp -> (
      let words = if gp = "" then [] else String.split_on_char ',' gp in
      match
        List.fold_right
          (fun w acc ->
            match (int_of_string_opt w, acc) with
            | Some v, Some tl -> Some (v :: tl)
            | _ -> None)
          words (Some [])
      with
      | Some ws -> Some { Transfer.pc; sp; gp = Array.of_list ws }
      | None -> None)
  | _ -> None

let rec unseal vmm blob =
  let tr = Vmm.trace vmm in
  Trace.span_enter tr ~ctx:Trace.Vmm Trace.Seal_restore;
  match unseal_body vmm blob with
  | r ->
      Trace.span_exit tr ~ctx:Trace.Vmm
        ~site:(if Trace.enabled tr then Resource.tag r.resource else "")
        ~aux:r.gen Trace.Seal_restore;
      r
  | exception ex ->
      (* forged/stale blobs unwind as violations mid-span *)
      Trace.span_abort tr Trace.Seal_restore;
      raise ex

and unseal_body vmm blob =
  (* hostile world: the blob may have been corrupted at rest *)
  let blob =
    match Inject.fire_opt (Vmm.engine vmm) Inject.Restore with
    | Some action -> Inject.mangle action blob
    | None -> blob
  in
  let forged fmt = Vmm.violate vmm Violation.Metadata_forged fmt in
  (* everything past [unwrap] sits behind a valid VMM MAC, so a parse
     failure means a bug, not an attack — but refusing loudly is still the
     right default *)
  let header, body =
    match Envelope.unwrap ~key:(Vmm.seal_key vmm) blob with
    | Ok v -> v
    | Error `Bad_mac -> forged "sealed checkpoint fails authentication"
    | Error `Malformed -> forged "sealed checkpoint missing header"
  in
  let resource, gen, npages, regs, layout =
    match header with
    | [ m; tag; gen; npages; pc; sp; gp; layout ] when m = magic -> (
        match
          (Resource.of_tag tag, int_of_string_opt gen, int_of_string_opt npages,
           parse_regs ~pc ~sp ~gp)
        with
        | Some resource, Some gen, Some npages, Some regs ->
            (resource, gen, npages, regs, layout)
        | _ -> forged "sealed checkpoint header malformed")
    | _ -> forged "sealed checkpoint header malformed"
  in
  let tag = Resource.tag resource in
  (* freshness: the journal-anchored seal generation is the rollback
     horizon — any older blob authenticates fine and must still be
     refused *)
  let current = Vmm.seal_generation vmm ~tag in
  if gen < current then
    Vmm.violate vmm ~resource Violation.Stale_checkpoint
      "sealed checkpoint for %s is stale (generation %d, latest sealed %d)" tag gen
      current;
  Vmm.restore_seal_generation vmm ~tag ~gen;
  let pos = ref 0 in
  let line () =
    match Bytes.index_from_opt body !pos '\n' with
    | None -> forged "sealed checkpoint page records truncated"
    | Some nl ->
        let l = Bytes.sub_string body !pos (nl - !pos) in
        pos := nl + 1;
        l
  in
  let pages =
    List.init npages (fun _ ->
        match String.split_on_char '|' (line ()) with
        | [ "E"; idx; version; iv; mac ] -> (
            match
              (int_of_string_opt idx, int_of_string_opt version,
               Oscrypto.Sha256.of_hex iv, Oscrypto.Sha256.of_hex mac)
            with
            | Some idx, Some version, Some iv, Some mac ->
                if !pos + Addr.page_size > Bytes.length body then
                  forged "sealed checkpoint page image truncated";
                let cipher = Bytes.sub body !pos Addr.page_size in
                pos := !pos + Addr.page_size;
                { idx; version; iv; mac; cipher = Some cipher }
            | _ -> forged "sealed checkpoint page record malformed")
        | [ "Z"; idx ] -> (
            match int_of_string_opt idx with
            | Some idx ->
                { idx; version = 0; iv = Bytes.create 0; mac = Bytes.create 0;
                  cipher = None }
            | None -> forged "sealed checkpoint page record malformed")
        | _ -> forged "sealed checkpoint page record malformed")
  in
  Inject.Audit.record (Vmm.audit vmm) "seal unseal resource=%s gen=%d pages=%d" tag
    gen npages;
  { resource; gen; regs; layout; pages }

(* --- install --- *)

let install ?(consume = false) vmm restored ~write_page =
  List.iter
    (fun p ->
      match p.cipher with
      | None -> ()  (* Zero pages: fresh metadata entries already read as zero *)
      | Some cipher ->
          Vmm.restore_entry vmm ~resource:restored.resource ~idx:p.idx
            ~version:p.version ~iv:p.iv ~mac:p.mac;
          write_page p.idx cipher;
          Vmm.charge_copy vmm ~bytes_count:Addr.page_size)
    restored.pages;
  (Vmm.counters vmm).seal_restores <- (Vmm.counters vmm).seal_restores + 1;
  Inject.Audit.record (Vmm.audit vmm) "seal install resource=%s gen=%d pages=%d"
    (Resource.tag restored.resource) restored.gen (List.length restored.pages);
  (* single-use restore: retire the installed generation so a second
     delivery of the same blob — here or, via the journal, at a restarted
     VMM — raises Stale_checkpoint instead of resuming twice *)
  if consume then
    Vmm.retire_seal_generation vmm ~tag:(Resource.tag restored.resource)
      ~gen:restored.gen
