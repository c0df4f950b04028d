(* Write-ahead journal for cloaking metadata. See journal.mli for the
   on-store layout and the crash-consistency argument. *)

type store = {
  blocks : int;
  block_size : int;
  read : int -> bytes;
  write : int -> bytes -> unit;
}

let min_blocks = 5

type event =
  | Update of { tag : string; idx : int; version : int; iv : bytes; mac : bytes }
  | Intent of { tag : string; idx : int; dev : string; block : int }
  | Commit of { tag : string; idx : int; dev : string; block : int }
  | Freed of { dev : string; block : int }
  | Dropped_page of { tag : string; idx : int }
  | Dropped_resource of { tag : string }
  | Generation of { id : int; gen : int; size : int; pages : int }
  | Seal of { tag : string; gen : int }

type bind = { dev : string; block : int }
type page = { version : int; iv : bytes; mac : bytes }

type state = {
  pages : (string * int, page) Hashtbl.t;
  binds : (string * int, bind) Hashtbl.t;
  inflight : (string * int, bind) Hashtbl.t;
  gens : (int, int * int * int) Hashtbl.t;
  seals : (string, int) Hashtbl.t;
}

let fresh_state () =
  {
    pages = Hashtbl.create 64;
    binds = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    gens = Hashtbl.create 8;
    seals = Hashtbl.create 8;
  }

(* iv and mac travel as lowercase hex in record bodies *)
let to_hex = Oscrypto.Sha256.hex

(* --- record bodies --- *)

let body_of_event = function
  | Update { tag; idx; version; iv; mac } ->
      Printf.sprintf "U|%s|%d|%d|%s|%s" tag idx version (to_hex iv) (to_hex mac)
  | Intent { tag; idx; dev; block } -> Printf.sprintf "I|%s|%d|%s|%d" tag idx dev block
  | Commit { tag; idx; dev; block } -> Printf.sprintf "C|%s|%d|%s|%d" tag idx dev block
  | Freed { dev; block } -> Printf.sprintf "X|%s|%d" dev block
  | Dropped_page { tag; idx } -> Printf.sprintf "D|%s|%d" tag idx
  | Dropped_resource { tag } -> Printf.sprintf "F|%s" tag
  | Generation { id; gen; size; pages } -> Printf.sprintf "G|%d|%d|%d|%d" id gen size pages
  | Seal { tag; gen } -> Printf.sprintf "S|%s|%d" tag gen

let event_of_body body =
  match String.split_on_char '|' body with
  | [ "U"; tag; idx; version; iv; mac ] -> (
      match
        (int_of_string_opt idx, int_of_string_opt version, Oscrypto.Sha256.of_hex iv,
         Oscrypto.Sha256.of_hex mac)
      with
      | Some idx, Some version, Some iv, Some mac -> Some (Update { tag; idx; version; iv; mac })
      | _ -> None)
  | [ "I"; tag; idx; dev; block ] -> (
      match (int_of_string_opt idx, int_of_string_opt block) with
      | Some idx, Some block -> Some (Intent { tag; idx; dev; block })
      | _ -> None)
  | [ "C"; tag; idx; dev; block ] -> (
      match (int_of_string_opt idx, int_of_string_opt block) with
      | Some idx, Some block -> Some (Commit { tag; idx; dev; block })
      | _ -> None)
  | [ "X"; dev; block ] -> (
      match int_of_string_opt block with
      | Some block -> Some (Freed { dev; block })
      | None -> None)
  | [ "D"; tag; idx ] -> (
      match int_of_string_opt idx with
      | Some idx -> Some (Dropped_page { tag; idx })
      | None -> None)
  | [ "F"; tag ] -> Some (Dropped_resource { tag })
  | [ "G"; id; gen; size; pages ] -> (
      match
        (int_of_string_opt id, int_of_string_opt gen, int_of_string_opt size,
         int_of_string_opt pages)
      with
      | Some id, Some gen, Some size, Some pages -> Some (Generation { id; gen; size; pages })
      | _ -> None)
  | [ "S"; tag; gen ] -> (
      match int_of_string_opt gen with
      | Some gen -> Some (Seal { tag; gen })
      | None -> None)
  | _ -> None

(* --- the materialized view --- *)

let drop_bound tbl ~dev ~block =
  let doomed =
    Hashtbl.fold (fun k (b : bind) acc -> if b.dev = dev && b.block = block then k :: acc else acc)
      tbl []
  in
  List.iter (Hashtbl.remove tbl) doomed

let drop_tagged tbl tag =
  let doomed = Hashtbl.fold (fun (t, i) _ acc -> if t = tag then (t, i) :: acc else acc) tbl [] in
  List.iter (Hashtbl.remove tbl) doomed

let apply st = function
  | Update { tag; idx; version; iv; mac } ->
      (* the new version makes any prior durable ciphertext stale: a bind
         surviving here would read as torn at recovery, so invalidate it *)
      Hashtbl.replace st.pages (tag, idx) { version; iv; mac };
      Hashtbl.remove st.binds (tag, idx);
      Hashtbl.remove st.inflight (tag, idx)
  | Intent { tag; idx; dev; block } -> Hashtbl.replace st.inflight (tag, idx) { dev; block }
  | Commit { tag; idx; dev; block } ->
      Hashtbl.replace st.binds (tag, idx) { dev; block };
      Hashtbl.remove st.inflight (tag, idx)
  | Freed { dev; block } ->
      drop_bound st.binds ~dev ~block;
      drop_bound st.inflight ~dev ~block
  | Dropped_page { tag; idx } ->
      Hashtbl.remove st.pages (tag, idx);
      Hashtbl.remove st.binds (tag, idx);
      Hashtbl.remove st.inflight (tag, idx)
  | Dropped_resource { tag } ->
      drop_tagged st.pages tag;
      drop_tagged st.binds tag;
      drop_tagged st.inflight tag
  | Generation { id; gen; size; pages } -> Hashtbl.replace st.gens id (gen, size, pages)
  | Seal { tag; gen } -> Hashtbl.replace st.seals tag gen

(* --- geometry --- *)

type geom = { ckpt_blocks : int; log_start : int; log_blocks : int }

let geometry store =
  if store.blocks < min_blocks then
    invalid_arg
      (Printf.sprintf "Journal: store needs at least %d blocks, got %d" min_blocks store.blocks);
  let ckpt_blocks = max 1 ((store.blocks - 2) / 4) in
  let log_start = 2 + (2 * ckpt_blocks) in
  { ckpt_blocks; log_start; log_blocks = store.blocks - log_start }

type t = {
  store : store;
  key : bytes;
  engine : Inject.t option;
  trace : Trace.t;
  geom : geom;
  st : state;
  log_buf : bytes;  (* in-memory mirror of the log region *)
  mutable epoch : int;
  mutable active_slot : int;
  mutable log_pos : int;
  mutable chain : bytes;
  ckpt_every : int;
  mutable since_ckpt : int;
  mutable appended : int;
  mutable ckpts : int;
  mutable writes : int;
  mutable observer : (event -> unit) option;
}

let state t = t.st
let epoch t = t.epoch
let records_appended t = t.appended
let checkpoints_taken t = t.ckpts
let store_writes t = t.writes
let set_observer t obs = t.observer <- obs

let knows t ~tag ~idx = Hashtbl.mem t.st.pages (tag, idx)

let references_block t ~dev ~block =
  let hit tbl = Hashtbl.fold (fun _ (b : bind) acc -> acc || (b.dev = dev && b.block = block)) tbl false in
  hit t.st.binds || hit t.st.inflight

let bwrite t i data =
  t.writes <- t.writes + 1;
  t.store.write i data

let anchor ~key epoch = Oscrypto.Hmac.mac_string ~key:(Bytes.to_string key) (Printf.sprintf "anchor|%d" epoch)

(* --- checkpoint serialization --- *)

(* The state as the records that rebuild it, each group sorted by key.
   Order matters on load: [apply (Update _)] drops the page's binds and
   intent, and [apply (Commit _)] drops its intent, so updates go first,
   then commits, then intents. *)
let snapshot_events st =
  let sorted tbl event =
    Hashtbl.fold (fun k v acc -> (k, event k v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  sorted st.pages (fun (tag, idx) (p : page) ->
      Update { tag; idx; version = p.version; iv = p.iv; mac = p.mac })
  @ sorted st.binds (fun (tag, idx) (b : bind) ->
        Commit { tag; idx; dev = b.dev; block = b.block })
  @ sorted st.inflight (fun (tag, idx) (b : bind) ->
        Intent { tag; idx; dev = b.dev; block = b.block })
  @ sorted st.gens (fun id (gen, size, pages) -> Generation { id; gen; size; pages })
  @ sorted st.seals (fun tag gen -> Seal { tag; gen })

let ckpt_magic = "OVSJC"
let sb_magic = "OVSJS"

let render_checkpoint t ~epoch =
  let events = snapshot_events t.st in
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (body_of_event ev);
      Buffer.add_char buf '\n')
    events;
  Envelope.wrap ~key:t.key
    [ ckpt_magic; string_of_int epoch; string_of_int (List.length events) ]
    (Buffer.to_bytes buf)

(* Write [data] into the checkpoint area [slot], zero-padding to whole
   blocks. [limit] bounds how many area blocks are actually written — the
   crash injection uses it to leave a deliberately partial checkpoint. *)
let write_ckpt_area t ~slot ~data ~limit =
  let bs = t.store.block_size in
  let area = 2 + (slot * t.geom.ckpt_blocks) in
  let nblocks = (Bytes.length data + bs - 1) / bs in
  if nblocks > t.geom.ckpt_blocks then
    invalid_arg "Journal: checkpoint exceeds its area (journal_blocks too small)";
  for i = 0 to min nblocks limit - 1 do
    let blk = Bytes.make bs '\000' in
    let off = i * bs in
    Bytes.blit data off blk 0 (min bs (Bytes.length data - off));
    bwrite t (area + i) blk
  done

let write_superblock t ~epoch ~slot ~len =
  let sb =
    Envelope.wrap ~key:t.key
      [ sb_magic; string_of_int epoch; string_of_int slot; string_of_int len ]
      Bytes.empty
  in
  let blk = Bytes.make t.store.block_size '\000' in
  Bytes.blit sb 0 blk 0 (Bytes.length sb);
  bwrite t (epoch mod 2) blk

let event_label = function
  | Update _ -> "update"
  | Intent _ -> "intent"
  | Commit _ -> "commit"
  | Freed _ -> "freed"
  | Dropped_page _ -> "drop-page"
  | Dropped_resource _ -> "drop-resource"
  | Generation _ -> "generation"
  | Seal _ -> "seal"

let rec checkpoint t =
  Trace.span_enter t.trace ~ctx:Trace.Vmm Trace.Journal_ckpt;
  match checkpoint_body t with
  | () -> Trace.span_exit t.trace ~ctx:Trace.Vmm ~aux:t.epoch Trace.Journal_ckpt
  | exception ex ->
      (* a Jrnl_ckpt crash injection unwinds mid-checkpoint *)
      Trace.span_abort t.trace Trace.Journal_ckpt;
      raise ex

and checkpoint_body t =
  t.ckpts <- t.ckpts + 1;
  let epoch' = t.epoch + 1 in
  let slot = epoch' mod 2 in
  let data = render_checkpoint t ~epoch:epoch' in
  (* crash probe 1: mid-checkpoint — at most one area block reaches the
     store, and the superblock still names the previous epoch *)
  (match Inject.fire_opt t.engine Inject.Jrnl_ckpt with
  | Some Inject.Crash_point ->
      write_ckpt_area t ~slot ~data ~limit:1;
      Inject.crashed Inject.Jrnl_ckpt
  | Some _ | None -> ());
  write_ckpt_area t ~slot ~data ~limit:max_int;
  (* crash probe 2: the new checkpoint is complete but unnamed — recovery
     must still come up on the previous superblock's epoch *)
  (match Inject.fire_opt t.engine Inject.Jrnl_ckpt with
  | Some Inject.Crash_point -> Inject.crashed Inject.Jrnl_ckpt
  | Some _ | None -> ());
  write_superblock t ~epoch:epoch' ~slot ~len:(Bytes.length data);
  t.epoch <- epoch';
  t.active_slot <- slot;
  t.log_pos <- 0;
  t.chain <- anchor ~key:t.key epoch';
  t.since_ckpt <- 0

(* --- the log --- *)

let frame_of t body =
  let mac = Oscrypto.Hmac.mac ~key:t.key (Bytes.cat t.chain (Bytes.of_string body)) in
  let frame = Bytes.create (8 + String.length body + 32) in
  Bytes.blit_string (Printf.sprintf "%08x" (String.length body)) 0 frame 0 8;
  Bytes.blit_string body 0 frame 8 (String.length body);
  Bytes.blit mac 0 frame (8 + String.length body) 32;
  (frame, mac)

(* Flush the log-buffer bytes [from, from+len) through the store, one
   whole block at a time. *)
let flush_log_range t ~from ~len =
  if len > 0 then begin
    let bs = t.store.block_size in
    for bi = from / bs to (from + len - 1) / bs do
      bwrite t (t.geom.log_start + bi) (Bytes.sub t.log_buf (bi * bs) bs)
    done
  end

let log_capacity t = t.geom.log_blocks * t.store.block_size

let rec record t event =
  Trace.span_enter t.trace ~ctx:Trace.Vmm
    ~site:(if Trace.enabled t.trace then event_label event else "")
    Trace.Journal_append;
  match record_body t event with
  | () ->
      Trace.span_exit t.trace ~ctx:Trace.Vmm
        ~site:(if Trace.enabled t.trace then event_label event else "")
        Trace.Journal_append
  | exception ex ->
      (* a Jrnl_append crash injection unwinds mid-append *)
      Trace.span_abort t.trace Trace.Journal_append;
      raise ex

and record_body t event =
  let body = body_of_event event in
  let frame_len = 8 + String.length body + 32 in
  if frame_len > log_capacity t then invalid_arg "Journal: record larger than the log";
  if t.log_pos + frame_len > log_capacity t then checkpoint t;
  let frame, mac = frame_of t body in
  (match Inject.fire_opt t.engine Inject.Jrnl_append with
  | Some Inject.Crash_point ->
      (* the power cut lands mid-append: half the frame reaches the store,
         which replay must reject as a torn tail *)
      let keep = frame_len / 2 in
      Bytes.blit frame 0 t.log_buf t.log_pos keep;
      flush_log_range t ~from:t.log_pos ~len:keep;
      Inject.crashed Inject.Jrnl_append
  | Some _ | None -> ());
  Bytes.blit frame 0 t.log_buf t.log_pos frame_len;
  flush_log_range t ~from:t.log_pos ~len:frame_len;
  t.log_pos <- t.log_pos + frame_len;
  t.chain <- mac;
  t.appended <- t.appended + 1;
  t.since_ckpt <- t.since_ckpt + 1;
  apply t.st event;
  (match t.observer with Some f -> f event | None -> ());
  if t.since_ckpt >= t.ckpt_every then checkpoint t

(* --- recovery-side reading --- *)

type recovered = { rstate : state; repoch : int; replayed : int }

(* A superblock is an envelope with an empty payload, zero-padded to the
   block: its header line plus the trailer is all there is to verify. *)
let read_superblock ~key store i =
  let blk = store.read i in
  match Bytes.index_opt blk '\n' with
  | Some nl when nl + 33 <= Bytes.length blk -> (
      match Envelope.unwrap ~key (Bytes.sub blk 0 (nl + 33)) with
      | Ok ([ magic; epoch; slot; len ], _) when magic = sb_magic -> (
          match (int_of_string_opt epoch, int_of_string_opt slot, int_of_string_opt len) with
          | Some epoch, Some slot, Some len -> Some (epoch, slot, len)
          | _ -> None)
      | Ok _ | Error _ -> None)
  | Some _ | None -> None

let load_checkpoint ~key store geom ~slot ~len =
  let bs = store.block_size in
  if len < 0 || len > geom.ckpt_blocks * bs then None
  else begin
    let area = 2 + (slot * geom.ckpt_blocks) in
    let nblocks = (len + bs - 1) / bs in
    let buf = Buffer.create (nblocks * bs) in
    for i = 0 to nblocks - 1 do
      Buffer.add_bytes buf (store.read (area + i))
    done;
    match Envelope.unwrap ~key (Bytes.sub (Buffer.to_bytes buf) 0 len) with
    | Ok ([ magic; _epoch; count ], payload) when magic = ckpt_magic -> (
        let events =
          List.filter_map event_of_body (String.split_on_char '\n' (Bytes.to_string payload))
        in
        match int_of_string_opt count with
        | Some count when count = List.length events ->
            let st = fresh_state () in
            List.iter (apply st) events;
            Some st
        | Some _ | None -> None)
    | Ok _ | Error _ -> None
  end

let replay_log ~key store geom ~epoch st =
  let bs = store.block_size in
  let log = Buffer.create (geom.log_blocks * bs) in
  for i = 0 to geom.log_blocks - 1 do
    Buffer.add_bytes log (store.read (geom.log_start + i))
  done;
  let log = Buffer.to_bytes log in
  let total = Bytes.length log in
  let chain = ref (anchor ~key epoch) in
  let pos = ref 0 in
  let count = ref 0 in
  let running = ref true in
  while !running do
    if !pos + 40 > total then running := false
    else
      match int_of_string_opt ("0x" ^ Bytes.sub_string log !pos 8) with
      | None -> running := false
      | Some len when len <= 0 || !pos + 8 + len + 32 > total -> running := false
      | Some len -> (
          let body = Bytes.sub log (!pos + 8) len in
          let tag = Bytes.sub log (!pos + 8 + len) 32 in
          let expected = Oscrypto.Hmac.mac ~key (Bytes.cat !chain body) in
          if not (Bytes.equal tag expected) then running := false
          else
            match event_of_body (Bytes.to_string body) with
            | None -> running := false
            | Some ev ->
                apply st ev;
                chain := expected;
                pos := !pos + 8 + len + 32;
                incr count)
  done;
  !count

let load ~key store =
  let geom = geometry store in
  let candidates =
    List.filter_map (read_superblock ~key store) [ 0; 1 ]
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
  in
  let rec try_candidates = function
    | [] -> { rstate = fresh_state (); repoch = 0; replayed = 0 }
    | (epoch, slot, len) :: rest -> (
        match load_checkpoint ~key store geom ~slot ~len with
        | None -> try_candidates rest
        | Some st ->
            let replayed = replay_log ~key store geom ~epoch st in
            { rstate = st; repoch = epoch; replayed })
  in
  try_candidates candidates

(* --- writer construction --- *)

let attach ?engine ?(trace = Trace.null) ?(ckpt_every = 64) ~key store =
  let geom = geometry store in
  let loaded = load ~key store in
  let t =
    {
      store;
      key;
      engine;
      trace;
      geom;
      st = loaded.rstate;
      log_buf = Bytes.make (geom.log_blocks * store.block_size) '\000';
      epoch = loaded.repoch;
      active_slot = loaded.repoch mod 2;
      log_pos = 0;
      chain = anchor ~key loaded.repoch;
      ckpt_every = max 1 ckpt_every;
      since_ckpt = 0;
      appended = 0;
      ckpts = 0;
      writes = 0;
      observer = None;
    }
  in
  (* start a fresh epoch: the inherited state is compacted into a new
     checkpoint and the log is logically emptied (stale bytes fail the new
     epoch's chain anchor) *)
  checkpoint t;
  t
