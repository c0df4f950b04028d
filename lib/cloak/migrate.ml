(* Chunked, authenticated transport for live migration of sealed
   checkpoints over an untrusted channel. See migrate.mli for the protocol
   state machine and the freshness/split-brain argument. *)

open Machine

let magic = "MIGF1"

type reject =
  | Bad_mac
  | Malformed
  | Wrong_session
  | Conflict
  | Digest_mismatch

let reject_to_string = function
  | Bad_mac -> "bad-mac"
  | Malformed -> "malformed"
  | Wrong_session -> "wrong-session"
  | Conflict -> "conflict"
  | Digest_mismatch -> "digest-mismatch"

type frame =
  | Offer of { nchunks : int; blob_len : int; digest : string }
  | Chunk of { seq : int; payload : bytes }
  | Ready
  | Commit
  | Abort
  | Ack of int

(* Reverse-direction acknowledgement codes carried in an [Ack] seq. *)
let ack_offer = -1
let ack_commit = -3
let ack_abort = -4

let check_session s =
  if s = "" then invalid_arg "Migrate: empty session";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | ':' | '.' -> ()
      | _ -> invalid_arg "Migrate: session may not contain '|' or control bytes")
    s

(* The per-session transfer key. Modelled as the outcome of a key
   negotiation between the two VMMs; in the simulation both endpoints
   derive it from the fleet-shared master secret behind [Vmm.seal_key],
   bound to the session identifier so frames cannot cross sessions. *)
let session_key vmm ~session =
  check_session session;
  Oscrypto.Hmac.mac ~key:(Vmm.seal_key vmm)
    (Bytes.of_string ("migrate|" ^ session))

(* --- session-key lifecycle ---

   The transfer key is cloaked key material living outside any guest
   frame, so the flight recorder's scrub-before-free pass would never see
   it. Model it as a synthetic frame (ids far above any real machine
   page): held at derivation, scrubbed when zeroized, freed when the
   endpoint is dropped. An endpoint dropped without scrubbing is exactly
   the violation the pass reports; the harness drivers therefore
   [close_*] both ends on COMMIT and ABORT alike. *)

let key_frame ~session ~side =
  0x400000 lor (Hashtbl.hash (session ^ "|" ^ side) land 0x3FFFFF)

let key_event vmm ~session ~frame kind =
  let t = Vmm.trace vmm in
  if Trace.enabled t then
    Trace.emit t ~ctx:Trace.Vmm ~pid:frame ~site:("mig-key:" ^ session) kind

(* --- wire codec --- *)

let kind_tag = function
  | Offer _ -> "offer"
  | Chunk _ -> "chunk"
  | Ready -> "ready"
  | Commit -> "commit"
  | Abort -> "abort"
  | Ack _ -> "ack"

let encode ~key ~session ?(tid = 0) frame =
  check_session session;
  let seq, payload =
    match frame with
    | Offer { nchunks; blob_len; digest } ->
        (0, Bytes.of_string (Printf.sprintf "%d|%d|%s" nchunks blob_len digest))
    | Chunk { seq; payload } -> (seq, payload)
    | Ready | Commit | Abort -> (0, Bytes.empty)
    | Ack seq -> (seq, Bytes.empty)
  in
  Envelope.wrap ~key
    [ magic; session; kind_tag frame; string_of_int seq;
      string_of_int (Bytes.length payload); string_of_int tid ]
    payload

(* The request trace id rides in the header, so — like every header
   field — it sits under the frame MAC: an OS that rewrites it to confuse
   cross-host tracing produces a Bad_mac frame, not a mislabelled one. *)
let decode_full ~key ~session wire =
  match Envelope.unwrap ~key wire with
  | Error `Bad_mac -> Error Bad_mac
  | Error `Malformed -> Error Malformed
  | Ok ([ m; sess; kind; seq; len; tid ], payload) when m = magic -> (
      if sess <> session then Error Wrong_session
      else
        match (int_of_string_opt seq, int_of_string_opt len, int_of_string_opt tid) with
        | Some seq, Some len, Some tid when len = Bytes.length payload -> (
            let ok frame = Ok (frame, tid) in
            match kind with
            | "offer" -> (
                match String.split_on_char '|' (Bytes.to_string payload) with
                | [ n; bl; digest ] -> (
                    match (int_of_string_opt n, int_of_string_opt bl) with
                    | Some nchunks, Some blob_len when nchunks >= 0 && blob_len >= 0 ->
                        ok (Offer { nchunks; blob_len; digest })
                    | _ -> Error Malformed)
                | _ -> Error Malformed)
            | "chunk" -> if seq < 0 then Error Malformed else ok (Chunk { seq; payload })
            | "ready" -> ok Ready
            | "commit" -> ok Commit
            | "abort" -> ok Abort
            | "ack" -> ok (Ack seq)
            | _ -> Error Malformed)
        | _ -> Error Malformed)
  | Ok _ -> Error Malformed

let decode ~key ~session wire =
  Result.map fst (decode_full ~key ~session wire)

(* --- the untrusted channel --- *)

type entry = { mutable delay : int; wire : bytes }

type channel = {
  engine : Inject.t option;
  mutable fwd : entry list;  (* source -> destination, in flight *)
  mutable rev : entry list;  (* destination -> source (acks, READY) *)
  mutable log : bytes list;  (* newest first: every frame the OS observed *)
}

let channel ?engine () = { engine; fwd = []; rev = []; log = [] }
let wire_log ch = List.rev ch.log
let idle ch = ch.fwd = [] && ch.rev = []

let push ch site get set wire =
  ch.log <- wire :: ch.log;
  let enqueue w = set ch (get ch @ [ { delay = 0; wire = w } ]) in
  match Inject.fire_opt ch.engine site with
  | Some Inject.Crash_point -> Inject.crashed site
  | Some (Inject.Drop | Inject.Io_error) -> ()
  | Some Inject.Duplicate ->
      enqueue wire;
      enqueue wire
  | Some (Inject.Delay n) -> set ch (get ch @ [ { delay = max 1 n; wire } ])
  | Some Inject.Reorder -> set ch ({ delay = 0; wire } :: get ch)
  | Some ((Inject.Bit_flip _ | Inject.Torn_write _) as a) ->
      let w = Inject.mangle a wire in
      ch.log <- w :: ch.log;
      enqueue w
  | Some _ | None -> enqueue wire

let pop ch site get set =
  List.iter (fun e -> if e.delay > 0 then e.delay <- e.delay - 1) (get ch);
  let rec split acc = function
    | [] -> None
    | e :: rest when e.delay <= 0 -> Some (e, List.rev_append acc rest)
    | e :: rest -> split (e :: acc) rest
  in
  match split [] (get ch) with
  | None -> None
  | Some (e, rest) -> (
      set ch rest;
      match Inject.fire_opt ch.engine site with
      | Some Inject.Crash_point -> Inject.crashed site
      | Some (Inject.Drop | Inject.Io_error) -> None
      | Some Inject.Duplicate ->
          set ch (rest @ [ { delay = 0; wire = e.wire } ]);
          Some e.wire
      | Some (Inject.Delay n) ->
          e.delay <- max 1 n;
          set ch (rest @ [ e ]);
          None
      | Some Inject.Reorder ->
          set ch (rest @ [ e ]);
          None
      | Some ((Inject.Bit_flip _ | Inject.Torn_write _) as a) ->
          let w = Inject.mangle a e.wire in
          ch.log <- w :: ch.log;
          Some w
      | Some _ | None -> Some e.wire)

let get_fwd ch = ch.fwd
let set_fwd ch q = ch.fwd <- q
let get_rev ch = ch.rev
let set_rev ch q = ch.rev <- q

let send ch wire = push ch Inject.Mig_send get_fwd set_fwd wire
let reply ch wire = push ch Inject.Mig_ack get_rev set_rev wire
let recv ch = pop ch Inject.Mig_recv get_fwd set_fwd
let recv_reply ch = pop ch Inject.Mig_recv get_rev set_rev

(* --- cycle charging --- *)

let charge_mac vmm n =
  (Vmm.counters vmm).hash_computes <- (Vmm.counters vmm).hash_computes + 1;
  Vmm.charge vmm (n * (Cost.model (Vmm.cost vmm)).sha_byte)

let charge_check vmm n =
  (Vmm.counters vmm).hash_checks <- (Vmm.counters vmm).hash_checks + 1;
  Vmm.charge vmm (n * (Cost.model (Vmm.cost vmm)).sha_byte)

(* --- sender (source VMM) --- *)

type sender = {
  s_vmm : Vmm.t;
  s_key : bytes;
  s_keyframe : int;
  s_session : string;
  s_tid : int;
  s_blob : bytes;
  s_chunk_size : int;
  s_nchunks : int;
  s_digest : string;
  s_acked : bool array;
  mutable s_offer_acked : bool;
  mutable s_ready : bool;
  mutable s_commit_acked : bool;
  mutable s_abort_acked : bool;
  mutable s_refused : int;  (* reverse frames that failed to decode *)
  mutable s_key_scrubbed : bool;
  mutable s_dropped : bool;
}

let default_chunk_size = 512

let sender vmm ~session ?(chunk_size = default_chunk_size) ?(trace_id = 0) blob =
  if chunk_size <= 0 then invalid_arg "Migrate.sender: chunk_size must be positive";
  let key = session_key vmm ~session in
  let keyframe = key_frame ~session ~side:"snd" in
  key_event vmm ~session ~frame:keyframe Trace.Page_zero;
  let nchunks = (Bytes.length blob + chunk_size - 1) / chunk_size in
  charge_mac vmm (Bytes.length blob);
  {
    s_vmm = vmm;
    s_key = key;
    s_keyframe = keyframe;
    s_session = session;
    s_tid = trace_id;
    s_blob = blob;
    s_chunk_size = chunk_size;
    s_nchunks = nchunks;
    s_digest = Oscrypto.Sha256.hex (Oscrypto.Hmac.mac ~key blob);
    s_acked = Array.make nchunks false;
    s_offer_acked = false;
    s_ready = false;
    s_commit_acked = false;
    s_abort_acked = false;
    s_refused = 0;
    s_key_scrubbed = false;
    s_dropped = false;
  }

let scrub_sender_key s =
  if not s.s_key_scrubbed then begin
    s.s_key_scrubbed <- true;
    Bytes.fill s.s_key 0 (Bytes.length s.s_key) '\000';
    key_event s.s_vmm ~session:s.s_session ~frame:s.s_keyframe Trace.Frame_scrub
  end

let drop_sender s =
  if not s.s_dropped then begin
    s.s_dropped <- true;
    key_event s.s_vmm ~session:s.s_session ~frame:s.s_keyframe Trace.Frame_free
  end

let close_sender s =
  scrub_sender_key s;
  drop_sender s

let sender_key_scrubbed s = s.s_key_scrubbed

let emit vmm ~key ~session ?tid frame =
  let wire = encode ~key ~session ?tid frame in
  charge_mac vmm (Bytes.length wire);
  wire

let offer_wire s =
  emit s.s_vmm ~key:s.s_key ~session:s.s_session ~tid:s.s_tid
    (Offer
       { nchunks = s.s_nchunks; blob_len = Bytes.length s.s_blob;
         digest = s.s_digest })

let chunk_wires s =
  (* one retransmission round: every currently-unacked chunk, in order *)
  let out = ref [] in
  for seq = s.s_nchunks - 1 downto 0 do
    if not s.s_acked.(seq) then begin
      let off = seq * s.s_chunk_size in
      let len = min s.s_chunk_size (Bytes.length s.s_blob - off) in
      Vmm.charge_copy s.s_vmm ~bytes_count:len;
      out :=
        emit s.s_vmm ~key:s.s_key ~session:s.s_session ~tid:s.s_tid
          (Chunk { seq; payload = Bytes.sub s.s_blob off len })
        :: !out
    end
  done;
  !out

let commit_wire s =
  emit s.s_vmm ~key:s.s_key ~session:s.s_session ~tid:s.s_tid Commit

let abort_wire s =
  emit s.s_vmm ~key:s.s_key ~session:s.s_session ~tid:s.s_tid Abort

let absorb_ack s wire =
  charge_check s.s_vmm (Bytes.length wire);
  match decode ~key:s.s_key ~session:s.s_session wire with
  | Error _ -> s.s_refused <- s.s_refused + 1
  | Ok (Ack seq) ->
      if seq = ack_offer then s.s_offer_acked <- true
      else if seq = ack_commit then s.s_commit_acked <- true
      else if seq = ack_abort then s.s_abort_acked <- true
      else if seq >= 0 && seq < s.s_nchunks then s.s_acked.(seq) <- true
  | Ok Ready -> s.s_ready <- true
  | Ok _ -> ()  (* a forward frame reflected back; ignore *)

let nchunks s = s.s_nchunks
let offer_acked s = s.s_offer_acked
let ready s = s.s_ready
let commit_acked s = s.s_commit_acked
let abort_acked s = s.s_abort_acked
let refused_acks s = s.s_refused

let outstanding s =
  Array.fold_left (fun n acked -> if acked then n else n + 1) 0 s.s_acked

(* --- receiver (destination VMM) --- *)

type receiver = {
  r_vmm : Vmm.t;
  r_key : bytes;
  r_keyframe : int;
  r_session : string;
  mutable r_nchunks : int;  (* -1 until a valid OFFER arrives *)
  mutable r_blob_len : int;
  mutable r_digest : string;
  mutable r_chunks : bytes option array;
  mutable r_have : int;
  mutable r_blob : bytes option;  (* assembled and digest-verified *)
  mutable r_committed : bool;
  mutable r_aborted : bool;
  mutable r_rejects : reject list;  (* newest first *)
  mutable r_tid : int;  (* request trace id learned from the first
                           authenticated frame; 0 until then *)
  mutable r_key_scrubbed : bool;
  mutable r_dropped : bool;
}

let receiver vmm ~session =
  let keyframe = key_frame ~session ~side:"rcv" in
  let key = session_key vmm ~session in
  key_event vmm ~session ~frame:keyframe Trace.Page_zero;
  {
    r_vmm = vmm;
    r_key = key;
    r_keyframe = keyframe;
    r_session = session;
    r_nchunks = -1;
    r_blob_len = 0;
    r_digest = "";
    r_chunks = [||];
    r_have = 0;
    r_blob = None;
    r_committed = false;
    r_aborted = false;
    r_rejects = [];
    r_tid = 0;
    r_key_scrubbed = false;
    r_dropped = false;
  }

let scrub_receiver_key r =
  if not r.r_key_scrubbed then begin
    r.r_key_scrubbed <- true;
    Bytes.fill r.r_key 0 (Bytes.length r.r_key) '\000';
    key_event r.r_vmm ~session:r.r_session ~frame:r.r_keyframe Trace.Frame_scrub
  end

let drop_receiver r =
  if not r.r_dropped then begin
    r.r_dropped <- true;
    key_event r.r_vmm ~session:r.r_session ~frame:r.r_keyframe Trace.Frame_free
  end

let close_receiver r =
  scrub_receiver_key r;
  drop_receiver r

let receiver_key_scrubbed r = r.r_key_scrubbed

let rejected r why =
  r.r_rejects <- why :: r.r_rejects;
  []

(* All chunks present: verify the end-to-end digest before exposing the
   blob. Per-chunk MACs already authenticate each piece; the digest binds
   the *composition* (count, order, total length) to the offer. *)
let assemble r =
  let buf = Buffer.create (max r.r_blob_len 16) in
  Array.iter
    (function Some c -> Buffer.add_bytes buf c | None -> assert false)
    r.r_chunks;
  let blob = Buffer.to_bytes buf in
  charge_check r.r_vmm (Bytes.length blob);
  if
    Bytes.length blob <> r.r_blob_len
    || Oscrypto.Sha256.hex (Oscrypto.Hmac.mac ~key:r.r_key blob) <> r.r_digest
  then rejected r Digest_mismatch
  else begin
    r.r_blob <- Some blob;
    [ emit r.r_vmm ~key:r.r_key ~session:r.r_session ~tid:r.r_tid Ready ]
  end

let deliver r wire =
  charge_check r.r_vmm (Bytes.length wire);
  let decoded = decode_full ~key:r.r_key ~session:r.r_session wire in
  (* adopt the request trace id from the first authenticated frame that
     carries one; acks from here on echo it back, so the id round-trips
     end to end without ever leaving the MAC'd header *)
  (match decoded with
  | Ok (_, tid) when r.r_tid = 0 && tid <> 0 -> r.r_tid <- tid
  | _ -> ());
  let ack code =
    emit r.r_vmm ~key:r.r_key ~session:r.r_session ~tid:r.r_tid (Ack code)
  in
  match Result.map fst decoded with
  | Error why -> rejected r why
  | Ok _ when r.r_aborted -> []  (* session torn down; stay silent *)
  | Ok (Offer { nchunks; blob_len; digest }) ->
      if r.r_nchunks = -1 then begin
        r.r_nchunks <- nchunks;
        r.r_blob_len <- blob_len;
        r.r_digest <- digest;
        r.r_chunks <- Array.make nchunks None;
        let a = ack ack_offer in
        if nchunks = 0 && r.r_blob = None then a :: assemble r else [ a ]
      end
      else if
        nchunks = r.r_nchunks && blob_len = r.r_blob_len && digest = r.r_digest
      then [ ack ack_offer ]  (* duplicated offer: idempotent *)
      else rejected r Conflict
  | Ok (Chunk { seq; payload }) ->
      (* a chunk overtaking its offer is benign reordering: stay silent
         and let retransmission redeliver it once the manifest landed *)
      if r.r_nchunks < 0 then []
      else if seq >= r.r_nchunks then rejected r Conflict
      else (
        match r.r_chunks.(seq) with
        | Some prev when not (Bytes.equal prev payload) ->
            (* two validly-MAC'd payloads for one seq contradict the
               session: refuse rather than pick one *)
            rejected r Conflict
        | Some _ -> [ ack seq ]  (* duplicate delivery: re-ack *)
        | None ->
            r.r_chunks.(seq) <- Some payload;
            r.r_have <- r.r_have + 1;
            Vmm.charge_copy r.r_vmm ~bytes_count:(Bytes.length payload);
            let a = ack seq in
            if r.r_have = r.r_nchunks && r.r_blob = None then a :: assemble r
            else [ a ])
  | Ok Commit -> (
      (* commit is only meaningful once the blob verified; an early or
         replayed commit gets silence and the source keeps retrying *)
      match r.r_blob with
      | Some _ ->
          r.r_committed <- true;
          [ ack ack_commit ]
      | None -> [])
  | Ok Abort ->
      r.r_aborted <- true;
      r.r_blob <- None;
      r.r_chunks <- [||];
      [ ack ack_abort ]
  | Ok (Ready | Ack _) -> []  (* reverse frames reflected forward; ignore *)

let blob r = r.r_blob
let trace_id r = r.r_tid
let committed r = r.r_committed
let aborted r = r.r_aborted
let rejects r = List.rev r.r_rejects

let progress r = (max r.r_have 0, max r.r_nchunks 0)
