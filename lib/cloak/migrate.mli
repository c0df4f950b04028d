(** Chunked, authenticated live-migration transport for sealed checkpoints.

    Live migration moves a cloaked process between two VMM instances by
    shipping its sealed checkpoint blob ({!Seal.capture}) over a channel
    the OS/network fully controls — frames can be dropped, duplicated,
    delayed, reordered, truncated, or bit-flipped (the [Mig_send] /
    [Mig_recv] / [Mig_ack] injection sites). The defence is entirely
    cryptographic and stateless-on-the-wire:

    - every frame carries an HMAC under a per-session transfer key
      ({!session_key}, derived by both VMMs from the fleet-shared master
      secret bound to the session id) — a flipped or torn frame fails
      [Bad_mac] and is simply not acknowledged;
    - chunks carry sequence numbers and the OFFER pins the chunk count,
      blob length and an end-to-end digest, so reordering and duplication
      reduce to idempotent re-delivery and the assembled blob is accepted
      only if byte-identical to what the source sealed;
    - freshness is {e not} the transport's job: the blob inside is a
      sealed checkpoint whose generation is journal-anchored, so replaying
      a whole session at either VMM dies in [Stale_checkpoint] at unseal
      ({!Seal.install} with [~consume:true] retires the generation).

    The protocol (driven by [Guest.Migration.transfer]; this module is
    the pure mechanism): OFFER → CHUNK* (retransmission rounds; receiver
    acks each seq) → READY (receiver assembled and digest-verified) →
    source fences itself ({!Vmm.retire_seal_generation}) → COMMIT →
    destination resumes. ABORT at any pre-fence point leaves the source
    untouched. *)

(** Why the receiver refused a frame (or the assembled stream). A typed
    reject never installs anything: the fuzz property is that any mangled
    stream either reconstructs the byte-identical blob or lands here. *)
type reject =
  | Bad_mac           (** frame MAC verification failed (flip, truncation) *)
  | Malformed         (** valid MAC but unparseable — a codec bug, not an attack *)
  | Wrong_session     (** validly MAC'd frame from a different session *)
  | Conflict          (** validly MAC'd frame contradicting session state *)
  | Digest_mismatch   (** assembled blob fails the end-to-end digest *)

val reject_to_string : reject -> string

type frame =
  | Offer of { nchunks : int; blob_len : int; digest : string }
      (** transfer manifest; [digest] is hex of HMAC(session key, blob) *)
  | Chunk of { seq : int; payload : bytes }
  | Ready   (** receiver: blob assembled and digest-verified *)
  | Commit  (** source: fence passed — resume at destination *)
  | Abort   (** source: give up — destination discards all state *)
  | Ack of int  (** receiver: chunk seq, or a negative control code *)

val session_key : Vmm.t -> session:string -> bytes
(** The per-session transfer key. [session] must be non-empty and contain
    only [[A-Za-z0-9:._-]]. *)

val encode : key:bytes -> session:string -> ?tid:int -> frame -> bytes
(** Wire form: an {!Envelope} with header [MIGF1|session|kind|seq|len|tid]
    under the session key; an envelope that fails its MAC is [Bad_mac],
    one that has no header line or the wrong fields is [Malformed]. [tid]
    (default 0 = none) is the request trace id for causal cross-host
    tracing; as a header field it sits under the MAC, so the OS cannot
    relabel a frame's request without failing [Bad_mac]. Pure; cycle
    charging happens in the sender/receiver wrappers. *)

val decode : key:bytes -> session:string -> bytes -> (frame, reject) result

(** {1 The untrusted channel}

    A deterministic model of the OS-controlled transport: two FIFO queues
    (forward data, reverse acks) whose every insertion and delivery probes
    the injection engine. [Drop]/[Io_error] lose the frame, [Duplicate]
    delivers it twice, [Delay n] holds it for [n] deliveries, [Reorder]
    shuffles it, [Bit_flip]/[Torn_write] mangle it, [Crash_point] kills
    the VMM mid-protocol. Every frame the OS observed is retained in
    {!wire_log} so harnesses can scan for plaintext leakage and replay
    recorded frames. *)

type channel

val channel : ?engine:Inject.t -> unit -> channel

val send : channel -> bytes -> unit
(** Source hands a forward frame to the OS ([Mig_send] site). *)

val reply : channel -> bytes -> unit
(** Destination hands a reverse frame (ack/READY) back ([Mig_ack] site). *)

val recv : channel -> bytes option
(** Deliver the next ripe forward frame ([Mig_recv] site); [None] when
    nothing is deliverable this round. *)

val recv_reply : channel -> bytes option
(** Deliver the next ripe reverse frame ([Mig_recv] site). *)

val wire_log : channel -> bytes list
(** Every frame that transited, oldest first, as the OS saw it (including
    mangled variants) — the privacy-scan and replay-probe surface. *)

(** {1 Sender — the source VMM's half} *)

type sender

val default_chunk_size : int

val sender :
  Vmm.t -> session:string -> ?chunk_size:int -> ?trace_id:int -> bytes -> sender
(** Wrap a sealed blob for transfer: derives the session key, splits into
    [chunk_size]-byte pieces and computes the end-to-end digest (charged
    to the source VMM's cycle account). [trace_id] (default 0 = none)
    stamps every frame of the session with the migrating request's trace
    id — see {!encode}. *)

val offer_wire : sender -> bytes
val chunk_wires : sender -> bytes list
(** One retransmission round: wires for every currently-unacked chunk in
    sequence order. Charges copy + MAC cycles per chunk; the driver calls
    this again (under its retry policy) until {!outstanding} is 0. *)

val commit_wire : sender -> bytes
val abort_wire : sender -> bytes

val absorb_ack : sender -> bytes -> unit
(** Process one reverse frame: marks chunks/controls acked, records
    READY. A frame that fails to decode only bumps {!refused_acks} —
    retransmission covers the loss. *)

val nchunks : sender -> int
val outstanding : sender -> int
val offer_acked : sender -> bool
val ready : sender -> bool
val commit_acked : sender -> bool
val abort_acked : sender -> bool

val refused_acks : sender -> int
(** Reverse frames refused so far because they failed to decode (a
    flipped or torn ack) — the sender's count beside the receiver's
    {!rejects}. *)

(** {2 Key lifecycle}

    The session key is cloaked key material, so it obeys the same
    scrub-before-free invariant as any plaintext frame. Each endpoint
    models its key copy as a synthetic frame on its VMM's flight
    recorder: marked held at derivation, scrubbed by [scrub_*_key]
    (which zeroizes the bytes), freed by [drop_*]. Dropping an endpoint
    without scrubbing first is reported by {!Trace.Check.verdict};
    drivers call [close_*] on COMMIT, ABORT and session teardown alike.
    Scrub/drop are idempotent and deliberately {e not} automatic on
    protocol frames: a retransmitted COMMIT or ABORT must still MAC-check
    against the live key, so only the driver knows when the session is
    truly over. *)

val scrub_sender_key : sender -> unit
val drop_sender : sender -> unit
val close_sender : sender -> unit
val sender_key_scrubbed : sender -> bool

(** {1 Receiver — the destination VMM's half} *)

type receiver

val receiver : Vmm.t -> session:string -> receiver

val deliver : receiver -> bytes -> bytes list
(** Process one forward frame; returns the reverse wires (acks, READY) to
    hand back to the channel. Tampered frames are rejected (see
    {!rejects}) and never acknowledged; duplicate chunks re-ack
    idempotently; a COMMIT before the blob verified is ignored. *)

val blob : receiver -> bytes option
(** The assembled blob — only once every chunk arrived and the end-to-end
    digest verified; by construction byte-identical to what the source
    sealed. *)

val trace_id : receiver -> int
(** The request trace id learned from the first authenticated frame that
    carried one (0 until then) — the destination's handle for continuing
    the request's causal trace after adoption. Authenticated: only a
    frame that passed its session MAC can set it. *)

val committed : receiver -> bool
val rejects : receiver -> reject list
(** Every refusal so far, oldest first. *)

val scrub_receiver_key : receiver -> unit
val drop_receiver : receiver -> unit
val close_receiver : receiver -> unit
val receiver_key_scrubbed : receiver -> bool
(** See {!scrub_sender_key}: the destination's copy of the session key
    obeys the same scrub-before-free lifecycle. *)
