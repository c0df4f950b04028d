(** The source-side live-migration driver: one {!Cloak.Migrate} session,
    from the first OFFER to the scrubbed session keys.

    {!Cloak.Migrate} is the pure mechanism (codec, channel, endpoints);
    this module owns the one sequence that makes moving a cloaked process
    safe, run in order with the process stopped at its drain point:

    + retransmission rounds under {!Retry.with_backoff} — each round
      re-offers if unacked, resends every unacked chunk and drains the
      channel both ways; 8 retries at most, a cumulative backoff deadline
      of 400 [disk_op]s, jitter drawn from the caller's PRNG;
    + on READY: the fence — retire the source's seal generation for
      [tag], the split-brain point of no return — then a bounded COMMIT
      nudge;
    + on the deadline: a bounded ABORT nudge; nothing was staled, so the
      process resumes at the source;
    + either way, closing both endpoints, which scrubs and drops both
      copies of the session key.

    Post-fence control frames are liveness-only: the destination already
    holds the verified blob, so losing the COMMIT (or the ABORT's ack)
    forever must not wedge the source — each nudge retries 3 times and
    swallows exhaustion.

    It lives in [lib/guest] rather than beside {!Cloak.Migrate} because
    the retry policy is {!Retry}'s, and [lib/cloak] cannot depend on
    [lib/guest]. The caller builds the sender and the receiver (so it can
    still inspect the receiver after a [Crash_point] unwinds this driver
    mid-session) and keeps what differs per caller: attempt budgets,
    spans, downtime accounting and adopting the blob at the destination. *)

type outcome = {
  committed : bool;  (** READY was reached and the source fenced *)
  retries : int;  (** backoffs charged by the transfer rounds *)
  mac_failures : int;
      (** frames this session refused for failing their MAC: reverse
          frames at the sender ({!Cloak.Migrate.refused_acks}) plus
          [Bad_mac] rejects at the receiver *)
}

val transfer :
  Cloak.Migrate.channel ->
  jitter:Oscrypto.Prng.t ->
  src:Cloak.Vmm.t ->
  tag:string ->
  Cloak.Migrate.sender ->
  Cloak.Migrate.receiver ->
  outcome
(** Run the session from the source VMM [src], charging every backoff
    to it. An exception that is not a stalled round (e.g.
    [Inject.Vmm_crash] from a channel crash point) propagates unchanged
    and leaves the keys unscrubbed, like any power cut. *)

val is_stale : exn -> bool
(** The [Stale_checkpoint] security fault: what a fenced source or a
    consuming destination raises when a migrated blob is resumed twice. *)
