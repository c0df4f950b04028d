(* The one source-side migration driver: transfer rounds, fence, COMMIT
   or ABORT, key teardown. See migration.mli. *)

open Machine

let retry_limit = 8
let deadline_disk_ops = 400

exception Stalled
(* a round ended with the destination still not READY *)

type outcome = { committed : bool; retries : int; mac_failures : int }

(* Drain the channel in both directions until neither side makes
   progress (undelivered frames may still be delayed in flight). *)
let pump ch snd rcv =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    (match Cloak.Migrate.recv ch with
    | Some wire ->
        progressed := true;
        List.iter (Cloak.Migrate.reply ch) (Cloak.Migrate.deliver rcv wire)
    | None -> ());
    match Cloak.Migrate.recv_reply ch with
    | Some wire ->
        progressed := true;
        Cloak.Migrate.absorb_ack snd wire
    | None -> ()
  done

let transfer ch ~jitter ~src ~tag snd rcv =
  let disk_op = (Cost.model (Cloak.Vmm.cost src)).Cost.disk_op in
  let retries = ref 0 in
  let rounds () =
    Retry.with_backoff
      ~deadline_cycles:(deadline_disk_ops * disk_op)
      ~jitter ~limit:retry_limit
      ~retryable:(function Stalled -> true | _ -> false)
      ~charge:(fun ~cycles ->
        incr retries;
        Cloak.Vmm.charge src cycles)
      ~base_cost:disk_op ~exhausted:Retry.Deadline_exceeded
      (fun () ->
        if not (Cloak.Migrate.offer_acked snd) then
          Cloak.Migrate.send ch (Cloak.Migrate.offer_wire snd);
        List.iter (Cloak.Migrate.send ch) (Cloak.Migrate.chunk_wires snd);
        pump ch snd rcv;
        if not (Cloak.Migrate.ready snd) then raise Stalled)
  in
  (* bounded retry of one control frame, exhaustion swallowed *)
  let nudge wire acked =
    try
      Retry.with_backoff ~jitter ~limit:3
        ~retryable:(function Stalled -> true | _ -> false)
        ~charge:(fun ~cycles -> Cloak.Vmm.charge src cycles)
        ~base_cost:disk_op ~exhausted:Stalled
        (fun () ->
          Cloak.Migrate.send ch (wire snd);
          pump ch snd rcv;
          if not (acked snd) then raise Stalled)
    with Stalled -> ()
  in
  let committed =
    match rounds () with
    | () ->
        let gen = Cloak.Vmm.seal_generation src ~tag in
        Cloak.Vmm.retire_seal_generation src ~tag ~gen;
        nudge Cloak.Migrate.commit_wire Cloak.Migrate.commit_acked;
        true
    | exception Retry.Deadline_exceeded ->
        nudge Cloak.Migrate.abort_wire Cloak.Migrate.abort_acked;
        false
  in
  Cloak.Migrate.close_sender snd;
  Cloak.Migrate.close_receiver rcv;
  let bad_macs =
    List.length
      (List.filter (( = ) Cloak.Migrate.Bad_mac) (Cloak.Migrate.rejects rcv))
  in
  {
    committed;
    retries = !retries;
    mac_failures = Cloak.Migrate.refused_acks snd + bad_macs;
  }

let is_stale = function
  | Cloak.Violation.Security_fault { kind = Cloak.Violation.Stale_checkpoint; _ } ->
      true
  | _ -> false
