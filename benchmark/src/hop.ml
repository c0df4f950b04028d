(* migrate: a supervised cloaked service with 16 cloaked state pages hops
   over a fault-free Cloak.Migrate.channel onto a fresh VMM at every hop.

   A hop: the service reaches its quiesce point (the checkpoint
   hypercall); the drain hook pumps sender and receiver to READY, fences
   the source with retire_seal_generation and sends COMMIT; the source
   incarnation exits -4; the destination adopts the blob and the service
   resumes there, first verifying every state page and its counter
   against the host-side model. Hops run one after another from this
   loop, never as nested Kernel.runs, and each retired stack is dropped.
   The last destination runs the service to completion (exit 0).

   Op latency = source drain cycles (quiesce request to COMMIT) +
   destination adopt cycles. The seed picks the state contents, the page-0
   payload of every unit, the compute per unit and the session
   identifiers on the wire. Why this workload: seal, the MIGF1 codec and
   large-blob HMAC dominate here and are nearly absent from the other
   three.

   IV streams. Every VMM of a fleet shares the master secret, which is its
   config seed, and the seed also drives its IV generator: each fresh VMM
   draws the same IV sequence from the start. A page re-encrypted on two
   fresh VMMs at the same draw position therefore gets its previous IV
   back, and the IV-reuse check kills the service. So each unit rewrites
   only page 0 (one IV draw per hop), and a primer process makes the
   stacks alternate where that draw lands: the origin burns two draws
   (its first capture seals all 16 pages at draws 3..18), and every odd
   destination burns one (page 0 alternates between draws 2 and 1). The
   primer runs at stack creation, outside the drain and adopt latency. *)

open Machine
open Guest

let state_pages = 16
let state_bytes = state_pages * Addr.page_size

let kconfig =
  {
    Kernel.default_config with
    guest_pages = 128;
    fs_blocks = 256;
    swap_blocks = 256;
    journal_blocks = 16;
  }

(* Host-side state shared by every incarnation of the service. *)
type st = {
  model : bytes;  (** the state pages as they must read back *)
  rng : Oscrypto.Prng.t;
  unit_cycles : int;  (** compute per unit of work *)
  mutable quiesce : int;  (** source cycles when the service asked to quiesce *)
  mutable drained : int;  (** source cycles when the drain hook committed *)
  mutable received : bytes option;  (** the blob the destination assembled *)
}

let counter st = Int64.to_int (Bytes.get_int64_le st.model 0)

let service (p : Work.params) tally st ~rounds (env : Abi.env) =
  let u = Uapi.of_env env in
  let pid = env.Abi.pid in
  let restored = Uapi.restored u in
  let state_vpn =
    if restored then Kernel.mmap_base_vpn else Uapi.mmap u ~pages:state_pages ~cloaked:true ()
  in
  let sh = Oshim.Shim.install u in
  let base = Addr.vaddr_of_vpn state_vpn in
  if restored then begin
    if not (Work.equal_at (Uapi.load u ~vaddr:base ~len:state_bytes) st.model 0) then
      Work.fail tally "state pages differ from the model after adopt (counter %d)" (counter st)
  end
  else begin
    Work.fill st.rng st.model;
    Bytes.set_int64_le st.model 0 0L;
    Uapi.store u ~vaddr:base st.model
  end;
  let page0 = Bytes.create Addr.page_size in
  for unit = counter st to rounds - 1 do
    (* one unit of work: a fresh seeded page 0 carrying the counter *)
    Work.fill st.rng page0;
    Bytes.set_int64_le page0 0 (Int64.of_int (unit + 1));
    Bytes.blit page0 0 st.model 0 Addr.page_size;
    Uapi.store u ~vaddr:base page0;
    Uapi.compute u ~cycles:st.unit_cycles;
    st.quiesce <- Work.cycles env.Abi.vmm;
    (* quiesce point: the checkpoint, and the drain hook when armed *)
    Spans.span p.spans ~pid "migrate.drain" (fun () -> ignore (Oshim.Shim.checkpoint sh))
  done;
  Uapi.exit u 0

(* Seal [draws] dirty cloaked pages, consuming that many IVs (see the
   header comment), then exit so the pid is free again. *)
let primer ~draws (env : Abi.env) =
  let u = Uapi.of_env env in
  let vpn = Uapi.mmap u ~pages:draws ~cloaked:true () in
  for i = 0 to draws - 1 do
    Uapi.store_byte u ~vaddr:(Addr.vaddr_of_vpn (vpn + i)) 1
  done;
  ignore (Uapi.checkpoint u);
  Uapi.exit u 0

let stack tally ~draws =
  let vmm = Cloak.Vmm.create () in
  let mark = Work.mark vmm in
  let k = Kernel.create ~config:kconfig vmm in
  if draws > 0 then begin
    let pid = Kernel.spawn_supervised k (primer ~draws) in
    (try Kernel.run k with e -> Work.fail tally "primer: %s" (Printexc.to_string e));
    Work.exit_ok tally k ~pid ~expect:0 "primer"
  end;
  (vmm, k, mark)

(* Deliver frames both ways until neither side moves. *)
let pump ch snd rcv =
  let moved = ref true in
  while !moved do
    moved := false;
    (match Cloak.Migrate.recv ch with
    | Some w ->
        moved := true;
        List.iter (Cloak.Migrate.reply ch) (Cloak.Migrate.deliver rcv w)
    | None -> ());
    match Cloak.Migrate.recv_reply ch with
    | Some w ->
        moved := true;
        Cloak.Migrate.absorb_ack snd w
    | None -> ()
  done

let drain (p : Work.params) tally st ~pid ~src ~dst ~ch ~session blob =
  Spans.span p.spans ~pid "migrate.transfer" (fun () ->
      let tag = Cloak.Resource.tag (Cloak.Resource.Anon pid) in
      let gen = Cloak.Vmm.seal_generation src ~tag in
      let snd = Cloak.Migrate.sender src ~session blob in
      let rcv = Cloak.Migrate.receiver dst ~session in
      Cloak.Migrate.send ch (Cloak.Migrate.offer_wire snd);
      List.iter (Cloak.Migrate.send ch) (Cloak.Migrate.chunk_wires snd);
      pump ch snd rcv;
      let decision =
        if not (Cloak.Migrate.ready snd) then begin
          Work.fail tally "%s: destination never became READY" session;
          Kernel.Mig_abort
        end
        else begin
          Cloak.Vmm.retire_seal_generation src ~tag ~gen;
          Cloak.Migrate.send ch (Cloak.Migrate.commit_wire snd);
          pump ch snd rcv;
          if not (Cloak.Migrate.commit_acked snd) then
            Work.fail tally "%s: COMMIT never acknowledged" session;
          st.received <- Cloak.Migrate.blob rcv;
          Kernel.Mig_commit
        end
      in
      Cloak.Migrate.close_sender snd;
      Cloak.Migrate.close_receiver rcv;
      st.drained <- Work.cycles src;
      decision)

exception Stop

let run (p : Work.params) ~timed =
  let tally = Work.tally () in
  let c = Work.clock p in
  let sp = p.spans in
  let rng = Oscrypto.Prng.create ~seed:p.seed in
  (* fixed-length session names: the frame sizes, and so the hop cost,
     must not depend on the seed *)
  let token = String.init 8 (fun _ -> Char.chr (Char.code 'a' + Oscrypto.Prng.int rng 26)) in
  let st =
    {
      model = Bytes.create state_bytes;
      rng;
      unit_cycles = 20_000 + Oscrypto.Prng.int rng 4096;
      quiesce = 0;
      drained = 0;
      received = None;
    }
  in
  let hops = p.warmup + if timed then p.ops else 0 in
  let prog = service p tally st ~rounds:(hops + 1) in
  let src = ref (stack tally ~draws:2) in
  let pid =
    let _, k, _ = !src in
    Kernel.spawn_supervised k prog
  in
  let frames = ref 0 and wire_bytes = ref 0 in
  let hop_body hop () =
    let i = hop - p.warmup in
    let src_vmm, src_k, src_mark = !src in
    let ((dst_vmm, dst_k, _) as dst) = stack tally ~draws:((hop + 1) mod 2) in
    Spans.set_cycles sp (fun () -> Work.cycles src_vmm);
    let ch = Cloak.Migrate.channel () in
    let session = Printf.sprintf "%s-%d" token hop in
    st.received <- None;
    Kernel.request_migration src_k ~pid
      (drain p tally st ~pid ~src:src_vmm ~dst:dst_vmm ~ch ~session);
    (try Kernel.run src_k with e -> Work.fail tally "source kernel: %s" (Printexc.to_string e));
    Work.exit_ok tally src_k ~pid ~expect:Kernel.migrated_exit_status "source incarnation";
    Work.no_violations tally src_k;
    if i >= 0 then Work.settle c.usage src_mark;
    let blob =
      match (st.received, Kernel.supervision_stats src_k ~pid) with
      | Some b, Some { Kernel.sup_last_checkpoint = Some sent; _ } when Bytes.equal b sent -> b
      | _ ->
          Work.fail tally "hop %d: the destination holds no copy of the sealed blob" hop;
          raise Stop
    in
    if i >= 0 then begin
      let wire = Cloak.Migrate.wire_log ch in
      frames := !frames + List.length wire;
      wire_bytes := !wire_bytes + List.fold_left (fun a w -> a + Bytes.length w) 0 wire
    end;
    Spans.set_cycles sp (fun () -> Work.cycles dst_vmm);
    let a0 = Work.cycles dst_vmm in
    (match Spans.span sp ~pid "migrate.adopt" (fun () -> Kernel.adopt_migrated dst_k ~prog blob) with
    | adopted when adopted = pid -> ()
    | adopted ->
        Work.fail tally "hop %d adopted pid %d, expected %d" hop adopted pid;
        raise Stop);
    if i >= 0 then c.lat.(i) <- st.drained - st.quiesce + Work.cycles dst_vmm - a0;
    src := dst
  in
  (try
     for hop = 0 to hops - 1 do
       if hop = p.warmup then begin
         (* the window opens on a live stack: re-mark it *)
         let vmm, k, _ = !src in
         c.t_first <- Clock.now_ns ();
         Work.tick c 0;
         src := (vmm, k, Work.mark vmm)
       end;
       tally.attempted <- tally.attempted + 1;
       (try Spans.op sp ~pid ~id:(hop - p.warmup) "migrate.hop" (hop_body hop) with
       | Stop -> raise Stop
       | e ->
           Work.fail tally "hop %d raised %s" hop (Printexc.to_string e);
           raise Stop);
       if hop >= p.warmup then Work.tick c (hop - p.warmup + 1);
       if tally.failed > 0 then raise Stop
     done;
     let _, k, m = !src in
     if not timed then c.t_first <- Clock.now_ns ()
     else begin
       Work.settle c.usage m;
       c.t_end <- Clock.now_ns ();
       (* the tail: the last destination finishes the service *)
       (try Kernel.run k with e -> Work.fail tally "last kernel: %s" (Printexc.to_string e));
       Work.exit_ok tally k ~pid ~expect:0 "last incarnation";
       Work.no_violations tally k
     end
   with Stop -> ());
  Work.outcome ~wire:(!frames, !wire_bytes) c tally ~timed
