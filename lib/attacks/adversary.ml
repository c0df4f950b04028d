(* The malicious-kernel personality: a seeded, deterministic adversary
   that sits between the shim and the real kernel dispatcher and behaves
   like a compromised OS. It lies about syscall results (Iago attacks),
   mutates the address space behind cloaked mappings (remap, double-map,
   stale-ciphertext replay), confuses identities (wrong-pid waits and
   signals) and attacks scheduling (starvation, EIO storms, shim
   re-entry). Every attack is drawn from a per-class PRNG and recorded in
   the VMM's audit trail, so a sweep under the same seed replays the same
   campaign byte-for-byte. *)

open Machine
open Guest

type cls = Lies | Address | Identity | Sched

let classes = [ Lies; Address; Identity; Sched ]

let class_name = function
  | Lies -> "lies"
  | Address -> "address"
  | Identity -> "identity"
  | Sched -> "sched"

let class_of_name = function
  | "lies" -> Some Lies
  | "address" -> Some Address
  | "identity" -> Some Identity
  | "sched" -> Some Sched
  | _ -> None

type mapping = { asid : int; vpn : Addr.vpn; ppn : Addr.ppn; mpn : Addr.mpn }

type t = {
  vmm : Cloak.Vmm.t;
  cls : cls;
  prng : Oscrypto.Prng.t;
  mutable seen : int;     (* intercepted syscalls so far *)
  mutable next_at : int;  (* [seen] value that triggers the next attack *)
  mutable sticky : int;   (* attacks left in a keep-lying-on-retry burst *)
  mutable rw_seen : int;  (* device reads/writes seen (Lies class) *)
  dig_at : int;           (* the rw on which the liar digs in *)
  mutable executed : int;
  mutable in_attack : bool;  (* recursion guard for re-entry probes *)
  (* where the VMM last placed cloaked pages, via the map observer;
     most recent first, bounded *)
  mutable cloaked_maps : mapping list;
  (* stale ciphertext captured for a later replay *)
  mutable snapshot : (Addr.ppn * bytes) option;
}

let max_tracked_maps = 64

let class_salt = function
  | Lies -> 0x11E5
  | Address -> 0xADD2
  | Identity -> 0x1DE7
  | Sched -> 0x5C4D

let create ~vmm ~cls ~seed =
  let prng = Oscrypto.Prng.create ~seed:(seed lxor (class_salt cls * 0x9E3779B1)) in
  {
    vmm;
    cls;
    prng;
    seen = 0;
    next_at = 2 + Oscrypto.Prng.int prng 4;
    sticky = 0;
    rw_seen = 0;
    dig_at = 1 + Oscrypto.Prng.int prng 3;
    executed = 0;
    in_attack = false;
    cloaked_maps = [];
    snapshot = None;
  }

let executed t = t.executed

let audit t fmt =
  Printf.ksprintf
    (fun msg ->
      Inject.Audit.record (Cloak.Vmm.audit t.vmm) "adversary [%s] %s"
        (class_name t.cls) msg)
    fmt

let note t fmt =
  t.executed <- t.executed + 1;
  audit t fmt

(* --- lying syscall returns (Iago) --- *)

let lie t (call : Abi.call) (v : Abi.value) =
  let lied v' why =
    note t "lie: %s" why;
    v'
  in
  match (call, v) with
  (* a dug-in liar repeats the same kind of lie through the shim's retry
     budget — the path that must end in a typed refusal, not a loop *)
  | Abi.Read { len; _ }, Abi.Int n when n >= 0 && t.sticky > 0 ->
      let claim = len + 1 + Oscrypto.Prng.int t.prng 4096 in
      lied (Abi.Int claim)
        (Printf.sprintf "read claims %d bytes for a %d-byte request (dug in)" claim len)
  | Abi.Write { len; _ }, Abi.Int n when n >= 0 && t.sticky > 0 ->
      let claim = len + 1 + Oscrypto.Prng.int t.prng 4096 in
      lied (Abi.Int claim)
        (Printf.sprintf "write claims %d bytes for a %d-byte request (dug in)" claim len)
  | Abi.Read { len; _ }, Abi.Int n when n >= 0 -> (
      match Oscrypto.Prng.int t.prng 4 with
      | 0 ->
          let claim = len + 1 + Oscrypto.Prng.int t.prng 4096 in
          lied (Abi.Int claim)
            (Printf.sprintf "read claims %d bytes for a %d-byte request" claim len)
      | 1 -> lied (Abi.Int (-1 - Oscrypto.Prng.int t.prng 4)) "read claims negative length"
      | 2 -> lied (Abi.Err Errno.EIO) "read fabricates EIO"
      | _ -> lied Abi.Unit "read returns the wrong result shape")
  | Abi.Write { len; _ }, Abi.Int n when n >= 0 -> (
      match Oscrypto.Prng.int t.prng 3 with
      | 0 ->
          let claim = len + 1 + Oscrypto.Prng.int t.prng 4096 in
          lied (Abi.Int claim)
            (Printf.sprintf "write claims %d bytes for a %d-byte request" claim len)
      | 1 -> lied (Abi.Int (-1)) "write claims negative length"
      | _ -> lied (Abi.Err Errno.EIO) "write fabricates EIO")
  | Abi.Mmap { pages; _ }, Abi.Int vpn when vpn > 0 -> (
      match Oscrypto.Prng.int t.prng 2 with
      | 0 -> lied (Abi.Int 0) (Printf.sprintf "mmap of %d pages returns vpn 0" pages)
      | _ ->
          let bogus = vpn + (1 lsl 18) in
          lied (Abi.Int bogus)
            (Printf.sprintf "mmap of %d pages returns bogus vpn %d" pages bogus))
  (* everything else (ticks, closes, syncs, sbrks whose results the libc
     layer ignores) passes: errno fabrication on arbitrary syscalls is the
     Sched class's EIO burst, and lying there would only end runs before
     the data-path lies above get exercised *)
  | _, v -> v

(* --- identity confusion --- *)

let confuse_identity t (call : Abi.call) (v : Abi.value) =
  let attacked v' why =
    note t "identity: %s" why;
    v'
  in
  match (call, v) with
  | (Abi.Getpid | Abi.Getppid), Abi.Int p ->
      let wrong = p + 1 + Oscrypto.Prng.int t.prng 5 in
      attacked (Abi.Int wrong) (Printf.sprintf "getpid answered %d for pid %d" wrong p)
  | Abi.Wait, Abi.Pair (pid, status) ->
      let wrong = pid + 1 + Oscrypto.Prng.int t.prng 5 in
      attacked
        (Abi.Pair (wrong, status))
        (Printf.sprintf "wait delivered child %d as pid %d" pid wrong)
  | Abi.Fork _, Abi.Int child when child > 0 ->
      attacked
        (Abi.Int (child + 1))
        (Printf.sprintf "fork handed the parent pid %d instead of %d" (child + 1) child)
  | _, v ->
      (* wrong-pid signal delivery: wrap the result in a signal the process
         was never sent *)
      let signum = [| 10; 13; 15 |].(Oscrypto.Prng.int t.prng 3) in
      attacked (Abi.Signaled (signum, v))
        (Printf.sprintf "delivered spurious signal %d" signum)

(* --- address-space attacks --- *)

(* Two distinct cloaked placements in the same address space, most recent
   first — the raw material for remap and double-map. *)
let pick_pair t =
  let rec go = function
    | a :: rest -> (
        match List.find_opt (fun b -> b.asid = a.asid && b.ppn <> a.ppn) rest with
        | Some b -> Some (a, b)
        | None -> go rest)
    | [] -> None
  in
  go t.cloaked_maps

let attack_address t =
  match Oscrypto.Prng.int t.prng 3 with
  | 0 -> (
      (* exchange the frames behind two cloaked mappings *)
      match pick_pair t with
      | Some (a, b) ->
          let pt = Cloak.Vmm.page_table t.vmm ~asid:a.asid in
          Page_table.map pt a.vpn b.ppn ~writable:true ~user:true;
          Page_table.map pt b.vpn a.ppn ~writable:true ~user:true;
          Cloak.Vmm.invlpg t.vmm ~asid:a.asid ~vpn:a.vpn;
          Cloak.Vmm.invlpg t.vmm ~asid:b.asid ~vpn:b.vpn;
          note t "remap: swapped ppn %d and %d under asid %d" a.ppn b.ppn a.asid
      | None -> ())
  | 1 -> (
      (* double-map: two cloaked VAs onto one frame *)
      match pick_pair t with
      | Some (a, b) ->
          let pt = Cloak.Vmm.page_table t.vmm ~asid:a.asid in
          Page_table.map pt a.vpn b.ppn ~writable:true ~user:true;
          Cloak.Vmm.invlpg t.vmm ~asid:a.asid ~vpn:a.vpn;
          note t "double-map: vpn %d aliased onto ppn %d under asid %d" a.vpn b.ppn
            a.asid
      | None -> ())
  | _ -> (
      (* replay: snapshot a cloaked frame's ciphertext now, write it back
         over a later version of the page *)
      match t.snapshot with
      | Some (ppn, cipher) ->
          t.snapshot <- None;
          Cloak.Vmm.phys_write t.vmm ppn ~off:0 cipher;
          note t "replay: restored stale ciphertext over ppn %d" ppn
      | None -> (
          match t.cloaked_maps with
          | m :: _ ->
              (* the kernel-view read forces encryption, so the snapshot is
                 the authentic ciphertext of the current version *)
              let cipher =
                Cloak.Vmm.phys_read t.vmm m.ppn ~off:0 ~len:Addr.page_size
              in
              t.snapshot <- Some (m.ppn, cipher);
              note t "replay: snapshotted ciphertext of ppn %d" m.ppn
          | [] -> ()))

(* --- scheduling attacks --- *)

let attack_sched t (env : Abi.env) (call : Abi.call) (v : Abi.value) =
  match Oscrypto.Prng.int t.prng 3 with
  | 0 ->
      let stall = 50_000 + Oscrypto.Prng.int t.prng 50_000 in
      Cloak.Vmm.charge t.vmm stall;
      note t "starved the vCPU for %d cycles mid-syscall" stall;
      v
  | 1 -> (
      (* re-enter the shim while its marshal buffer is in flight; the
         shim's latch must refuse, which we observe and swallow *)
      match call with
      | Abi.Read _ | Abi.Write _ ->
          note t "re-entering the shim mid-marshal";
          (try ignore (env.Abi.dispatch (Abi.Read { fd = -1; vaddr = 0; len = 1 }))
           with Oshim.Shim.Hostile_os _ -> audit t "shim latch refused the re-entry");
          v
      | _ -> v)
  | _ -> (
      (* resource-starvation: pretend the device went away for this call *)
      match call with
      | Abi.Read _ | Abi.Write _ | Abi.Open _ | Abi.Sync ->
          note t "EIO burst on a device syscall";
          Abi.Err Errno.EIO
      | _ -> v)

(* --- the interposed dispatcher --- *)

let execute t env direct (call : Abi.call) =
  match t.cls with
  | Lies -> lie t call (direct call)
  | Identity -> confuse_identity t call (direct call)
  | Address ->
      (* the OS does its dirty work while the syscall is "in the kernel",
         then returns the genuine result; the victim's next touch of the
         attacked pages is where the VMM must catch it *)
      let v = direct call in
      attack_address t;
      v
  | Sched -> attack_sched t env call (direct call)

let wrap t env direct (call : Abi.call) =
  if t.in_attack then direct call
  else begin
    t.seen <- t.seen + 1;
    (* the liar digs in on one chosen device read/write: it keeps lying
       through the shim's whole retry budget, so the only sound ending is
       the typed [Hostile_os] refusal *)
    (match call with
    | (Abi.Read _ | Abi.Write _) when t.cls = Lies ->
        t.rw_seen <- t.rw_seen + 1;
        if t.rw_seen = t.dig_at then t.sticky <- Oshim.Shim.paraverify_retries + 1
    | _ -> ());
    let fire =
      if t.sticky > 0 then begin
        t.sticky <- t.sticky - 1;
        true
      end
      else if t.seen >= t.next_at then begin
        t.next_at <- t.seen + 2 + Oscrypto.Prng.int t.prng 4;
        true
      end
      else false
    in
    if not fire then direct call
    else begin
      t.in_attack <- true;
      Fun.protect
        ~finally:(fun () -> t.in_attack <- false)
        (fun () -> execute t env direct call)
    end
  end

let arm t (env : Abi.env) =
  Cloak.Vmm.set_map_observer t.vmm
    (Some
       (fun ~asid ~vpn ~ppn ~mpn ~cloaked ->
         if cloaked && not t.in_attack then begin
           let m = { asid; vpn; ppn; mpn } in
           let rest =
             List.filteri (fun i _ -> i < max_tracked_maps - 1) t.cloaked_maps
           in
           t.cloaked_maps <-
             m :: List.filter (fun o -> not (o.asid = asid && o.vpn = vpn)) rest
         end));
  let direct = env.Abi.dispatch in
  env.Abi.dispatch <- wrap t env direct

let disarm t (env : Abi.env) ~direct =
  Cloak.Vmm.set_map_observer t.vmm None;
  env.Abi.dispatch <- direct
