open Machine
open Guest

let marshal_pages = 16

exception Hostile_os of { call : string; reason : string }

(* Retries the shim grants a lying kernel before refusing the syscall
   outright. Environmental glitches deserve another chance; a kernel that
   lies every time gets a typed [Hostile_os] instead of a loop. *)
let paraverify_retries = 2

type t = {
  u : Uapi.t;
  marshal_vaddr : Addr.vaddr;
  marshal_bytes : int;
  direct : Abi.call -> Abi.value;  (* the dispatcher the kernel gave us *)
  mutable entered : bool;          (* re-entry latch for the marshal paths *)
  children : (int, unit) Hashtbl.t;
      (* pids this process forked, the ground truth for wait results *)
}

let uapi t = t.u
let marshal_vaddr t = t.marshal_vaddr
let marshal_bytes t = t.marshal_bytes
let direct_dispatch t call = t.direct call

(* --- paraverification ---

   Every result the untrusted kernel hands back is checked against the
   shim's own marshaled request before any byte moves into cloaked
   memory. A detected lie is audited and counted; a kernel that keeps
   lying is refused with a typed [Hostile_os] the application can turn
   into bounded degradation. *)

let refuse (env : Abi.env) ~call reason =
  let c = Cloak.Vmm.counters env.Abi.vmm in
  c.Counters.hostile_refusals <- c.Counters.hostile_refusals + 1;
  Inject.Audit.record (Cloak.Vmm.audit env.Abi.vmm) "shim refusal [%s] %s" call reason;
  raise (Hostile_os { call; reason })

(* The one paraverification loop: issue [call] through [direct] until
   [accept] takes the result, giving the kernel [paraverify_retries]
   second chances; [describe] names each lie for the audit trail and the
   refusal. *)
let paraverify (env : Abi.env) direct ~name ~accept ~describe call =
  let rec go attempt =
    let v = direct call in
    match accept v with
    | Some x -> x
    | None ->
        let reason = describe v in
        let c = Cloak.Vmm.counters env.Abi.vmm in
        c.Counters.hostile_lies_detected <- c.Counters.hostile_lies_detected + 1;
        Inject.Audit.record (Cloak.Vmm.audit env.Abi.vmm) "shim lie [%s] %s" name reason;
        if attempt >= paraverify_retries then refuse env ~call:name reason
        else go (attempt + 1)
  in
  go 0

let paraverified t = paraverify (Uapi.env t.u) t.direct

let describe_value = function
  | Abi.Unit -> "unit"
  | Abi.Int n -> Printf.sprintf "int %d" n
  | Abi.Pair (a, b) -> Printf.sprintf "pair (%d, %d)" a b
  | Abi.Names _ -> "names"
  | Abi.Stat_v _ -> "stat"
  | Abi.Err _ -> "errno"
  | Abi.Signaled _ -> "signaled"

(* A signal wrapper changes nothing about what the inner result claims, so
   paraverification must see through it — otherwise [Signaled (s, Int n)]
   would smuggle an unbounded n past a check that only inspects the top
   constructor. *)
let rec strip_signals = function Abi.Signaled (_, v) -> strip_signals v | v -> v

(* Move [len] bytes between cloaked memory and the marshal buffer from the
   application's own (plaintext) view. This is the copy the shim pays so
   the kernel never touches cloaked pages. *)
let user_copy t ~src ~dst ~len =
  if len > 0 then begin
    let data = Uapi.load t.u ~vaddr:src ~len in
    Uapi.store t.u ~vaddr:dst data
  end

(* A read result is trusted only within the bounds of the request the shim
   itself marshaled: 0 <= n <= chunk. A larger (or negative) n would walk
   the copy loop beyond the marshal buffer into cloaked memory — the
   classic Iago overflow — so it is a lie, never a copy. Errors and
   signal wrappers pass through: they move no bytes. *)
let shim_read t ~fd ~vaddr ~len =
  let chunk = min len t.marshal_bytes in
  paraverified t ~name:"read"
    ~accept:(fun v ->
      match strip_signals v with
      | Abi.Int n when n > 0 && n <= chunk ->
          user_copy t ~src:t.marshal_vaddr ~dst:vaddr ~len:n;
          Some v
      | Abi.Int 0 | Abi.Err _ -> Some v
      | _ -> None)
    ~describe:(fun v ->
      Printf.sprintf "kernel returned %s for a %d-byte read request"
        (describe_value (strip_signals v)) chunk)
    (Abi.Read { fd; vaddr = t.marshal_vaddr; len = chunk })

(* A write result claiming more bytes than the shim marshaled would make
   the application silently skip data it never wrote. *)
let shim_write t ~fd ~vaddr ~len =
  let chunk = min len t.marshal_bytes in
  user_copy t ~src:vaddr ~dst:t.marshal_vaddr ~len:chunk;
  paraverified t ~name:"write"
    ~accept:(fun v ->
      match strip_signals v with
      | Abi.Int n when n >= 0 && n <= chunk -> Some v
      | Abi.Err _ -> Some v
      | _ -> None)
    ~describe:(fun v ->
      Printf.sprintf "kernel returned %s for a %d-byte write request"
        (describe_value (strip_signals v)) chunk)
    (Abi.Write { fd; vaddr = t.marshal_vaddr; len = chunk })

(* The marshal buffer holds exactly one in-flight syscall's data. A kernel
   that re-enters the shim mid-marshal (a scheduling attack) would clobber
   it, so the latch converts re-entry into a typed refusal. *)
let with_marshal t ~name f =
  if t.entered then refuse (Uapi.env t.u) ~call:name "shim re-entered mid-marshal";
  t.entered <- true;
  Fun.protect ~finally:(fun () -> t.entered <- false) f

let dispatch t (call : Abi.call) =
  match call with
  | Abi.Read { fd; vaddr; len } when vaddr <> t.marshal_vaddr ->
      with_marshal t ~name:"read" (fun () -> shim_read t ~fd ~vaddr ~len)
  | Abi.Write { fd; vaddr; len } when vaddr <> t.marshal_vaddr ->
      with_marshal t ~name:"write" (fun () -> shim_write t ~fd ~vaddr ~len)
  (* Identity paraverification: the process knows its own pid and which
     children it forked, so a kernel lying about either is caught against
     local ground truth — wrong-pid waits and getpid confusion never reach
     application logic. *)
  | Abi.Getpid ->
      let pid = (Uapi.env t.u).Abi.pid in
      paraverified t ~name:"getpid"
        ~accept:(fun v ->
          match strip_signals v with
          | Abi.Int p when p = pid -> Some v
          | Abi.Err _ -> Some v
          | _ -> None)
        ~describe:(fun v ->
          Printf.sprintf "kernel answered %s to getpid for pid %d"
            (describe_value (strip_signals v)) pid)
        Abi.Getpid
  | Abi.Fork _ ->
      let v = t.direct call in
      (match strip_signals v with
       | Abi.Int child when child > 0 -> Hashtbl.replace t.children child ()
       | _ -> ());
      v
  | Abi.Wait when Hashtbl.length t.children > 0 ->
      paraverified t ~name:"wait"
        ~accept:(fun v ->
          match strip_signals v with
          | Abi.Pair (pid, _) when Hashtbl.mem t.children pid ->
              Hashtbl.remove t.children pid;
              Some v
          | Abi.Err _ -> Some v
          | _ -> None)
        ~describe:(fun v ->
          match strip_signals v with
          | Abi.Pair (pid, _) ->
              Printf.sprintf
                "wait delivered pid %d, which this process never forked" pid
          | v -> Printf.sprintf "kernel returned %s for wait" (describe_value v))
        Abi.Wait
  | call -> t.direct call

(* A checkpoint request is a quiesce-point hypercall: the shim rings the
   VMM, then traps to the kernel so the supervisor captures while the
   transfer context is saved. No buffers cross the cloak boundary. *)
let checkpoint t =
  Cloak.Vmm.hypercall (Uapi.env t.u).Abi.vmm;
  match t.direct Abi.Checkpoint with
  | Abi.Int gen -> gen
  | Abi.Err e -> raise (Errno.Error e)
  | _ -> invalid_arg "Shim.checkpoint: unexpected result shape"

let store_uncloaked t data =
  if Bytes.length data > t.marshal_bytes then
    invalid_arg "Shim.store_uncloaked: larger than the marshal buffer";
  Uapi.store t.u ~vaddr:t.marshal_vaddr data;
  t.marshal_vaddr

let install u =
  let env = Uapi.env u in
  if not env.Abi.cloaked then invalid_arg "Shim.install: process is not cloaked";
  let direct = env.Abi.dispatch in
  (* the marshal buffer is deliberately NOT cloaked *)
  let start_vpn =
    paraverify env direct ~name:"mmap"
      ~accept:(function Abi.Int vpn when vpn > 0 -> Some vpn | _ -> None)
      ~describe:(fun v ->
        Printf.sprintf "mmap of the marshal buffer returned %s" (describe_value v))
      (Abi.Mmap { pages = marshal_pages; cloaked = false })
  in
  let t =
    {
      u;
      marshal_vaddr = Addr.vaddr_of_vpn start_vpn;
      marshal_bytes = marshal_pages * Addr.page_size;
      direct;
      entered = false;
      children = Hashtbl.create 8;
    }
  in
  (* probe the far end of the claimed region: a kernel that shrunk the
     mapping (Iago's short-mmap) is caught here, before any marshal copy
     could land in unmapped or foreign memory *)
  Uapi.store_byte t.u ~vaddr:(t.marshal_vaddr + t.marshal_bytes - 1) 0xA5;
  if Uapi.load_byte t.u ~vaddr:(t.marshal_vaddr + t.marshal_bytes - 1) <> 0xA5 then
    refuse env ~call:"mmap" "marshal buffer shrunk or not backed";
  (* registering the shim with the VMM is one hypercall *)
  Cloak.Vmm.hypercall env.Abi.vmm;
  env.Abi.dispatch <- dispatch t;
  t
