open Machine
open Guest

type t = {
  env : Abi.env;
  mutable brk_vaddr : int;     (* cached break (exclusive) *)
  mutable tick_accum : int;    (* cycles since the last timer tick *)
  mutable bounce : Addr.vaddr; (* heap buffer for read_bytes/write_bytes *)
  mutable bounce_len : int;
}

let env t = t.env
let pid t = t.env.Abi.pid
let cloaked t = t.env.Abi.cloaked

(* Unwrap a syscall result: run user signal handlers for Signaled wrappers,
   raise on errors. *)
let rec unwrap t (v : Abi.value) =
  match v with
  | Abi.Signaled (signum, inner) ->
      (match Hashtbl.find_opt t.env.Abi.handlers signum with
      | Some handler -> handler signum
      | None -> ());
      unwrap t inner
  | Abi.Err e -> raise (Errno.Error e)
  | v -> v

let syscall t call = unwrap t (t.env.Abi.dispatch call)

let expect_int t call =
  match syscall t call with
  | Abi.Int n -> n
  | _ -> invalid_arg "Uapi: syscall returned an unexpected shape"

let expect_unit t call =
  match syscall t call with
  | Abi.Unit -> ()
  | _ -> invalid_arg "Uapi: syscall returned an unexpected shape"

let of_env env =
  {
    env;
    brk_vaddr = env.Abi.heap_cursor;
    tick_accum = 0;
    bounce = 0;
    bounce_len = 0;
  }

(* --- memory access with fault-retry --- *)

let app_ctx t = Cloak.Context.app t.env.Abi.asid

let rec with_fault_retry t f =
  try f ()
  with Fault.Guest_page_fault pf ->
    (* report to the kernel; it resolves the fault or kills us *)
    expect_unit t (Abi.Fault pf);
    with_fault_retry t f

let load t ~vaddr ~len =
  with_fault_retry t (fun () -> Cloak.Vmm.read t.env.Abi.vmm ~ctx:(app_ctx t) ~vaddr ~len)

let store t ~vaddr data =
  with_fault_retry t (fun () -> Cloak.Vmm.write t.env.Abi.vmm ~ctx:(app_ctx t) ~vaddr data)

let load_byte t ~vaddr =
  with_fault_retry t (fun () -> Cloak.Vmm.read_byte t.env.Abi.vmm ~ctx:(app_ctx t) ~vaddr)

let store_byte t ~vaddr v =
  with_fault_retry t (fun () -> Cloak.Vmm.write_byte t.env.Abi.vmm ~ctx:(app_ctx t) ~vaddr v)

let touch t ~access ~vaddr ~len =
  with_fault_retry t (fun () ->
      Cloak.Vmm.touch t.env.Abi.vmm ~ctx:(app_ctx t) ~access ~vaddr ~len)

(* --- heap --- *)

let sbrk t ~pages = expect_int t (Abi.Sbrk pages)

let malloc t size =
  if size < 0 then invalid_arg "Uapi.malloc: negative size";
  let aligned = (size + 7) land lnot 7 in
  let addr = t.env.Abi.heap_cursor in
  let needed_end = addr + aligned in
  if needed_end > t.brk_vaddr then begin
    let grow_pages = Addr.pages_spanned t.brk_vaddr (needed_end - t.brk_vaddr) in
    (* pages_spanned counts from an aligned base conservatively enough, but
       grow at least one page *)
    let grow_pages = max 1 grow_pages in
    ignore (sbrk t ~pages:grow_pages);
    t.brk_vaddr <- t.brk_vaddr + (grow_pages * Addr.page_size)
  end;
  t.env.Abi.heap_cursor <- needed_end;
  addr

(* --- compute loop --- *)

let compute t ~cycles =
  let remaining = ref cycles in
  while !remaining > 0 do
    let quantum = t.env.Abi.quantum in
    let chunk = min !remaining (quantum - t.tick_accum) in
    Cloak.Vmm.charge t.env.Abi.vmm chunk;
    t.tick_accum <- t.tick_accum + chunk;
    remaining := !remaining - chunk;
    if t.tick_accum >= quantum then begin
      t.tick_accum <- 0;
      ignore (syscall t Abi.Tick)
    end
  done

(* --- processes --- *)

let getpid t = expect_int t Abi.Getpid
let yield t = expect_unit t Abi.Yield

let exit t status =
  ignore (t.env.Abi.dispatch (Abi.Exit status));
  (* the kernel unwinds us with Exited before we get here *)
  raise (Abi.Exited status)

let fork t ~child = expect_int t (Abi.Fork child)

let exec_call t prog cloak =
  ignore (t.env.Abi.dispatch (Abi.Exec { prog; cloak }));
  raise (Abi.Exec_replace prog)

let exec t prog = exec_call t prog None
let exec_cloaked t prog = exec_call t prog (Some true)
let exec_uncloaked t prog = exec_call t prog (Some false)

let wait t =
  match syscall t Abi.Wait with
  | Abi.Pair (pid, status) -> (pid, status)
  | _ -> invalid_arg "Uapi.wait: unexpected result shape"

let mmap t ~pages ?(cloaked = true) () = expect_int t (Abi.Mmap { pages; cloaked })
let munmap t ~start_vpn ~pages = expect_unit t (Abi.Munmap { start_vpn; pages })

(* --- files --- *)

let openf t path flags = expect_int t (Abi.Open { path; flags })
let close t fd = expect_unit t (Abi.Close fd)
let read t ~fd ~vaddr ~len = expect_int t (Abi.Read { fd; vaddr; len })
let write t ~fd ~vaddr ~len = expect_int t (Abi.Write { fd; vaddr; len })

let read_exact t ~fd ~vaddr ~len =
  let rec go got =
    if got >= len then got
    else
      match read t ~fd ~vaddr:(vaddr + got) ~len:(len - got) with
      | 0 -> got
      | n -> go (got + n)
  in
  go 0

let write_exact t ~fd ~vaddr ~len =
  let rec go sent =
    if sent < len then go (sent + write t ~fd ~vaddr:(vaddr + sent) ~len:(len - sent))
  in
  go 0

let lseek t ~fd ~pos ~whence = expect_int t (Abi.Lseek { fd; pos; whence })

let stat t path =
  match syscall t (Abi.Stat path) with
  | Abi.Stat_v s -> s
  | _ -> invalid_arg "Uapi.stat: unexpected result shape"

let fstat t fd =
  match syscall t (Abi.Fstat fd) with
  | Abi.Stat_v s -> s
  | _ -> invalid_arg "Uapi.fstat: unexpected result shape"

let unlink t path = expect_unit t (Abi.Unlink path)
let rename t ~src ~dst = expect_unit t (Abi.Rename { src; dst })
let mkdir t path = expect_unit t (Abi.Mkdir path)

let readdir t path =
  match syscall t (Abi.Readdir path) with
  | Abi.Names names -> names
  | _ -> invalid_arg "Uapi.readdir: unexpected result shape"

let pipe t =
  match syscall t Abi.Pipe with
  | Abi.Pair (r, w) -> (r, w)
  | _ -> invalid_arg "Uapi.pipe: unexpected result shape"

let dup t fd = expect_int t (Abi.Dup fd)
let sync t = expect_unit t Abi.Sync

(* --- supervision --- *)

let checkpoint t = expect_int t Abi.Checkpoint
let restored t = t.env.Abi.restored
let incarnation t = t.env.Abi.incarnation

let bounce_buffer t len =
  if t.bounce_len < len then begin
    t.bounce <- malloc t len;
    t.bounce_len <- len
  end;
  t.bounce

let read_bytes t ~fd ~len =
  let vaddr = bounce_buffer t len in
  let out = Buffer.create len in
  let remaining = ref len in
  let eof = ref false in
  while !remaining > 0 && not !eof do
    let n = read t ~fd ~vaddr ~len:!remaining in
    if n = 0 then eof := true
    else begin
      Buffer.add_bytes out (load t ~vaddr ~len:n);
      remaining := !remaining - n
    end
  done;
  Buffer.to_bytes out

let write_bytes t ~fd data =
  let len = Bytes.length data in
  let vaddr = bounce_buffer t len in
  store t ~vaddr data;
  write_exact t ~fd ~vaddr ~len

(* --- signals --- *)

let kill t ~pid ~signum = expect_unit t (Abi.Kill { pid; signum })

let on_signal t ~signum handler =
  Hashtbl.replace t.env.Abi.handlers signum handler;
  expect_unit t (Abi.Signal { signum; disposition = Abi.Handled })

let ignore_signal t ~signum =
  Hashtbl.remove t.env.Abi.handlers signum;
  expect_unit t (Abi.Signal { signum; disposition = Abi.Ignore })
