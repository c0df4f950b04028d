(* kv: the cloaked Workloads.Kvstore server behind a benchmark-owned,
   uncloaked closed-loop client.

   1024 keys x 512 B; 80% of ops go to a seeded hot fifth of the keys,
   70% are GETs and 30% SETs, and every GET is checked byte for byte
   against the client's model. Every key is SET once before the warm-up,
   so no GET can legitimately miss. Why this workload: it is bound by
   syscalls and VMM crossings and does no page crypto at all (the arena
   never leaves the server's plaintext view), which is where the paper's
   overhead is largest — and it is the control for crypto work.

   The client speaks the wire format documented in kvstore.mli (op byte,
   24-byte key, 4-digit length, value; response: 4-digit length, value).
   The server image installs the shim itself and calls
   [server ~use_shim:false], so the traced run can wrap env.dispatch on
   both sides of the shim. *)

open Guest

let entries = 1024
let value_bytes = 512
let key_bytes = 24
let header_bytes = 1 + key_bytes + 4
let hot_keys = entries / 5
let config = { Workloads.Kvstore.entries; value_bytes; operations = 0 }

let header op k len =
  let b = Bytes.make header_bytes '\000' in
  Bytes.set b 0 op;
  Bytes.blit_string (Printf.sprintf "key-%04d" k) 0 b 1 8;
  Bytes.blit_string (Printf.sprintf "%-4d" len) 0 b (1 + key_bytes) 4;
  b

let get_headers = Array.init entries (fun k -> header 'G' k 0)
let set_headers = Array.init entries (fun k -> header 'S' k value_bytes)
let quit = header 'Q' 0 0

let write_all u ~fd ~vaddr ~len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Uapi.write u ~fd ~vaddr:(vaddr + !sent) ~len:(len - !sent)
  done

let read_exact u ~fd ~vaddr ~len =
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let n = Uapi.read u ~fd ~vaddr:(vaddr + !got) ~len:(len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  not !eof

let server (p : Work.params) ~request_fd ~response_fd (env : Abi.env) =
  let u = Uapi.of_env env in
  let pid = env.Abi.pid in
  env.dispatch <- Spans.wrap_dispatch p.spans ~pid "guest.syscall" env.dispatch;
  ignore (Oshim.Shim.install u);
  env.dispatch <- Spans.wrap_dispatch p.spans ~pid "shim.syscall" env.dispatch;
  Workloads.Kvstore.server config ~use_shim:false ~request_fd ~response_fd env

let client (p : Work.params) tally c ~timed ~request_fd ~response_fd (env : Abi.env) =
  let u = Uapi.of_env env in
  let pid = env.Abi.pid in
  let reqbuf = Uapi.malloc u (header_bytes + value_bytes) in
  let respbuf = Uapi.malloc u (4 + value_bytes) in
  let rng = Oscrypto.Prng.create ~seed:p.seed in
  let keys = Work.shuffle rng (Array.init entries Fun.id) in
  let model = Array.init entries (fun _ -> Bytes.create value_bytes) in
  let msg = Bytes.create (header_bytes + value_bytes) in
  let set k =
    Work.fill rng model.(k);
    Bytes.blit set_headers.(k) 0 msg 0 header_bytes;
    Bytes.blit model.(k) 0 msg header_bytes value_bytes;
    Uapi.store u ~vaddr:reqbuf msg;
    write_all u ~fd:request_fd ~vaddr:reqbuf ~len:(Bytes.length msg);
    if not (read_exact u ~fd:response_fd ~vaddr:respbuf ~len:4) then
      Work.fail tally "SET key-%04d: server hung up" k
    else if Bytes.to_string (Uapi.load u ~vaddr:respbuf ~len:4) <> "0   " then
      Work.fail tally "SET key-%04d: bad acknowledgement" k
  in
  let get k =
    Uapi.store u ~vaddr:reqbuf get_headers.(k);
    write_all u ~fd:request_fd ~vaddr:reqbuf ~len:header_bytes;
    if not (read_exact u ~fd:response_fd ~vaddr:respbuf ~len:4) then
      Work.fail tally "GET key-%04d: server hung up" k
    else if Bytes.to_string (Uapi.load u ~vaddr:respbuf ~len:4) <> "512 " then
      Work.fail tally "GET key-%04d: miss or wrong length" k
    else if not (read_exact u ~fd:response_fd ~vaddr:(respbuf + 4) ~len:value_bytes) then
      Work.fail tally "GET key-%04d: short value" k
    else if not (Work.equal_at (Uapi.load u ~vaddr:(respbuf + 4) ~len:value_bytes) model.(k) 0)
    then Work.fail tally "GET key-%04d: wrong value" k
  in
  let step i =
    let k =
      if Oscrypto.Prng.int rng 10 < 8 then keys.(Oscrypto.Prng.int rng hot_keys)
      else keys.(hot_keys + Oscrypto.Prng.int rng (entries - hot_keys))
    in
    if Oscrypto.Prng.int rng 10 < 7 then Work.op p tally ~pid ~id:i "kv.get" (fun () -> get k)
    else Work.op p tally ~pid ~id:i "kv.set" (fun () -> set k)
  in
  Array.iter (fun k -> Work.attempt tally "kv.preload" (fun () -> set k)) keys;
  Work.phases c p env.Abi.vmm ~timed step;
  Uapi.store u ~vaddr:reqbuf quit;
  write_all u ~fd:request_fd ~vaddr:reqbuf ~len:header_bytes;
  (match Uapi.wait u with
  | _, 0 -> ()
  | spid, status -> Work.fail tally "server pid %d exited %d" spid status);
  Uapi.exit u 0

let main p tally c ~timed env =
  let u = Uapi.of_env env in
  let req_r, req_w = Uapi.pipe u in
  let resp_r, resp_w = Uapi.pipe u in
  ignore
    (Uapi.fork u ~child:(fun senv ->
         let su = Uapi.of_env senv in
         Uapi.close su req_w;
         Uapi.close su resp_r;
         Uapi.exec_cloaked su (server p ~request_fd:req_r ~response_fd:resp_w)));
  Uapi.close u req_r;
  Uapi.close u resp_w;
  client p tally c ~timed ~request_fd:req_w ~response_fd:resp_r env

let run = Work.run_stack ~cloaked:false "kv client" main
