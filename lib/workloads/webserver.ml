open Guest

type config = {
  documents : int;
  doc_bytes : int;
  requests : int;
  think_cycles : int;
}

let default = { documents = 8; doc_bytes = 8192; requests = 50; think_cycles = 50_000 }

let request_bytes = 16

let doc_path i = Printf.sprintf "/www/doc%d" i

let doc_byte ~doc ~offset = (doc * 37) + offset land 0xFF

let populate u cfg =
  (try Uapi.mkdir u "/www" with Errno.Error Errno.EEXIST -> ());
  for d = 0 to cfg.documents - 1 do
    let fd = Uapi.openf u (doc_path d) [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
    let body = Bytes.init cfg.doc_bytes (fun i -> Char.chr (doc_byte ~doc:d ~offset:i land 0xFF)) in
    Uapi.write_bytes u ~fd body;
    Uapi.close u fd
  done

(* wire format: request = 16 bytes, decimal document id (or -1 to quit),
   space padded; response = 16-byte decimal length header + body *)

let encode_num n = Bytes.of_string (Printf.sprintf "%-16d" n)
let decode_num b = int_of_string (String.trim (Bytes.to_string b))

let server cfg ~use_shim ~request_fd ~response_fd env =
  let u = Uapi.of_env env in
  if use_shim && Uapi.cloaked u then ignore (Oshim.Shim.install u);
  let reqbuf = Uapi.malloc u request_bytes in
  let body = Uapi.malloc u cfg.doc_bytes in
  let header = Uapi.malloc u 16 in
  let quit = ref false in
  while not !quit do
    let n = Uapi.read_exact u ~fd:request_fd ~vaddr:reqbuf ~len:request_bytes in
    if n < request_bytes then quit := true
    else begin
      let doc = decode_num (Uapi.load u ~vaddr:reqbuf ~len:request_bytes) in
      if doc < 0 then quit := true
      else begin
        let fd = Uapi.openf u (doc_path (doc mod cfg.documents)) [ Abi.O_RDONLY ] in
        let len = Uapi.read_exact u ~fd ~vaddr:body ~len:cfg.doc_bytes in
        Uapi.close u fd;
        Uapi.compute u ~cycles:cfg.think_cycles;
        Uapi.store u ~vaddr:header (encode_num len);
        Uapi.write_exact u ~fd:response_fd ~vaddr:header ~len:16;
        Uapi.write_exact u ~fd:response_fd ~vaddr:body ~len
      end
    end
  done;
  Uapi.exit u 0

let client cfg ~request_fd ~response_fd env =
  let u = Uapi.of_env env in
  let reqbuf = Uapi.malloc u request_bytes in
  let header = Uapi.malloc u 16 in
  let body = Uapi.malloc u cfg.doc_bytes in
  let failures = ref 0 in
  for r = 0 to cfg.requests - 1 do
    let doc = r mod cfg.documents in
    Uapi.store u ~vaddr:reqbuf (encode_num doc);
    Uapi.write_exact u ~fd:request_fd ~vaddr:reqbuf ~len:request_bytes;
    let hn = Uapi.read_exact u ~fd:response_fd ~vaddr:header ~len:16 in
    if hn < 16 then incr failures
    else begin
      let len = decode_num (Uapi.load u ~vaddr:header ~len:16) in
      let bn = Uapi.read_exact u ~fd:response_fd ~vaddr:body ~len in
      if bn <> len || len <> cfg.doc_bytes then incr failures
      else begin
        (* spot-check the body *)
        let sample = Uapi.load u ~vaddr:body ~len:8 in
        let expected =
          Bytes.init 8 (fun i -> Char.chr (doc_byte ~doc ~offset:i land 0xFF))
        in
        if not (Bytes.equal sample expected) then incr failures
      end
    end
  done;
  Uapi.store u ~vaddr:reqbuf (encode_num (-1));
  Uapi.write_exact u ~fd:request_fd ~vaddr:reqbuf ~len:request_bytes;
  Uapi.exit u (if !failures = 0 then 0 else 1)

let run cfg ~cloak_server env =
  let u = Uapi.of_env env in
  populate u cfg;
  Pair.run u ~cloak_server ~server:(server cfg ~use_shim:true) ~client:(client cfg)
