type config = { entries : int; value_bytes : int; operations : int }

let default = { entries = 16; value_bytes = 512; operations = 120 }

let key_bytes = 24
let header_bytes = 1 + key_bytes + 4

let key_of i = Printf.sprintf "key-%d" i

let value_of cfg ~key_idx ~gen =
  Bytes.init cfg.value_bytes (fun i -> Char.chr (((key_idx * 31) + (gen * 7) + i) land 0xFF))

let encode_header op key len =
  let b = Bytes.make header_bytes '\000' in
  Bytes.set b 0 op;
  Bytes.blit_string key 0 b 1 (min key_bytes (String.length key));
  Bytes.blit_string (Printf.sprintf "%-4d" len) 0 b (1 + key_bytes) 4;
  b

let decode_len b off = int_of_string (String.trim (Bytes.sub_string b off 4))

let server cfg ~use_shim ~request_fd ~response_fd env =
  let u = Uapi.of_env env in
  if use_shim && Uapi.cloaked u then ignore (Oshim.Shim.install u);
  (* the value arena is ordinary (cloakable) heap memory *)
  let arena = Uapi.malloc u (cfg.entries * cfg.value_bytes) in
  let index : (string, int) Hashtbl.t = Hashtbl.create cfg.entries in
  let next_slot = ref 0 in
  let reqbuf = Uapi.malloc u (header_bytes + cfg.value_bytes) in
  let respbuf = Uapi.malloc u (4 + cfg.value_bytes) in
  let running = ref true in
  while !running do
    if Uapi.read_exact u ~fd:request_fd ~vaddr:reqbuf ~len:header_bytes < header_bytes then
      running := false
    else begin
      let header = Uapi.load u ~vaddr:reqbuf ~len:header_bytes in
      let op = Bytes.get header 0 in
      let key = Bytes.sub_string header 1 key_bytes in
      let len = decode_len header (1 + key_bytes) in
      match op with
      | 'S' ->
          if Uapi.read_exact u ~fd:request_fd ~vaddr:(reqbuf + header_bytes) ~len < len then
            running := false
          else begin
            let slot =
              match Hashtbl.find_opt index key with
              | Some s -> s
              | None ->
                  let s = !next_slot in
                  incr next_slot;
                  Hashtbl.add index key s;
                  s
            in
            let value = Uapi.load u ~vaddr:(reqbuf + header_bytes) ~len in
            Uapi.store u ~vaddr:(arena + (slot * cfg.value_bytes)) value;
            Uapi.store u ~vaddr:respbuf (Bytes.of_string "0   ");
            Uapi.write_exact u ~fd:response_fd ~vaddr:respbuf ~len:4
          end
      | 'G' -> (
          match Hashtbl.find_opt index key with
          | Some slot ->
              Uapi.store u ~vaddr:respbuf
                (Bytes.of_string (Printf.sprintf "%-4d" cfg.value_bytes));
              let value =
                Uapi.load u ~vaddr:(arena + (slot * cfg.value_bytes)) ~len:cfg.value_bytes
              in
              Uapi.store u ~vaddr:(respbuf + 4) value;
              Uapi.write_exact u ~fd:response_fd ~vaddr:respbuf ~len:(4 + cfg.value_bytes)
          | None ->
              Uapi.store u ~vaddr:respbuf (Bytes.of_string "-1  ");
              Uapi.write_exact u ~fd:response_fd ~vaddr:respbuf ~len:4)
      | _ -> running := false
    end
  done;
  Uapi.exit u 0

let client cfg ~request_fd ~response_fd env =
  let u = Uapi.of_env env in
  let reqbuf = Uapi.malloc u (header_bytes + cfg.value_bytes) in
  let respbuf = Uapi.malloc u (4 + cfg.value_bytes) in
  let gens = Array.make cfg.entries 0 in
  let failures = ref 0 in
  let send_header op key len =
    Uapi.store u ~vaddr:reqbuf (encode_header op key len);
    Uapi.write_exact u ~fd:request_fd ~vaddr:reqbuf ~len:header_bytes
  in
  for op = 0 to cfg.operations - 1 do
    let key_idx = op mod cfg.entries in
    if op mod 3 = 0 then begin
      (* SET with a fresh generation *)
      gens.(key_idx) <- gens.(key_idx) + 1;
      send_header 'S' (key_of key_idx) cfg.value_bytes;
      Uapi.store u ~vaddr:(reqbuf + header_bytes) (value_of cfg ~key_idx ~gen:gens.(key_idx));
      Uapi.write_exact u ~fd:request_fd ~vaddr:(reqbuf + header_bytes) ~len:cfg.value_bytes;
      if Uapi.read_exact u ~fd:response_fd ~vaddr:respbuf ~len:4 < 4 then incr failures
    end
    else begin
      send_header 'G' (key_of key_idx) 0;
      if Uapi.read_exact u ~fd:response_fd ~vaddr:respbuf ~len:4 < 4 then incr failures
      else begin
        let len = decode_len (Uapi.load u ~vaddr:respbuf ~len:4) 0 in
        if len < 0 then begin
          if gens.(key_idx) > 0 then incr failures
        end
        else begin
          ignore (Uapi.read_exact u ~fd:response_fd ~vaddr:(respbuf + 4) ~len);
          let got = Uapi.load u ~vaddr:(respbuf + 4) ~len in
          if not (Bytes.equal got (value_of cfg ~key_idx ~gen:gens.(key_idx))) then
            incr failures
        end
      end
    end
  done;
  send_header 'Q' "" 0;
  Uapi.exit u (if !failures = 0 then 0 else 1)

let run cfg ~cloak_server env =
  Pair.run (Uapi.of_env env) ~cloak_server ~server:(server cfg ~use_shim:true)
    ~client:(client cfg)
