open Guest

type config = { operations : int; file_bytes : int; working_set : int; seed : int }

let default = { operations = 300; file_bytes = 12_288; working_set = 10; seed = 99 }

let ops_done cfg = cfg.operations

let path_of i = Printf.sprintf "/wrk/f%d" i

let fill_byte ~file ~gen ~offset = ((file * 131) + (gen * 17) + offset) land 0xFF

let run cfg ~use_shim env =
  let u = Uapi.of_env env in
  if use_shim && Uapi.cloaked u then ignore (Oshim.Shim.install u);
  let prng = Oscrypto.Prng.create ~seed:cfg.seed in
  (try Uapi.mkdir u "/wrk" with Errno.Error Errno.EEXIST -> ());
  (* generation counter per slot so rewrites are distinguishable *)
  let gen = Array.make cfg.working_set 0 in
  let exists = Array.make cfg.working_set false in
  let buf = Uapi.malloc u cfg.file_bytes in
  let failures = ref 0 in
  let write_file slot =
    gen.(slot) <- gen.(slot) + 1;
    let data =
      Bytes.init cfg.file_bytes (fun i -> Char.chr (fill_byte ~file:slot ~gen:gen.(slot) ~offset:i))
    in
    Uapi.store u ~vaddr:buf data;
    let fd = Uapi.openf u (path_of slot) [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
    Uapi.write_exact u ~fd ~vaddr:buf ~len:cfg.file_bytes;
    Uapi.close u fd;
    exists.(slot) <- true
  in
  let read_check slot ~pos ~len =
    let fd = Uapi.openf u (path_of slot) [ Abi.O_RDONLY ] in
    ignore (Uapi.lseek u ~fd ~pos ~whence:Abi.Seek_set);
    if Uapi.read_exact u ~fd ~vaddr:buf ~len < len then incr failures;
    Uapi.close u fd;
    let data = Uapi.load u ~vaddr:buf ~len in
    let ok = ref true in
    for i = 0 to len - 1 do
      if Char.code (Bytes.get data i) <> fill_byte ~file:slot ~gen:gen.(slot) ~offset:(pos + i)
      then ok := false
    done;
    if not !ok then incr failures
  in
  for _op = 1 to cfg.operations do
    let slot = Oscrypto.Prng.int prng cfg.working_set in
    match Oscrypto.Prng.int prng 10 with
    | 0 | 1 | 2 ->
        (* create / overwrite *)
        write_file slot
    | 3 | 4 | 5 | 6 ->
        (* sequential or random read of a chunk *)
        if exists.(slot) then begin
          let len = min 2048 cfg.file_bytes in
          let pos = Oscrypto.Prng.int prng (cfg.file_bytes - len + 1) in
          read_check slot ~pos ~len
        end
        else write_file slot
    | 7 ->
        if exists.(slot) then ignore (Uapi.stat u (path_of slot)) else write_file slot
    | 8 ->
        if exists.(slot) then begin
          Uapi.unlink u (path_of slot);
          exists.(slot) <- false
        end
        else write_file slot
    | _ -> Uapi.sync u
  done;
  Uapi.exit u (if !failures = 0 then 0 else 1)
