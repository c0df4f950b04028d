open Guest

type config = { modules : int; source_bytes : int; compile_cycles : int }

let default = { modules = 6; source_bytes = 6000; compile_cycles = 400_000 }

let src_path i = Printf.sprintf "/src/m%d" i
let obj_path i = Printf.sprintf "/obj/m%d" i

let source_byte ~m ~i = ((m * 53) + (i * 7)) land 0xFF

(* "compilation": object byte = source byte xor 0x5A *)
let object_byte ~m ~i = source_byte ~m ~i lxor 0x5A

let worker cfg ~use_shim m env =
  let u = Uapi.of_env env in
  if use_shim && Uapi.cloaked u then ignore (Oshim.Shim.install u);
  let buf = Uapi.malloc u cfg.source_bytes in
  let fd = Uapi.openf u (src_path m) [ Abi.O_RDONLY ] in
  if Uapi.read_exact u ~fd ~vaddr:buf ~len:cfg.source_bytes < cfg.source_bytes then
    Uapi.exit u 2;
  Uapi.close u fd;
  Uapi.compute u ~cycles:cfg.compile_cycles;
  (* transform in place *)
  let data = Uapi.load u ~vaddr:buf ~len:cfg.source_bytes in
  let objd = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5A)) data in
  Uapi.store u ~vaddr:buf objd;
  let fd = Uapi.openf u (obj_path m) [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
  Uapi.write_exact u ~fd ~vaddr:buf ~len:cfg.source_bytes;
  Uapi.close u fd;
  Uapi.exit u 0

let driver cfg ~cloak_workers env =
  let u = Uapi.of_env env in
  (try Uapi.mkdir u "/src" with Errno.Error Errno.EEXIST -> ());
  (try Uapi.mkdir u "/obj" with Errno.Error Errno.EEXIST -> ());
  for m = 0 to cfg.modules - 1 do
    let fd = Uapi.openf u (src_path m) [ Abi.O_CREAT; Abi.O_RDWR; Abi.O_TRUNC ] in
    let body = Bytes.init cfg.source_bytes (fun i -> Char.chr (source_byte ~m ~i)) in
    Uapi.write_bytes u ~fd body;
    Uapi.close u fd
  done;
  (* fork+exec one worker per module, sequentially (like make -j1) *)
  let failed = ref 0 in
  for m = 0 to cfg.modules - 1 do
    let _ =
      Uapi.fork u ~child:(fun cenv ->
          let cu = Uapi.of_env cenv in
          if cloak_workers then Uapi.exec_cloaked cu (worker cfg ~use_shim:true m)
          else Uapi.exec cu (worker cfg ~use_shim:false m))
    in
    let _, status = Uapi.wait u in
    if status <> 0 then incr failed
  done;
  (* verify the objects *)
  let buf = Uapi.malloc u cfg.source_bytes in
  for m = 0 to cfg.modules - 1 do
    let fd = Uapi.openf u (obj_path m) [ Abi.O_RDONLY ] in
    if Uapi.read_exact u ~fd ~vaddr:buf ~len:cfg.source_bytes < cfg.source_bytes then
      Uapi.exit u 3;
    Uapi.close u fd;
    let data = Uapi.load u ~vaddr:buf ~len:cfg.source_bytes in
    for i = 0 to cfg.source_bytes - 1 do
      if Char.code (Bytes.get data i) <> object_byte ~m ~i then incr failed
    done
  done;
  Uapi.exit u (if !failed = 0 then 0 else 1)
