(* vault: protected files through Shim_io with the metadata journal on.

   Eight files; file i spans i + 1 pages and ends a seeded 0-255 bytes
   short of its last page. 40% of ops save a file: open it, overwrite
   every byte with fresh seeded content, save, sync, close. 60% open a
   file and verify every byte against the host-side model. Every block of
   40 ops saves each file twice and loads it three times, in an order
   that is the same for every seed: a seeded order moved
   model_ops_per_gcy by 0.37% (IQR over ten seeds) and the p99 between two
   levels 0.6% apart. Why this workload: it is the only one with journal
   records, metadata export/import and page-cache writeback, and it puts
   writes beside reads on the crypto path. *)

open Machine
open Guest

let files = 8
let kconfig = { Kernel.default_config with journal_blocks = 64 }
let schedule_seed = 0x7A017
let path i = Printf.sprintf "/vault%d" i

let prog (p : Work.params) tally c ~timed (env : Abi.env) =
  let u = Uapi.of_env env in
  let pid = env.Abi.pid in
  let sp = p.spans in
  env.dispatch <- Spans.wrap_dispatch sp ~pid "guest.syscall" env.dispatch;
  let sh = Oshim.Shim.install u in
  env.dispatch <- Spans.wrap_dispatch sp ~pid "shim.syscall" env.dispatch;
  let io name f = Spans.span sp ~pid name f in
  let rng = Oscrypto.Prng.create ~seed:p.seed in
  let model =
    Array.init files (fun i -> Bytes.create (((i + 1) * Addr.page_size) - Oscrypto.Prng.int rng 256))
  in
  let persist i f =
    Work.fill rng model.(i);
    io "shim_io.write" (fun () -> Oshim.Shim_io.write sh f ~pos:0 model.(i));
    io "shim_io.save" (fun () -> Oshim.Shim_io.save sh f);
    Uapi.sync u;
    io "shim_io.close" (fun () -> Oshim.Shim_io.close sh f)
  in
  let save i = persist i (io "shim_io.open" (fun () -> Oshim.Shim_io.open_existing sh ~path:(path i))) in
  let load i =
    let f = io "shim_io.open" (fun () -> Oshim.Shim_io.open_existing sh ~path:(path i)) in
    let len = Bytes.length model.(i) in
    let got = io "shim_io.read" (fun () -> Oshim.Shim_io.read sh f ~pos:0 ~len) in
    io "shim_io.close" (fun () -> Oshim.Shim_io.close sh f);
    if not (Bytes.length got = len && Work.equal_at got model.(i) 0) then
      Work.fail tally "%s read back wrong bytes" (path i)
  in
  let sched = Oscrypto.Prng.create ~seed:schedule_seed in
  let block = Array.concat (List.init files (fun f -> [| `Save f; `Save f; `Load f; `Load f; `Load f |])) in
  let order = ref [||] and drawn = ref 0 in
  let step i =
    let k = !drawn mod Array.length block in
    incr drawn;
    if k = 0 then order := Work.shuffle sched (Array.copy block);
    match !order.(k) with
    | `Save f -> Work.op p tally ~pid ~id:i "vault.save" (fun () -> save f)
    | `Load f -> Work.op p tally ~pid ~id:i "vault.load" (fun () -> load f)
  in
  for i = 0 to files - 1 do
    Work.attempt tally "vault.create" (fun () ->
        persist i (io "shim_io.create" (fun () -> Oshim.Shim_io.create sh ~path:(path i) ~pages:(i + 1))))
  done;
  Work.phases c p env.Abi.vmm ~timed step;
  Uapi.exit u 0

let run = Work.run_stack ~kconfig ~cloaked:true "vault process" prog
