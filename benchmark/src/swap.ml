(* swap: one cloaked process whose working set is 1.5x guest memory.

   384 cloaked heap pages against guest_pages = 256, cut into 96 records
   of 4 pages. Each op touches one record: 80% of ops land in a seeded hot
   quarter of the records; 70% read the record and check it against the
   host-side model, 30% overwrite it with fresh seeded bytes.
   Why this workload: eviction is AES + MAC, a refault is MAC check +
   decrypt, and clean (read-only) plaintext takes the AES-only
   re-encryption path, so the read/write mix shows a gain on one crypto
   path that costs the other. It makes almost no syscalls, so it is the
   control for shim and VMM-boundary work. *)

open Machine
open Guest

let guest_pages = 256
let ws_pages = 384
let record_pages = 4
let records = ws_pages / record_pages
let hot_records = records / 4
let record_bytes = record_pages * Addr.page_size
let kconfig = { Kernel.default_config with guest_pages }

(* The access schedule is part of the workload's definition, the same for
   every seed; the seed decides where each scheduled record lives in the
   heap and every byte written. A seeded schedule would make the model
   cycles seed-sensitive: FIFO paging gave refault rates 0.495-0.533 per
   op across three seeds at 8000 ops, a spread no 1% bound survives. *)
let schedule_seed = 0x5A4F

let prog (p : Work.params) tally c ~timed (env : Abi.env) =
  let u = Uapi.of_env env in
  let pid = env.Abi.pid in
  let base = Uapi.malloc u (ws_pages * Addr.page_size) in
  let rng = Oscrypto.Prng.create ~seed:p.seed in
  let sched = Oscrypto.Prng.create ~seed:schedule_seed in
  (* schedule record i lives at heap record place.(i); i < hot_records are hot *)
  let place = Work.shuffle rng (Array.init records Fun.id) in
  let model = Bytes.create (ws_pages * Addr.page_size) in
  let data = Bytes.create record_bytes in
  let write r =
    Work.fill rng data;
    Bytes.blit data 0 model (r * record_bytes) record_bytes;
    Uapi.store u ~vaddr:(base + (r * record_bytes)) data
  in
  let read r =
    let got = Uapi.load u ~vaddr:(base + (r * record_bytes)) ~len:record_bytes in
    if not (Work.equal_at got model (r * record_bytes)) then
      Work.fail tally "record %d read back wrong bytes" r
  in
  let step i =
    let r =
      place.(if Oscrypto.Prng.int sched 10 < 8 then Oscrypto.Prng.int sched hot_records
             else hot_records + Oscrypto.Prng.int sched (records - hot_records))
    in
    if Oscrypto.Prng.int sched 10 < 7 then Work.op p tally ~pid ~id:i "swap.read" (fun () -> read r)
    else Work.op p tally ~pid ~id:i "swap.write" (fun () -> write r)
  in
  Array.iter (fun r -> Work.attempt tally "swap.fill" (fun () -> write r)) place;
  Work.phases c p env.Abi.vmm ~timed step;
  Uapi.exit u 0

let run = Work.run_stack ~kconfig ~cloaked:true "swap process" prog
