(* The crash-point matrix: kill the VMM at every journal/device write
   site, then prove recovery replay honours the durability invariants.
   See crash.mli. *)

open Machine
open Guest

let crash_sites = Inject.[ Jrnl_append; Jrnl_ckpt; Blk_write; Blk_free ]

(* Small guest memory and a short checkpoint cadence: the workload must
   swap (device traffic beyond file writeback) and must cross at least one
   mid-run checkpoint so Jrnl_ckpt crash points land inside real work. *)
let kconfig =
  {
    Kernel.default_config with
    guest_pages = 96;
    fs_blocks = 256;
    swap_blocks = 256;
    journal_blocks = 16;
    journal_ckpt_every = 24;
  }

(* --- the workload ---

   A cloaked protagonist drives every journaled path: two protected
   objects created, saved and synced (metadata updates, generation bumps,
   writeback intents/commits), one re-opened and re-saved so O_TRUNC frees
   journal-referenced blocks (Freed records, Blk_free crash points), plus
   enough cloaked anonymous memory under an uncloaked antagonist's
   pressure that shm pages also reach the swap device (DMA intent/commit).
   Every save is followed by Uapi.sync — a save without a sync is not
   durable, and the ledger only counts what the journal committed. *)

let payload name i =
  let seedtext = Printf.sprintf "crash-%s-page-%02d|" name i in
  let b = Bytes.create 96 in
  for j = 0 to 95 do
    Bytes.set b j seedtext.[j mod String.length seedtext]
  done;
  b

let protagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let sh = Oshim.Shim.install u in
  (* cloaked anon memory joining the swap churn *)
  let vpn = Uapi.mmap u ~pages:2 ~cloaked:true () in
  let base = Addr.vaddr_of_vpn vpn in
  Uapi.store u ~vaddr:base (payload "anon" 0);
  (* first protected object *)
  let f = Oshim.Shim_io.create sh ~path:"/vault" ~pages:3 in
  for i = 0 to 2 do
    Oshim.Shim_io.write sh f ~pos:(i * Addr.page_size) (payload "alpha" i)
  done;
  Oshim.Shim_io.save sh f;
  Uapi.sync u;
  Oshim.Shim_io.close sh f;
  Uapi.compute u ~cycles:150_000;
  (* reopen, modify, save again: O_TRUNC frees the committed blocks *)
  let f2 = Oshim.Shim_io.open_existing sh ~path:"/vault" in
  let back = Oshim.Shim_io.read sh f2 ~pos:0 ~len:16 in
  Oshim.Shim_io.write sh f2 ~pos:Addr.page_size (payload "beta" 1);
  Oshim.Shim_io.save sh f2;
  Uapi.sync u;
  Oshim.Shim_io.close sh f2;
  (* second protected object *)
  let g = Oshim.Shim_io.create sh ~path:"/ledger" ~pages:2 in
  Oshim.Shim_io.write sh g ~pos:0 (payload "gamma" 0);
  Oshim.Shim_io.write sh g ~pos:Addr.page_size (payload "gamma" 1);
  Oshim.Shim_io.save sh g;
  Uapi.sync u;
  Oshim.Shim_io.close sh g;
  let alive = Uapi.load u ~vaddr:base ~len:16 in
  Uapi.munmap u ~start_vpn:vpn ~pages:2;
  Uapi.exit u (if Bytes.length back = 16 && Bytes.length alive = 16 then 0 else 3)

let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "uncloaked-filler-block-contents" in
  Uapi.mkdir u "/pub";
  for i = 0 to 2 do
    let fd = Uapi.openf u (Printf.sprintf "/pub/f%d" i) [ Abi.O_CREAT; Abi.O_RDWR ] in
    for _ = 1 to 3 do
      Uapi.write_bytes u ~fd public
    done;
    Uapi.close u fd
  done;
  Uapi.sync u;
  (* memory pressure: push the protagonist's shm pages through swap *)
  let vpn = Uapi.mmap u ~pages:48 () in
  let base = Addr.vaddr_of_vpn vpn in
  for i = 0 to 47 do
    Uapi.store_byte u ~vaddr:(base + (i * Addr.page_size)) (i land 0xff)
  done;
  Uapi.compute u ~cycles:150_000;
  for i = 0 to 47 do
    ignore (Uapi.load_byte u ~vaddr:(base + (i * Addr.page_size)))
  done;
  for i = 0 to 2 do
    Uapi.unlink u (Printf.sprintf "/pub/f%d" i)
  done;
  Uapi.exit u 0

(* --- the committed-data ledger ---

   The observer sees exactly the records the journal made durable, in
   order, and never one a crash tore. Mirroring the journal's own bind
   semantics over that stream yields the oracle for invariant 1: the set
   of (page -> device block) bindings that recovery has no excuse to
   lose. *)

type ledger = (string * int, string * int) Hashtbl.t

let ledger_apply (l : ledger) = function
  | Cloak.Journal.Update { tag; idx; _ } -> Hashtbl.remove l (tag, idx)
  | Intent _ -> ()
  | Commit { tag; idx; dev; block } -> Hashtbl.replace l (tag, idx) (dev, block)
  | Freed { dev; block } ->
      let stale =
        Hashtbl.fold
          (fun k (d, b) acc -> if d = dev && b = block then k :: acc else acc)
          l []
      in
      List.iter (Hashtbl.remove l) stale
  | Dropped_page { tag; idx } -> Hashtbl.remove l (tag, idx)
  | Dropped_resource { tag } ->
      let stale = Hashtbl.fold (fun (t, i) _ acc -> if t = tag then (t, i) :: acc else acc) l [] in
      List.iter (Hashtbl.remove l) stale
  | Generation _ -> ()
  | Seal _ -> ()

let ledger_bindings (l : ledger) =
  Hashtbl.fold (fun (tag, idx) (dev, block) acc -> (tag, idx, dev, block) :: acc) l []
  |> List.sort compare

(* --- one run of the workload under a plan --- *)

type point = { site : Inject.site; occurrence : int }

let point_to_string p =
  Printf.sprintf "%s#%d" (Inject.site_to_string p.site) p.occurrence

type raw_run = {
  kernel : Kernel.t option;  (* None: the crash hit during boot (journal attach) *)
  vmm : Cloak.Vmm.t;
  trace : Trace.t;
  crashed : bool;
  ledger : ledger;
}

let run_workload ~seed ~plan =
  let engine = Inject.create plan in
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:(Stack.vconfig ~salt:0xC4A05 ~seed) ~engine ~trace () in
  let ledger : ledger = Hashtbl.create 32 in
  match
    try `Up (Kernel.create ~config:kconfig vmm)
    with Inject.Vmm_crash _ -> `Boot_crash
  with
  | `Boot_crash -> { kernel = None; vmm; trace; crashed = true; ledger }
  | `Up k ->
      (match Cloak.Vmm.journal vmm with
      | Some j -> Cloak.Journal.set_observer j (Some (ledger_apply ledger))
      | None -> ());
      ignore (Kernel.spawn k ~cloaked:true protagonist);
      ignore (Kernel.spawn k antagonist);
      let crashed =
        try
          Kernel.run k;
          false
        with Inject.Vmm_crash _ -> true
      in
      { kernel = Some k; vmm; trace; crashed; ledger }

(* --- calibration: occurrence counts and journal overhead, no faults --- *)

type journal_stats = {
  records : int;
  store_writes : int;
  checkpoints : int;
  data_writes : int;      (* device writes that were not journal-store writes *)
  occurrences : (Inject.site * int) list;
}

let calibrate ~seed =
  let raw = run_workload ~seed ~plan:(Inject.plan []) in
  let records, store_writes, checkpoints =
    match Cloak.Vmm.journal raw.vmm with
    | Some j ->
        Cloak.Journal.(records_appended j, store_writes j, checkpoints_taken j)
    | None -> (0, 0, 0)
  in
  (* run_workload always boots its VMM with an engine *)
  let engine = Option.get (Cloak.Vmm.engine raw.vmm) in
  {
    records;
    store_writes;
    checkpoints;
    data_writes = (Cloak.Vmm.counters raw.vmm).disk_writes - store_writes;
    occurrences = List.map (fun s -> (s, Inject.occurrences engine s)) crash_sites;
  }

(* Up to [per_site] evenly spaced occurrence numbers in [1..total]: every
   occurrence when [total <= per_site], else distinct points spanning 1
   and [total] (the last occurrences are where a cut must prove "never
   lose"). *)
let sample ~per_site total =
  let k = max 0 (min per_site total) in
  List.init k (fun i -> 1 + (i * (total - 1) / max 1 (k - 1)))

let points ~per_site occurrences =
  List.concat_map
    (fun (site, total) ->
      List.map (fun occurrence -> { site; occurrence }) (sample ~per_site total))
    occurrences

(* --- crash, then recover --- *)

type outcome = {
  point : point;
  seed : int;
  crashed : bool;
  ledger_committed : int;
  committed : int;
  redone : int;
  torn : int;
  quarantined : int;
  replay_s : float;
  failures : string list;
  audit : string list;  (* crash-run trail followed by the recovery trail *)
  audit_dropped : int;
  trace_dropped : int;
}

let run_point ~seed point =
  let plan =
    Inject.plan
      [ { Inject.site = point.site;
          trigger = Inject.once ~at:point.occurrence;
          action = Inject.Crash_point } ]
  in
  let raw = run_workload ~seed ~plan in
  (* Everything in VMM memory is gone with the power cut; only the block
     devices survive. A fresh VMM from the same seed re-derives the keys. *)
  let trace2 = Trace.ring () in
  let vmm2 = Cloak.Vmm.create ~config:(Stack.vconfig ~salt:0xC4A05 ~seed) ~trace:trace2 () in
  let store, read_block =
    match raw.kernel with
    | Some k ->
        let disk = Kernel.disk k and swap = Kernel.swap_device k in
        let store =
          {
            Cloak.Journal.blocks = kconfig.journal_blocks;
            block_size = Addr.page_size;
            read = (fun b -> Blockdev.peek disk b);
            write = (fun _ _ -> ());
          }
        in
        let read_block ~dev ~block =
          let d =
            if dev = Blockdev.name disk then Some disk
            else if dev = Blockdev.name swap then Some swap
            else None
          in
          match d with
          | Some d when block >= 0 && block < Blockdev.block_count d ->
              Some (Blockdev.peek d block)
          | _ -> None
        in
        (store, read_block)
    | None ->
        (* the crash hit while the journal itself was booting: the disk
           died with the kernel constructor, so recovery faces blank
           media — and must still come up empty-handed, not wrong *)
        let store =
          {
            Cloak.Journal.blocks = kconfig.journal_blocks;
            block_size = Addr.page_size;
            read = (fun _ -> Bytes.create Addr.page_size);
            write = (fun _ _ -> ());
          }
        in
        (store, fun ~dev:_ ~block:_ -> None)
  in
  let r, replay_s =
    Sweep.timed (fun () -> Cloak.Recovery.replay ~vmm:vmm2 ~store ~read_block)
  in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let quarantined tag =
    List.exists (fun q -> Cloak.Resource.tag q = tag) r.Cloak.Recovery.quarantined
  in
  (* invariant 1: every binding the journal committed is either recovered
     intact or loudly quarantined — never silently lost *)
  List.iter
    (fun (tag, idx, dev, block) ->
      let pg =
        List.find_opt
          (fun (p : Cloak.Recovery.page) ->
            Cloak.Resource.tag p.resource = tag && p.idx = idx)
          r.Cloak.Recovery.pages
      in
      match pg with
      | Some p when p.status <> Cloak.Recovery.Torn -> ()
      | Some _ -> if not (quarantined tag) then fail "committed %s[%d] torn but not quarantined" tag idx
      | None ->
          if not (quarantined tag) then
            fail "committed page lost: %s[%d] at %s:%d" tag idx dev block)
    (ledger_bindings raw.ledger);
  (* invariant 2: nothing torn is accepted — independently re-authenticate
     every page recovery installed, and check every torn resource is
     actually condemned in the recovered VMM *)
  let loaded = Cloak.Journal.load ~key:(Cloak.Vmm.journal_key vmm2) store in
  List.iter
    (fun (p : Cloak.Recovery.page) ->
      let tag = Cloak.Resource.tag p.resource in
      if p.status = Cloak.Recovery.Torn then begin
        if not (Cloak.Vmm.is_quarantined vmm2 p.resource) then
          fail "torn %s[%d] not quarantined in recovered VMM" tag p.idx
      end
      else
        match Hashtbl.find_opt loaded.Cloak.Journal.rstate.pages (tag, p.idx) with
        | None -> fail "accepted %s[%d] has no journaled metadata" tag p.idx
        | Some m -> (
            match read_block ~dev:p.dev ~block:p.block with
            | None -> fail "accepted %s[%d] points at a missing block" tag p.idx
            | Some cipher ->
                if
                  not
                    (Cloak.Vmm.verify_cipher vmm2 ~resource:p.resource ~idx:p.idx
                       ~version:m.Cloak.Journal.version ~iv:m.Cloak.Journal.iv
                       ~mac:m.Cloak.Journal.mac ~cipher)
                then fail "accepted %s[%d] fails authentication" tag p.idx))
    r.Cloak.Recovery.pages;
  (* trace-checked invariants over both halves of the story: the run that
     died mid-write (prefix-closed rules tolerate the truncation) and the
     recovery that replayed it *)
  List.iter
    (fun f -> fail "crash-run trace invariant: %s" f)
    (Trace.Check.verdict raw.trace);
  List.iter
    (fun f -> fail "recovery trace invariant: %s" f)
    (Trace.Check.verdict trace2);
  {
    point;
    seed;
    crashed = raw.crashed;
    ledger_committed = Hashtbl.length raw.ledger;
    committed = Cloak.Recovery.committed r;
    redone = Cloak.Recovery.redone r;
    torn = Cloak.Recovery.torn r;
    quarantined = List.length r.Cloak.Recovery.quarantined;
    replay_s;
    failures = List.rev !fails;
    audit =
      Inject.Audit.lines (Cloak.Vmm.audit raw.vmm)
      @ Inject.Audit.lines (Cloak.Vmm.audit vmm2);
    audit_dropped =
      Inject.Audit.dropped (Cloak.Vmm.audit raw.vmm)
      + Inject.Audit.dropped (Cloak.Vmm.audit vmm2);
    trace_dropped = Trace.dropped raw.trace + Trace.dropped trace2;
  }

(* --- the matrix: one sweep seed at a time --- *)

type seed_report = {
  seed : int;
  stats : journal_stats;
  outcomes : outcome list;
  failures : string list;
}

let run_seed ~seed =
  let stats = calibrate ~seed in
  let runs =
    List.map
      (fun point ->
        let o = run_point ~seed point in
        (* invariant 3: the whole crash + recovery story replays
           bit-identically from the same seed *)
        let o' = run_point ~seed point in
        let replay =
          Sweep.determinism_failure ~audit_a:o.audit ~audit_b:o'.audit
            ~dropped:(max o.audit_dropped o'.audit_dropped)
        in
        let where = point_to_string point in
        ( o,
          (if o.crashed then [] else [ where ^ " never fired" ])
          @ List.map (Printf.sprintf "%s: %s" where)
              (o.failures @ Option.to_list replay) ))
      (points ~per_site:6 stats.occurrences)
  in
  { seed; stats; outcomes = List.map fst runs; failures = List.concat_map snd runs }

let failures r = r.failures

let name = "crash-matrix"
let bench_name = "recovery"
let doc = "power-cut every journal/device write site across N seeds"
let default_seeds = 20

let held =
  "all invariants held: no committed-data loss, no torn-state acceptance, deterministic replay"

let summary reports =
  let outcomes = List.concat_map (fun r -> r.outcomes) reports in
  let seeds = List.length reports and points = List.length outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let per_run f =
    if seeds = 0 then 0
    else List.fold_left (fun acc r -> acc + f r.stats) 0 reports / seeds
  in
  let ratio num den = if den = 0 then 0.0 else num /. float_of_int den in
  let crashes = sum (fun o -> Bool.to_int o.crashed) in
  let ledger = sum (fun o -> o.ledger_committed) in
  let committed = sum (fun o -> o.committed) and redone = sum (fun o -> o.redone) in
  let torn = sum (fun o -> o.torn) in
  let replay_s = List.fold_left (fun acc o -> acc +. o.replay_s) 0.0 outcomes in
  let records = per_run (fun s -> s.records) in
  let store_writes = per_run (fun s -> s.store_writes) in
  let checkpoints = per_run (fun s -> s.checkpoints) in
  let data_writes = per_run (fun s -> s.data_writes) in
  let site_points =
    List.map
      (fun site ->
        ( Inject.site_to_string site,
          List.length (List.filter (fun o -> o.point.site = site) outcomes) ))
      crash_sites
  in
  {
    Sweep.lines =
      [ Printf.sprintf "\n%d seeds, %d crash points (each run twice): %d power cuts fired"
          seeds points crashes;
        "  per site: "
        ^ String.concat ", "
            (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) site_points);
        Printf.sprintf
          "  recovery: %d ledger-committed bindings -> %d committed, %d redone, %d torn, \
           %d quarantined"
          ledger committed redone torn
          (sum (fun o -> o.quarantined));
        Printf.sprintf
          "  journal (clean run avg): %d records, %d store writes, %d checkpoints over \
           %d data writes"
          records store_writes checkpoints data_writes ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("crash_points", Report.Int points);
        ("crashes_fired", Report.Int crashes);
        ("sites", Report.Obj (List.map (fun (s, n) -> (s, Report.Int n)) site_points));
        ("ledger_committed", Report.Int ledger);
        ("recovered_committed", Report.Int committed);
        ("recovered_redone", Report.Int redone);
        ("torn_quarantined", Report.Int torn);
        ("replay_total_s", Report.Float replay_s);
        ("replay_mean_ms", Report.Float (1000.0 *. ratio replay_s points));
        ("journal_records_per_run", Report.Int records);
        ("journal_store_writes_per_run", Report.Int store_writes);
        ("journal_checkpoints_per_run", Report.Int checkpoints);
        ("data_writes_per_run", Report.Int data_writes);
        ( "journal_writes_per_data_write",
          Report.Float (ratio (float_of_int store_writes) data_writes) ) ];
    failures = [];
  }

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "seed %d %-14s %s: ledger=%d committed=%d redone=%d torn=%d quarantined=%d%s"
    o.seed (point_to_string o.point)
    (if o.crashed then "crash" else "NO-CRASH")
    o.ledger_committed o.committed o.redone o.torn o.quarantined
    (match o.failures with
    | [] -> ""
    | l -> " FAILED " ^ String.concat "; " l)

let pp_seed_report ppf r =
  Format.pp_print_list ~pp_sep:Format.pp_force_newline pp_outcome ppf r.outcomes

let recover ~seed point =
  let o = run_point ~seed point in
  Format.printf "%a@." pp_outcome o;
  List.iter (Printf.printf "    %s\n") o.audit;
  Sweep.exit_code o.failures
