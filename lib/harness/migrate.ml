(* Live migration of a cloaked process over a hostile, lossy channel:
   drain at the source, chunked authenticated transfer, adopt-and-resume
   at the destination. See migrate.mli for the invariants. *)

open Machine
open Guest

(* --- the workload ---

   The soak's restart-aware service ({!Soak.service}) without the vault
   file: its checkpoint hypercall doubles as the quiesce point where the
   drain handler fires, and a migrated incarnation resumes at the
   destination from where the source stopped. *)

let rounds = 16
let service = Soak.service ~rounds ~unit_cycles:20_000 ~vault:false

(* Uncloaked noise on whichever side it runs: disk traffic and memory
   pressure so migration happens under load, not in a quiet lab. *)
let antagonist (env : Abi.env) =
  let u = Uapi.of_env env in
  let public = Bytes.of_string "public-migration-noise-plaintext" in
  let fd = Uapi.openf u "/noise" [ Abi.O_CREAT; Abi.O_RDWR ] in
  for _ = 1 to 4 do
    Uapi.write_bytes u ~fd public
  done;
  Uapi.close u fd;
  let vpn = Uapi.mmap u ~pages:24 () in
  let b = Addr.vaddr_of_vpn vpn in
  for pass = 0 to 1 do
    for i = 0 to 23 do
      Uapi.store_byte u ~vaddr:(b + (i * Addr.page_size)) ((pass + i) land 0xff)
    done;
    Uapi.compute u ~cycles:100_000
  done;
  Uapi.exit u 0

let kconfig = Soak.kconfig
let policy = Soak.policy

(* --- attempt budget and downtime bounds --- *)

let max_attempts = 3
let downtime_bound = 20_000_000
let abort_downtime_bound = 64_000_000

(* --- the two stacks and the wire between them --- *)

type scenario = {
  engine : Inject.t;
  ch : Cloak.Migrate.channel;
  src : Stack.t;
  dst : Stack.t;
  jitter : Oscrypto.Prng.t;
  seed : int;
  pid : int;
  mutable attempts : int;
  mutable committed : bool;
  mutable breaker : bool;  (** gave up migrating after [max_attempts] *)
  mutable downtime : int;  (** drain windows + destination install cycles *)
  mutable blob : bytes option;  (** last drained checkpoint *)
  mutable gen : int;  (** its seal generation: fenced once retired past it *)
  mutable session : string;  (** last attempt's session id *)
  mutable receivers : Cloak.Migrate.receiver list;  (** newest first *)
  mutable retries : int;  (** summed over the driver's sessions *)
  mutable mac_failures : int;  (** likewise; the post-run probes add none *)
}

let tag_of st = Cloak.Resource.tag (Cloak.Resource.Anon st.pid)

(* The drain handler: runs inside the source kernel's checkpoint syscall
   with the process stopped, and hands one session to the driver. Commit:
   the driver fenced the source, so the kernel retires this incarnation.
   Abort: re-arm for the next quiesce point until the attempt budget
   breaks the circuit, and resume at the source — nothing was staled. *)
let rec handler st blob =
  st.attempts <- st.attempts + 1;
  let t0 = Cost.cycles (Cloak.Vmm.cost st.src.vmm) in
  Trace.span_enter st.src.trace ~ctx:Trace.Vmm ~site:(tag_of st) Trace.Migration;
  st.gen <- Cloak.Vmm.seal_generation st.src.vmm ~tag:(tag_of st);
  st.blob <- Some blob;
  st.session <- Printf.sprintf "s%d-a%d" st.seed st.attempts;
  let snd = Cloak.Migrate.sender st.src.vmm ~session:st.session blob in
  let rcv = Cloak.Migrate.receiver st.dst.vmm ~session:st.session in
  st.receivers <- rcv :: st.receivers;
  let o =
    Migration.transfer st.ch ~jitter:st.jitter ~src:st.src.vmm ~tag:(tag_of st) snd rcv
  in
  st.retries <- st.retries + o.retries;
  st.mac_failures <- st.mac_failures + o.mac_failures;
  let decision =
    if o.committed then begin
      st.committed <- true;
      Kernel.Mig_commit
    end
    else begin
      if st.attempts >= max_attempts then st.breaker <- true
      else Kernel.request_migration st.src.k ~pid:st.pid (handler st);
      Kernel.Mig_abort
    end
  in
  st.downtime <- st.downtime + (Cost.cycles (Cloak.Vmm.cost st.src.vmm) - t0);
  Trace.span_exit st.src.trace ~ctx:Trace.Vmm ~site:(tag_of st) Trace.Migration;
  decision

(* --- one migration scenario --- *)

type run = {
  seed : int;
  committed : bool;
  attempts : int;
  breaker : bool;
  downtime : int;
  src_units : int;
  dst_units : int;
  src_status : int option;
  dst_status : int option;
  wire_frames : int;
  retries : int;
  mac_failures : int;
  sup : Kernel.supervision_stats option;
  obs : Stack.obs;
  probe_failures : string list;
  st : scenario;  (* kept for crash-matrix post-mortems *)
}

let run_once ~plan ~seed =
  let engine = Inject.create plan in
  (* both VMMs share the fleet master secret: same seed *)
  let src = Stack.boot ~engine ~salt:0x317E ~seed kconfig in
  let dst = Stack.boot ~salt:0x317E ~seed kconfig in
  let ch = Cloak.Migrate.channel ~engine () in
  let pid = Kernel.spawn_supervised src.k ~policy service in
  ignore (Kernel.spawn src.k antagonist);
  let st =
    {
      engine; ch; src; dst;
      jitter = Oscrypto.Prng.create ~seed:(seed lxor 0x11771);
      seed; pid; attempts = 0; committed = false; breaker = false;
      downtime = 0; blob = None; gen = 0; session = ""; receivers = [];
      retries = 0; mac_failures = 0;
    }
  in
  Kernel.request_migration src.k ~pid (handler st);
  let crash = Stack.run src in
  let probe_failures = ref [] in
  let probe msg = probe_failures := msg :: !probe_failures in
  (* destination side: adopt the committed blob and run it to completion
     under its own antagonist *)
  (if crash = None && st.committed then
     match st.receivers with
     | [] -> probe "committed with no receiver"
     | rcv :: _ -> (
         match Cloak.Migrate.blob rcv with
         | None -> probe "fenced at the source but destination holds no blob"
         | Some blob -> (
             let t0 = Cost.cycles (Cloak.Vmm.cost dst.vmm) in
             match Kernel.adopt_migrated dst.k ~policy ~prog:service blob with
             | _pid ->
                 st.downtime <- st.downtime + (Cost.cycles (Cloak.Vmm.cost dst.vmm) - t0);
                 ignore (Kernel.spawn dst.k antagonist);
                 Option.iter (fun e -> probe ("destination run: " ^ e)) (Stack.run dst)
             | exception e ->
                 probe ("adopt refused a committed blob: " ^ Printexc.to_string e))));
  let wire = Cloak.Migrate.wire_log ch in
  (* post-run adversarial probes (skipped after a crash; the crash
     matrix does its own post-mortem) *)
  (if crash = None && st.committed then begin
     let blob = match st.blob with Some b -> b | None -> Bytes.empty in
     (* double-resume at the source: the fence retired the generation *)
     (match Cloak.Seal.unseal src.vmm blob with
     | _ -> probe "source re-unsealed the migrated blob (fence leaked)"
     | exception e when Migration.is_stale e -> ());
     (* double-delivery at the destination: install consumed it *)
     (match Kernel.adopt_migrated dst.k ~policy ~prog:service blob with
     | _ -> probe "destination re-adopted the migrated blob"
     | exception e when Migration.is_stale e -> ());
     (* replaying every frame the OS recorded can at best rebuild the
        same bytes — and those are stale everywhere now *)
     let replayed = Cloak.Migrate.receiver dst.vmm ~session:st.session in
     List.iter (fun w -> ignore (Cloak.Migrate.deliver replayed w)) wire;
     (match Cloak.Migrate.blob replayed with
     | Some b when not (Bytes.equal b blob) ->
         probe "replayed wire log assembled a different blob"
     | _ -> ());
     (* a flipped bit anywhere in a frame must be rejected unacked *)
     match wire with
     | [] -> ()
     | w :: _ when Bytes.length w > 0 ->
         let t = Bytes.copy w in
         let i = Bytes.length t / 2 in
         Bytes.set t i (Char.chr (Char.code (Bytes.get t i) lxor 0x40));
         let r2 = Cloak.Migrate.receiver dst.vmm ~session:st.session in
         if Cloak.Migrate.deliver r2 t <> [] then
           probe "tampered frame was acknowledged";
         if Cloak.Migrate.blob r2 <> None then
           probe "tampered frame produced a blob";
         if not (List.mem Cloak.Migrate.Bad_mac (Cloak.Migrate.rejects r2)) then
           probe "tampered frame not rejected as Bad_mac"
     | _ -> ()
   end);
  {
    seed;
    committed = st.committed;
    attempts = st.attempts;
    breaker = st.breaker;
    downtime = st.downtime;
    src_units = Soak.units src.k;
    dst_units = Soak.units dst.k;
    src_status = Kernel.exit_status src.k ~pid;
    dst_status = Kernel.exit_status dst.k ~pid;
    wire_frames = List.length wire;
    retries = st.retries;
    mac_failures = st.mac_failures;
    sup = Kernel.supervision_stats src.k ~pid;
    (* after the probes, so their audit lines and trace events are
       checked too *)
    obs =
      Stack.observe ~canary:Soak.canary ~wire ~crash [ ("", src); ("dst", dst) ];
    probe_failures = List.rev !probe_failures;
    st;
  }

(* --- hostile channel plans ---

   Bounded bursts of loss, duplication, delay, reordering and corruption
   aimed only at the three channel sites: the protocol must ride them out
   (commit eventually) or abort cleanly back to the source. Crash_point
   never appears here — the crash matrix drives it deterministically. *)
let hostile_plan ~seed =
  let r = Oscrypto.Prng.create ~seed:(seed lxor 0x6D16A7E) in
  let int = Oscrypto.Prng.int in
  let rule _ =
    let trigger =
      {
        Inject.start = 1 + int r 25;
        every = 1 + int r 5;
        count = 1 + int r 4;
      }
    in
    let site =
      match int r 3 with
      | 0 -> Inject.Mig_send
      | 1 -> Inject.Mig_recv
      | _ -> Inject.Mig_ack
    in
    let action =
      match int r 6 with
      | 0 -> Inject.Drop
      | 1 -> Inject.Duplicate
      | 2 -> Inject.Delay (1 + int r 3)
      | 3 -> Inject.Bit_flip (int r 600)
      | 4 -> Inject.Torn_write (int r 600)
      | _ -> Inject.Reorder
    in
    { Inject.site; trigger; action }
  in
  Inject.plan ~seed (List.init (3 + int r 4) rule)

(* A channel that eats every forward frame: no attempt can ever reach
   READY, so the driver must walk the whole abort path — deadline abort,
   re-arm, circuit breaker — and the source must finish untouched. *)
let blackhole_plan ~seed =
  Inject.plan ~seed
    [ { Inject.site = Inject.Mig_send; trigger = Inject.always; action = Inject.Drop } ]

(* --- seed runner and invariants --- *)

type seed_report = {
  seed : int;
  clean_committed : bool;
  clean_downtime : int;
  hostile_committed : bool;
  hostile_attempts : int;
  hostile_breaker : bool;
  hostile_downtime : int;
  attempts : int;
  completed : int;
  aborts : int;
  retries : int;
  mac_failures : int;
  downtime_cycles : int;
  breaker_trips : int;
  wire_frames : int;
  audit_dropped : int;
  failures : string list;
}

let run_seed ~seed =
  let fails = ref [] in
  let fail msg = fails := msg :: !fails in
  let clean = run_once ~plan:(Inject.plan ~seed []) ~seed in
  let hplan = hostile_plan ~seed in
  let h1 = run_once ~plan:hplan ~seed in
  let h2 = run_once ~plan:hplan ~seed in
  let bh = run_once ~plan:(blackhole_plan ~seed) ~seed in
  if bh.committed then fail "blackhole channel somehow committed";
  if not bh.breaker then fail "blackhole: circuit breaker never tripped";
  if bh.attempts <> max_attempts then
    fail
      (Printf.sprintf "blackhole: %d attempts against a budget of %d"
         bh.attempts max_attempts);
  (* clean channel: first attempt commits, source retires with the
     migrated status, destination finishes every unit *)
  if not clean.committed then fail "clean migration did not commit";
  if clean.committed && clean.attempts <> 1 then
    fail (Printf.sprintf "clean migration took %d attempts" clean.attempts);
  if clean.committed && clean.downtime <= 0 then fail "no downtime recorded";
  (* both modes: committed ⇒ exactly one incarnation finishes at the
     destination and the source is fenced; aborted ⇒ the source finishes
     as if migration were never requested *)
  List.iter
    (fun (name, (r : run)) ->
      List.iter (fun f -> fail (name ^ ": " ^ f)) (Stack.failures r.obs);
      if r.committed then begin
        if r.src_status <> Some Kernel.migrated_exit_status then
          fail (name ^ ": committed but source incarnation not retired");
        if r.dst_status <> Some 0 then
          fail (name ^ ": committed but migrated process failed at destination");
        (* the source reaches its first quiesce point only after a unit *)
        if r.src_units < 1 || r.dst_units < rounds then
          fail
            (Printf.sprintf "%s: source finished %d units, destination %d/%d"
               name r.src_units r.dst_units rounds)
      end
      else begin
        if r.breaker && r.attempts <> max_attempts then
          fail (name ^ ": circuit broke off-budget");
        if r.src_status <> Some 0 then
          fail (name ^ ": migration aborted but source did not complete");
        if r.src_units < rounds then
          fail (name ^ ": migration aborted and source lost progress")
      end;
      let bound =
        if r.committed then downtime_bound else abort_downtime_bound
      in
      if r.downtime > bound then
        fail
          (Printf.sprintf "%s: downtime %d above bound %d" name r.downtime bound);
      List.iter (fun f -> fail (name ^ ": " ^ f)) r.probe_failures;
      match r.sup with
      | None -> fail (name ^ ": supervision stats vanished")
      | Some s ->
          if s.Kernel.sup_migrations_attempted <> r.attempts then
            fail
              (Printf.sprintf "%s: kernel drained %d times, driver ran %d attempts"
                 name s.Kernel.sup_migrations_attempted r.attempts);
          if r.committed && s.Kernel.sup_migrations_completed <> 1 then
            fail (name ^ ": supervision completed count diverges from driver"))
    [ ("clean", clean); ("hostile", h1); ("hostile replay", h2); ("blackhole", bh) ];
  Option.iter (fun what -> fail ("hostile " ^ what)) (Stack.replay h1.obs h2.obs);
  {
    seed;
    clean_committed = clean.committed;
    clean_downtime = clean.downtime;
    hostile_committed = h1.committed;
    hostile_attempts = h1.attempts;
    hostile_breaker = h1.breaker;
    hostile_downtime = h1.downtime;
    attempts = clean.attempts + h1.attempts + bh.attempts;
    completed =
      (if clean.committed then 1 else 0) + (if h1.committed then 1 else 0);
    aborts =
      clean.attempts + h1.attempts + bh.attempts
      - (if clean.committed then 1 else 0)
      - (if h1.committed then 1 else 0);
    retries = clean.retries + h1.retries + bh.retries;
    mac_failures = clean.mac_failures + h1.mac_failures + bh.mac_failures;
    downtime_cycles = clean.downtime + h1.downtime + bh.downtime;
    breaker_trips = (if h1.breaker then 1 else 0) + (if bh.breaker then 1 else 0);
    wire_frames = clean.wire_frames + h1.wire_frames + bh.wire_frames;
    audit_dropped =
      List.fold_left (fun acc r -> max acc r.obs.audit_dropped) 0 [ clean; h1; h2; bh ];
    failures = List.rev !fails;
  }

(* --- crash matrix over the channel sites ---

   Power the source VMM off at every occurrence of every Mig_* site (as
   calibrated from a clean run) and prove the split-brain invariants:
   fenced ⇒ the destination holds the verified blob, adopts it exactly
   once and finishes; not fenced ⇒ the receiver never committed and the
   source's latest checkpoint still restores. Either way exactly one
   incarnation survives. *)

let mig_sites = [ Inject.Mig_send; Inject.Mig_recv; Inject.Mig_ack ]

let calibrate ~seed =
  let r = run_once ~plan:(Inject.plan ~seed []) ~seed in
  List.map (fun s -> (s, Inject.occurrences r.st.engine s)) mig_sites

type crash_outcome = {
  point : Crash.point;
  crash_seed : int;
  crashed : bool;
  fenced : bool;
  crash_failures : string list;
}

let run_crash_point ~seed (p : Crash.point) =
  let plan () =
    Inject.plan ~seed
      [
        {
          Inject.site = p.Crash.site;
          trigger = Inject.once ~at:p.Crash.occurrence;
          action = Inject.Crash_point;
        };
      ]
  in
  let r1 = run_once ~plan:(plan ()) ~seed in
  let r2 = run_once ~plan:(plan ()) ~seed in
  let fails = ref [] in
  let fail msg = fails := msg :: !fails in
  Option.iter (fun what -> fail ("crash replay " ^ what)) (Stack.replay r1.obs r2.obs);
  let st = r1.st in
  let crashed = r1.obs.crash <> None in
  let fenced =
    Cloak.Vmm.seal_generation st.src.vmm ~tag:(tag_of st) > st.gen
  in
  if not crashed then fail "crash point did not fire"
  else begin
    match st.receivers with
    | [] -> fail "crashed before any transfer attempt"
    | rcv :: _ ->
        if fenced then begin
          (* never lose a committed process *)
          match Cloak.Migrate.blob rcv with
          | None -> fail "fenced but destination holds no verified blob"
          | Some blob -> (
              match Kernel.adopt_migrated st.dst.k ~policy ~prog:service blob with
              | _pid -> (
                  Option.iter (fun e -> fail ("destination run: " ^ e)) (Stack.run st.dst);
                  if Kernel.exit_status st.dst.k ~pid:st.pid <> Some 0 then
                    fail "migrated process did not complete at destination";
                  (* never run two incarnations *)
                  match Kernel.adopt_migrated st.dst.k ~policy ~prog:service blob with
                  | _ -> fail "blob adopted twice after a crash"
                  | exception e when Migration.is_stale e -> ())
              | exception e ->
                  fail ("fenced blob refused: " ^ Printexc.to_string e))
        end
        else begin
          (* never accept an unfenced commit *)
          if Cloak.Migrate.committed rcv then
            fail "receiver committed before the source fenced";
          (* the source remains recoverable from its latest checkpoint *)
          match Kernel.supervision_stats st.src.k ~pid:st.pid with
          | Some { Kernel.sup_last_checkpoint = Some b; _ } -> (
              match Cloak.Seal.unseal st.src.vmm b with
              | _ -> ()
              | exception e ->
                  fail
                    ("source checkpoint unrecoverable after crash: "
                   ^ Printexc.to_string e))
          | _ -> fail "no source checkpoint survived the crash"
        end
  end;
  { point = p; crash_seed = seed; crashed; fenced; crash_failures = List.rev !fails }

type crash_report = {
  crash_points : int;
  crash_fenced : int;
  crash_sites : Inject.site list;
  matrix_failures : (string * string) list;
}

let run_crash_matrix ~seeds =
  let points = ref 0 and fenced = ref 0 and sites = ref [] and fails = ref [] in
  List.iter
    (fun seed ->
      let occs = calibrate ~seed in
      List.iter
        (fun (p : Crash.point) ->
          incr points;
          if not (List.mem p.Crash.site !sites) then sites := p.Crash.site :: !sites;
          let o = run_crash_point ~seed p in
          if o.fenced then incr fenced;
          List.iter
            (fun f ->
              fails :=
                ( Printf.sprintf "seed %d %s#%d" seed
                    (Inject.site_to_string p.Crash.site)
                    p.Crash.occurrence,
                  f )
                :: !fails)
            o.crash_failures)
        (Crash.points ~per_site:4 occs))
    seeds;
  {
    crash_points = !points;
    crash_fenced = !fenced;
    crash_sites = List.filter (fun s -> List.mem s !sites) mig_sites;
    matrix_failures = List.rev !fails;
  }

(* --- presentation --- *)

let pp_seed_report ppf (r : seed_report) =
  Format.fprintf ppf
    "seed %d: clean %s (downtime %d), hostile %s in %d attempt%s (downtime \
     %d, retries %d, bad MACs %d)%s%s"
    r.seed
    (if r.clean_committed then "migrated" else "FAILED")
    r.clean_downtime
    (if r.hostile_committed then "migrated"
     else if r.hostile_breaker then "gave up (circuit broke)"
     else "aborted")
    r.hostile_attempts
    (if r.hostile_attempts = 1 then "" else "s")
    r.hostile_downtime r.retries r.mac_failures
    (if r.failures = [] then "" else " INVARIANTS BROKEN: ")
    (String.concat "; " r.failures)

let failures (r : seed_report) = r.failures

let name = "migrate"
let bench_name = "migration"
let doc = "live-migrate a cloaked process over a hostile, lossy channel"
let default_seeds = 20

let held =
  "all invariants held: one incarnation, no wire plaintext, no replayed or tampered \
   blob accepted, bounded downtime, deterministic audit"

(* The channel crash matrix runs over the sweep's first seeds. *)
let crash_seeds = 3

(* Beyond the per-seed invariants: the crash matrix holds, cuts power at
   every channel site and at least once after the fence, the hostile
   plans actually cost the protocol retries or MAC rejects, and committed
   runs populated the downtime percentiles. *)
let summary (reports : seed_report list) =
  let hist = Trace.Hist.create () in
  List.iter
    (fun r ->
      if r.clean_downtime > 0 then Trace.Hist.add hist r.clean_downtime;
      if r.hostile_downtime > 0 then Trace.Hist.add hist r.hostile_downtime)
    reports;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let count p = List.length (List.filter p reports) in
  let seeds = List.length reports in
  let clean = count (fun r -> r.clean_committed) in
  let hostile = count (fun r -> r.hostile_committed) in
  let aborted = seeds - hostile in
  let retries = sum (fun r -> r.retries) and macs = sum (fun r -> r.mac_failures) in
  let trips = sum (fun r -> r.breaker_trips) and frames = sum (fun r -> r.wire_frames) in
  let p50 = Trace.Hist.percentile hist 0.5 and p95 = Trace.Hist.percentile hist 0.95 in
  let first_seeds = List.filteri (fun i _ -> i < crash_seeds) reports in
  let c = run_crash_matrix ~seeds:(List.map (fun r -> r.seed) first_seeds) in
  {
    Sweep.lines =
      [ Printf.sprintf
          "migration: %d/%d clean, %d/%d hostile committed (%d aborted back, %d circuit \
           breaks), downtime p50=%d p95=%d cycles, %d retries, %d bad MACs, %d wire \
           frames, %d invariant failures"
          clean seeds hostile seeds aborted trips p50 p95 retries macs frames
          (sum (fun r -> List.length r.failures));
        Printf.sprintf
          "  crash matrix: %d points over the channel sites, %d post-fence, %d failures"
          c.crash_points c.crash_fenced
          (List.length c.matrix_failures) ];
    fields =
      [ ("seeds", Report.Int seeds);
        ("rounds_per_run", Report.Int rounds);
        ("clean_committed", Report.Int clean);
        ("hostile_committed", Report.Int hostile);
        ("hostile_aborted", Report.Int aborted);
        ("attempts", Report.Int (sum (fun r -> r.attempts)));
        ("retries", Report.Int retries);
        ("chunk_mac_failures", Report.Int macs);
        ("breaker_trips", Report.Int trips);
        ("downtime_p50_cycles", Report.Int p50);
        ("downtime_p95_cycles", Report.Int p95);
        ("wire_frames", Report.Int frames);
        ("crash_points", Report.Int c.crash_points);
        ("crash_fenced", Report.Int c.crash_fenced) ];
    failures =
      List.map (fun (point, what) -> point ^ ": " ^ what) c.matrix_failures
      @ List.filter_map
          (fun site ->
            if List.mem site c.crash_sites then None
            else
              Some ("crash matrix: no crash point on " ^ Inject.site_to_string site))
          mig_sites
      @ (if c.crash_fenced > 0 then []
         else [ "crash matrix: no crash point landed after the fence" ])
      @ (if retries + macs > 0 then []
         else [ "the hostile plans cost no retries and no MAC rejects" ])
      @ if p50 > 0 && p95 >= p50 then [] else [ "downtime percentiles not populated" ];
  }
