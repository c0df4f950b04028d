(* Plumbing shared by the four workloads: run parameters, failure tally,
   the timed-window accounting of model cycles, counters and journal
   traffic, and the seeded fill/compare helpers the correctness checks
   use. *)

open Machine

type params = {
  seed : int;
  ops : int;  (** timed ops *)
  warmup : int;  (** untimed ops of the same seeded stream, run first *)
  spans : Spans.t;  (** [Spans.null] for the untraced, end-to-end runs *)
}

(* --- failures --- *)

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- msg :: t.errors)
    fmt

(* One op: counted as attempted; any exception it raises (an errno, a
   Hostile_os refusal, a security fault) is a failed op, not a crash. *)
let attempt t name f =
  t.attempted <- t.attempted + 1;
  try f () with
  | Guest.Abi.Exited _ as e -> raise e
  | e -> fail t "%s raised %s" name (Printexc.to_string e)

(* An op: a traced op span around an attempt. *)
let op (p : params) t ~pid ~id name f = Spans.op p.spans ~pid ~id name (fun () -> attempt t name f)

(* --- timed-window accounting --- *)

type usage = {
  mutable cycles : int;
  counters : Counters.t;
  mutable journal_records : int;
  mutable journal_writes : int;
}

let usage () =
  { cycles = 0; counters = Counters.create (); journal_records = 0; journal_writes = 0 }

type mark = { vmm : Cloak.Vmm.t; c0 : int; k0 : Counters.t; j0 : int * int }

let journal_counts vmm =
  match Cloak.Vmm.journal vmm with
  | Some j -> (Cloak.Journal.records_appended j, Cloak.Journal.store_writes j)
  | None -> (0, 0)

let cycles vmm = Cost.cycles (Cloak.Vmm.cost vmm)

let mark vmm =
  {
    vmm;
    c0 = cycles vmm;
    k0 = Counters.snapshot (Cloak.Vmm.counters vmm);
    j0 = journal_counts vmm;
  }

(* Add what [m.vmm] did since the mark. Migration sums several VMMs into
   one usage this way; the single-VMM workloads settle once. *)
let settle u m =
  u.cycles <- u.cycles + (cycles m.vmm - m.c0);
  let d = Counters.diff ~after:(Cloak.Vmm.counters m.vmm) ~before:m.k0 in
  List.iter (fun (_, get, set) -> set u.counters (get u.counters + get d)) Counters.fields;
  let r, w = journal_counts m.vmm in
  u.journal_records <- u.journal_records + r - fst m.j0;
  u.journal_writes <- u.journal_writes + w - snd m.j0

(* --- results --- *)

type timed = {
  ops : int;
  host_ns : int;  (** host monotonic time of the timed phase *)
  rates : float list;  (** host ops/s of each of [chunks] slices of the timed phase *)
  lat : int array;  (** model cycles of each timed op *)
  usage : usage;
  wire_frames : int;  (** migration frames the channel carried *)
  wire_bytes : int;
}

type outcome = { setup_ns : int; tally : tally; timed : timed option }

(* The timed phase is timed in [chunks] equal slices of ops as well as
   whole: host interference comes in bursts, and the median slice rate
   shrugs off a burst that moves the whole-phase rate. *)
let chunks = 25

(* Per-run host state the in-guest client fills in as it goes. *)
type clock = {
  t_create : int;
  mutable t_first : int;  (** first timed op: the end of set-up *)
  mutable t_end : int;
  lat : int array;
  usage : usage;
  stamps : int array;  (** host time when slice k began; [chunks] = the end *)
  mutable next : int;  (** the next slice boundary to stamp *)
}

let clock (p : params) =
  {
    t_create = Clock.now_ns ();
    t_first = 0;
    t_end = 0;
    lat = Array.make p.ops 0;
    usage = usage ();
    stamps = Array.make (chunks + 1) 0;
    next = 0;
  }

let boundary c k = k * Array.length c.lat / chunks

(* [n] timed ops have completed: stamp every slice boundary reached. *)
let tick c n =
  while c.next <= chunks && n >= boundary c c.next do
    c.stamps.(c.next) <- Clock.now_ns ();
    c.next <- c.next + 1
  done

(* The untimed warm-up of the op stream, then the timed ops, each with
   its model cycles. Without [timed], set-up ends after the warm-up. *)
let phases c (p : params) vmm ~timed step =
  for i = 1 to p.warmup do
    step (-i)
  done;
  c.t_first <- Clock.now_ns ();
  if timed then begin
    let m = mark vmm in
    tick c 0;
    for i = 0 to p.ops - 1 do
      let c0 = cycles vmm in
      step i;
      c.lat.(i) <- cycles vmm - c0;
      tick c (i + 1)
    done;
    c.t_end <- Clock.now_ns ();
    settle c.usage m
  end

let outcome ?(wire = (0, 0)) c t ~timed =
  let setup_ns = (if c.t_first > 0 then c.t_first else Clock.now_ns ()) - c.t_create in
  let result =
    if timed && c.t_end > 0 then
      Some
        {
          ops = Array.length c.lat;
          host_ns = c.t_end - c.t_first;
          rates =
            List.filter_map
              (fun k ->
                let ops = boundary c (k + 1) - boundary c k in
                if ops = 0 then None
                else Some (float_of_int ops /. (float_of_int (c.stamps.(k + 1) - c.stamps.(k)) /. 1e9)))
              (List.init chunks Fun.id);
          lat = c.lat;
          usage = c.usage;
          wire_frames = fst wire;
          wire_bytes = snd wire;
        }
    else None
  in
  if timed && Option.is_none result then fail t "the timed phase never completed";
  { setup_ns; tally = t; timed = result }

(* --- seeded content --- *)

(* Fill [b] from the seeded stream, 8 bytes per draw: the workloads write
   megabytes per second, so a byte-at-a-time generator would dominate. *)
let fill rng b =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (Int64.of_int (Oscrypto.Prng.next rng));
    i := !i + 8
  done;
  while !i < n do
    Bytes.set b !i (Char.chr (Oscrypto.Prng.int rng 256));
    incr i
  done

(* [got] equals [len] bytes of [model] at [off]. *)
let equal_at got model off =
  let len = Bytes.length got in
  off + len <= Bytes.length model
  &&
  let rec go i =
    if i + 8 <= len then
      Bytes.get_int64_le got i = Bytes.get_int64_le model (off + i) && go (i + 8)
    else if i < len then Bytes.get got i = Bytes.get model (off + i) && go (i + 1)
    else true
  in
  go 0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Oscrypto.Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let exit_ok t kernel ~pid ~expect who =
  match Guest.Kernel.exit_status kernel ~pid with
  | Some s when s = expect -> ()
  | Some s -> fail t "%s exited %d, expected %d" who s expect
  | None -> fail t "%s never exited" who

(* A supervised service can be killed by a security fault and silently
   respawned from its last checkpoint; the VMM's violation log is what
   shows it. *)
let no_violations t kernel =
  List.iter
    (fun (pid, v) -> fail t "pid %d: %s" pid (Format.asprintf "%a" Cloak.Violation.pp v))
    (Guest.Kernel.violations kernel)

(* One fresh stack running [prog] as its only top-level process, which
   must exit 0 without a security fault. *)
let run_stack ?kconfig ~cloaked name prog (p : params) ~timed =
  let t = tally () in
  let c = clock p in
  let vmm = Cloak.Vmm.create () in
  Spans.set_cycles p.spans (fun () -> cycles vmm);
  let kernel = Guest.Kernel.create ?config:kconfig vmm in
  let pid = Guest.Kernel.spawn kernel ~cloaked (prog p t c ~timed) in
  (try Guest.Kernel.run kernel with e -> fail t "kernel: %s" (Printexc.to_string e));
  exit_ok t kernel ~pid ~expect:0 name;
  no_violations t kernel;
  outcome c t ~timed
