(* Benchmark-owned span recorder for the traced run.

   Spans are recorded from the benchmark's own code around the calls it
   makes into each layer (op, env.dispatch above and below the shim,
   Shim_io calls, migration-hop phases); nothing inside lib/ is touched.
   Each span carries a name, its parent, the guest pid, the op id, and
   host ns plus model cycles at enter and exit. Guest processes are
   fibers that interleave at every syscall, so nesting is tracked per pid:
   a span's self time is its duration minus its same-pid children, which
   makes a pipe wait inside a below-shim read cancel out of the shim's
   self time. A span opened with no same-pid parent names the open op
   span as its (cross-pid) parent, so the request that caused it stays
   visible.

   Everything stays in memory: per-name aggregates (count, totals and
   log-linear histograms of duration and self time) for every span, and
   the raw records of the first [raw_cap] spans for the trace file. *)

type frame = {
  id : int;
  agg : int;  (** index into [aggs] *)
  parent : int;
  pid : int;
  op : int;
  t0 : int;
  c0 : int;
  mutable child_ns : int;
}

type agg = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable self_total_ns : int;
  mutable cycles : int;
  dur : Stats.Hist.t;
  self : Stats.Hist.t;
}

let raw_fields = 9
let raw_cap = 20_000

type t = {
  on : bool;
  mutable cycles : unit -> int;  (** the model clock of the VMM in use *)
  mutable op : int;
  mutable op_span : int;
  mutable next_id : int;
  stacks : (int, frame list) Hashtbl.t;  (** open spans per pid, innermost first *)
  index : (string, int) Hashtbl.t;
  mutable aggs : agg array;
  raw : int array;
  mutable raw_n : int;
}

let make on =
  {
    on;
    cycles = (fun () -> 0);
    op = 0;
    op_span = 0;
    next_id = 1;
    stacks = Hashtbl.create 8;
    index = Hashtbl.create 16;
    aggs = [||];
    raw = (if on then Array.make (raw_cap * raw_fields) 0 else [||]);
    raw_n = 0;
  }

let null = make false
let create () = make true
let set_cycles t f = if t.on then t.cycles <- f

let agg_index t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None ->
      let i = Array.length t.aggs in
      Hashtbl.add t.index name i;
      let fresh =
        {
          name;
          count = 0;
          total_ns = 0;
          self_total_ns = 0;
          cycles = 0;
          dur = Stats.Hist.create ();
          self = Stats.Hist.create ();
        }
      in
      t.aggs <- Array.append t.aggs [| fresh |];
      i

let stack t pid = Option.value ~default:[] (Hashtbl.find_opt t.stacks pid)

let enter t ~pid name =
  let parent = match stack t pid with f :: _ -> f.id | [] -> t.op_span in
  let f =
    {
      id = t.next_id;
      agg = agg_index t name;
      parent;
      pid;
      op = t.op;
      t0 = Clock.now_ns ();
      c0 = t.cycles ();
      child_ns = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.stacks pid (f :: stack t pid);
  f

let leave t f =
  let t1 = Clock.now_ns () in
  let c1 = t.cycles () in
  let dur = t1 - f.t0 in
  let self = dur - f.child_ns in
  (match stack t f.pid with
  | _ :: (parent :: _ as rest) ->
      parent.child_ns <- parent.child_ns + dur;
      Hashtbl.replace t.stacks f.pid rest
  | _ -> Hashtbl.remove t.stacks f.pid);
  let a = t.aggs.(f.agg) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_total_ns <- a.self_total_ns + self;
  a.cycles <- a.cycles + (c1 - f.c0);
  Stats.Hist.add a.dur dur;
  Stats.Hist.add a.self self;
  if t.raw_n < raw_cap then begin
    Array.blit [| f.id; f.agg; f.parent; f.pid; f.op; f.t0; t1; f.c0; c1 |] 0 t.raw
      (t.raw_n * raw_fields) raw_fields;
    t.raw_n <- t.raw_n + 1
  end

let span t ~pid name fn =
  if not t.on then fn ()
  else
    let f = enter t ~pid name in
    match fn () with
    | v ->
        leave t f;
        v
    | exception e ->
        leave t f;
        raise e

(* An op span: the unit of work whose id later spans carry, and the
   cross-pid parent of spans other processes open on its behalf. *)
let op t ~pid ~id name fn =
  if not t.on then fn ()
  else begin
    t.op <- id;
    t.op_span <- t.next_id;  (* the id [enter] is about to hand out *)
    Fun.protect ~finally:(fun () -> t.op_span <- 0) (fun () -> span t ~pid name fn)
  end

(* Interpose on a process's syscall dispatcher; installed once below the
   shim (before [Shim.install] captures the dispatcher) and once above it
   (after), so each syscall yields a nested pair of spans. *)
let wrap_dispatch t ~pid name dispatch =
  if not t.on then dispatch else fun call -> span t ~pid name (fun () -> dispatch call)

(* count, p50 ns and self-time p50 ns of the named span, if it occurred *)
let stats t name =
  Option.map
    (fun i ->
      let a = t.aggs.(i) in
      (a.count, Stats.Hist.percentile a.dur 0.5, Stats.Hist.percentile a.self 0.5))
    (Hashtbl.find_opt t.index name)

let to_json t ~workload =
  let num n = Report.Int n in
  let spans =
    List.init t.raw_n (fun i ->
        let g j = t.raw.((i * raw_fields) + j) in
        Report.Obj
          [
            ("id", num (g 0));
            ("name", Report.Str t.aggs.(g 1).name);
            ("parent", num (g 2));
            ("pid", num (g 3));
            ("op", num (g 4));
            ("t0_ns", num (g 5));
            ("t1_ns", num (g 6));
            ("c0", num (g 7));
            ("c1", num (g 8));
          ])
  in
  let summary =
    Array.to_list t.aggs
    |> List.map (fun a ->
           ( a.name,
             Report.Obj
               [
                 ("count", num a.count);
                 ("p50_ns", num (Stats.Hist.percentile a.dur 0.5));
                 ("p99_ns", num (Stats.Hist.percentile a.dur 0.99));
                 ("self_p50_ns", num (Stats.Hist.percentile a.self 0.5));
                 ("total_ns", num a.total_ns);
                 ("self_total_ns", num a.self_total_ns);
                 ("model_cycles", num a.cycles);
               ] ))
  in
  Report.Obj
    [
      ("workload", Report.Str workload);
      ("clock", Report.Str "host CLOCK_MONOTONIC ns; c0/c1 are model cycles");
      ("spans_recorded", num (t.next_id - 1));
      ("spans_kept", num t.raw_n);
      ("summary", Report.Obj summary);
      ("spans", Report.List spans);
    ]
