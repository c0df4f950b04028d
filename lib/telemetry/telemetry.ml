(* Append-only sample log + SLO burn-rate monitor + causal cross-host
   request tracing. See telemetry.mli for the model. *)

module Causal = struct
  type span = {
    cs_tid : int;
    cs_host : int;
    cs_hop : string;
    cs_seq : int;
    cs_t0 : int;
    cs_t1 : int;
  }

  type hop = {
    h_hop : string;
    h_host : int;
    h_seq : int;
    h_cycles : int;
    h_exclusive : int;
  }

  type trace = {
    tr_tid : int;
    tr_hosts : int list;
    tr_hops : hop list;
    tr_cycles : int;
    tr_critical : int;
    tr_complete : bool;
  }

  (* Canonical span order: a function of the span set alone, so the
     list does not depend on the order hosts wrote their spans in. *)
  let compare_span a b =
    let c = compare a.cs_tid b.cs_tid in
    if c <> 0 then c
    else
      let c = compare a.cs_seq b.cs_seq in
      if c <> 0 then c
      else
        let c = compare a.cs_host b.cs_host in
        if c <> 0 then c
        else
          let c = compare a.cs_t0 b.cs_t0 in
          if c <> 0 then c else compare a.cs_hop b.cs_hop

  (* Cycles of [s] not covered by any nested span: same request, same
     host, interval contained in [s] and not the same span. Covered
     cycles are measured as the length of the union of the children's
     intervals, so overlapping children never double-discount. *)
  let exclusive s others =
    let inside c =
      c != s && c.cs_host = s.cs_host && c.cs_t0 >= s.cs_t0
      && c.cs_t1 <= s.cs_t1
      && (c.cs_t1 - c.cs_t0 < s.cs_t1 - s.cs_t0 || c.cs_seq > s.cs_seq)
    in
    let children =
      List.filter inside others
      |> List.map (fun c -> (max c.cs_t0 s.cs_t0, min c.cs_t1 s.cs_t1))
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, hi) (t0, t1) ->
          let t0 = max t0 hi in
          if t1 > t0 then (acc + (t1 - t0), t1) else (acc, max hi t1))
        (0, min_int) children
    in
    (s.cs_t1 - s.cs_t0) - covered

  let stitch spans =
    let groups = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let prev = try Hashtbl.find groups s.cs_tid with Not_found -> [] in
        Hashtbl.replace groups s.cs_tid (s :: prev))
      spans;
    Hashtbl.fold (fun tid group acc -> (tid, group) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (tid, group) ->
           let group = List.sort compare_span group in
           let hops =
             List.map
               (fun s ->
                 {
                   h_hop = s.cs_hop;
                   h_host = s.cs_host;
                   h_seq = s.cs_seq;
                   h_cycles = s.cs_t1 - s.cs_t0;
                   h_exclusive = exclusive s group;
                 })
               group
           in
           let hosts =
             List.fold_left
               (fun acc h ->
                 if h.h_host >= 0 && not (List.mem h.h_host acc) then
                   h.h_host :: acc
                 else acc)
               [] hops
             |> List.rev
           in
           let t0 =
             List.fold_left (fun m s -> min m s.cs_t0) max_int group
           in
           let t1 = List.fold_left (fun m s -> max m s.cs_t1) 0 group in
           {
             tr_tid = tid;
             tr_hosts = hosts;
             tr_hops = hops;
             tr_cycles = max 0 (t1 - t0);
             tr_critical =
               List.fold_left (fun a h -> a + h.h_exclusive) 0 hops;
             tr_complete =
               List.exists (fun h -> h.h_hop = "completion") hops;
           })

  let pp_trace ppf tr =
    Format.fprintf ppf "request %d: %d hops across hosts [%s], %d cycles (%d critical)%s@."
      tr.tr_tid (List.length tr.tr_hops)
      (String.concat ";" (List.map string_of_int tr.tr_hosts))
      tr.tr_cycles tr.tr_critical
      (if tr.tr_complete then "" else " [incomplete]");
    List.iter
      (fun h ->
        Format.fprintf ppf "  #%d %-12s host %2d  %8d cycles  %8d exclusive@."
          h.h_seq h.h_hop h.h_host h.h_cycles h.h_exclusive)
      tr.tr_hops
end

module Slo = struct
  let target = 0.99
  let fast_windows = 2
  let fast_burn = 6.0
  let slow_windows = 6
  let slow_burn = 2.0

  (* an active alert clears only once burn drops to threshold * hysteresis *)
  let hysteresis = 0.5

  type alert = { a_window : int; a_fast : bool; a_burn : float }

  type eval = {
    ev_fast_fires : int;
    ev_slow_fires : int;
    ev_worst_burn : float;
    ev_alerts : alert list;
  }

  let evaluate ~good ~total =
    let tbl_good = Hashtbl.create 16 and tbl_total = Hashtbl.create 16 in
    List.iter (fun (w, n) -> Hashtbl.replace tbl_good w n) good;
    List.iter (fun (w, n) -> Hashtbl.replace tbl_total w n) total;
    let lookup tbl w = try Hashtbl.find tbl w with Not_found -> 0 in
    match List.map fst total with
    | [] ->
        { ev_fast_fires = 0; ev_slow_fires = 0; ev_worst_burn = 0.; ev_alerts = [] }
    | ws ->
        let lo = List.fold_left min max_int ws in
        let hi = List.fold_left max min_int ws in
        (* burn over the k windows ending at w: error fraction of the
           aggregated traffic, scaled by the error budget 1 - target. *)
        let burn k w =
          let g = ref 0 and t = ref 0 in
          for i = w - k + 1 to w do
            g := !g + lookup tbl_good i;
            t := !t + lookup tbl_total i
          done;
          if !t = 0 then 0.
          else
            let err = float_of_int (!t - !g) /. float_of_int !t in
            err /. (1. -. target)
        in
        let fast_on = ref false and slow_on = ref false in
        let fast_fires = ref 0 and slow_fires = ref 0 in
        let worst = ref 0. in
        let alerts = ref [] in
        for w = lo to hi do
          let fb = burn fast_windows w in
          let sb = burn slow_windows w in
          worst := max !worst (max fb sb);
          (* alert state machines: fire on the upward transition, clear
             only once burn decays past the hysteresis floor. *)
          if (not !fast_on) && fb > fast_burn then begin
            fast_on := true;
            incr fast_fires;
            alerts := { a_window = w; a_fast = true; a_burn = fb } :: !alerts
          end
          else if !fast_on && fb <= fast_burn *. hysteresis then fast_on := false;
          if (not !slow_on) && sb > slow_burn then begin
            slow_on := true;
            incr slow_fires;
            alerts := { a_window = w; a_fast = false; a_burn = sb } :: !alerts
          end
          else if !slow_on && sb <= slow_burn *. hysteresis then slow_on := false
        done;
        {
          ev_fast_fires = !fast_fires;
          ev_slow_fires = !slow_fires;
          ev_worst_burn = !worst;
          ev_alerts = List.rev !alerts;
        }
end

(* ---------------------------------------------------------------- *)
(* Registry: the log itself. [None] is the disabled registry, so the
   null sink is an immutable constant shared by every caller. *)

type log = {
  mutable l_samples : (int * string * int) list;  (* (at, name, value), newest first *)
  mutable l_spans : Causal.span list;  (* newest first *)
}

type t = log option

let null = None
let create () = Some { l_samples = []; l_spans = [] }
let enabled = Option.is_some

let sample t ~at name value =
  match t with
  | Some l -> l.l_samples <- (at, name, value) :: l.l_samples
  | None -> ()

let span ?(host = -1) t ~tid ~hop ~seq ~t0 ~t1 =
  match t with
  | Some l ->
      l.l_spans <-
        { Causal.cs_tid = tid; cs_host = host; cs_hop = hop; cs_seq = seq;
          cs_t0 = t0; cs_t1 = t1 }
        :: l.l_spans
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Reading                                                           *)

let samples = function Some l -> List.length l.l_samples | None -> 0
let span_count = function Some l -> List.length l.l_spans | None -> 0

let spans = function
  | Some l -> List.sort Causal.compare_span l.l_spans
  | None -> []

(* The one fold behind both window readers: [name]'s values grouped by
   window, each window's accumulator started by [init] and fed by [add].
   Both accumulators are order-insensitive, so the log's order never
   shows. *)
let windows t ~width name ~init ~add =
  if width <= 0 then invalid_arg "Telemetry: window width must be positive";
  let cells = Hashtbl.create 16 in
  Option.iter
    (fun l ->
      List.iter
        (fun (at, n, v) ->
          if n = name then begin
            let w = if at < 0 then 0 else at / width in
            let acc =
              match Hashtbl.find_opt cells w with Some a -> a | None -> init ()
            in
            Hashtbl.replace cells w (add acc v)
          end)
        l.l_samples)
    t;
  Hashtbl.fold (fun w a acc -> (w, a) :: acc) cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let window_sums t ~width name =
  windows t ~width name ~init:(fun () -> 0) ~add:( + )

let window_hists t ~width name =
  windows t ~width name ~init:Trace.Hist.create ~add:(fun h v ->
      Trace.Hist.add h v;
      h)
