(* One seed-sweep stack: boot, run, and the verdict every run must pass.
   See stack.mli. *)

open Machine
open Guest

let vconfig ~salt ~seed =
  { Cloak.Vmm.default_config with seed = salt lxor (seed * 0x2545F491) }

type t = { vmm : Cloak.Vmm.t; k : Kernel.t; trace : Trace.t }

let boot ?engine ~salt ~seed kconfig =
  let trace = Trace.ring () in
  let vmm = Cloak.Vmm.create ~config:(vconfig ~salt ~seed) ?engine ~trace () in
  { vmm; k = Kernel.create ~config:kconfig vmm; trace }

let run st =
  try
    Kernel.run st.k;
    None
  with e -> Some (Printexc.to_string e)

let contains_pattern pattern data =
  let n = String.length pattern and len = Bytes.length data in
  let rec at i j = j >= n || (Bytes.get data (i + j) = pattern.[j] && at i (j + 1)) in
  let rec go i = i + n <= len && (at i 0 || go (i + 1)) in
  go 0

(* Every OS-visible surface of one stack holding [pattern]: allocated
   machine pages, RAM remanence, disk and swap blocks. *)
let scan_leaks ~pattern st =
  let leaks = ref [] in
  let add where = if not (List.mem where !leaks) then leaks := where :: !leaks in
  let mem = Cloak.Vmm.mem st.vmm in
  Phys_mem.iter_allocated mem (fun mpn data ->
      if contains_pattern pattern data then add (Printf.sprintf "machine page %d" mpn));
  Phys_mem.iter_remanent mem (fun mpn data ->
      if contains_pattern pattern data then add (Printf.sprintf "remanent page %d" mpn));
  let scan_dev name dev =
    for b = 0 to Blockdev.block_count dev - 1 do
      if contains_pattern pattern (Blockdev.peek dev b) then
        add (Printf.sprintf "%s block %d" name b)
    done
  in
  scan_dev "disk" (Kernel.disk st.k);
  scan_dev "swap" (Kernel.swap_device st.k);
  List.rev !leaks

type obs = {
  crash : string option;
  leaks : string list;
  trace_failures : string list;
  trace_dropped : int;
  audit : string list;
  audit_dropped : int;
}

let observe ~canary ~wire ~crash stacks =
  let labelled sep label lines =
    if label = "" then lines else List.map (fun l -> label ^ sep ^ l) lines
  in
  let audit =
    match stacks with
    | (_, first) :: _ -> Cloak.Vmm.audit first.vmm
    | [] -> invalid_arg "Stack.observe: no stacks"
  in
  {
    crash;
    leaks =
      List.concat_map
        (fun (label, st) -> labelled " " label (scan_leaks ~pattern:canary st))
        stacks
      @ List.concat
          (List.mapi
             (fun i w ->
               if contains_pattern canary w then [ Printf.sprintf "wire frame %d" i ]
               else [])
             wire);
    trace_failures =
      List.concat_map
        (fun (label, st) -> labelled ": " label (Trace.Check.verdict st.trace))
        stacks;
    trace_dropped =
      List.fold_left (fun acc (_, st) -> max acc (Trace.dropped st.trace)) 0 stacks;
    audit = Inject.Audit.lines audit;
    audit_dropped = Inject.Audit.dropped audit;
  }

let failures o =
  Option.to_list (Option.map (( ^ ) "uncaught exception: ") o.crash)
  @ (match o.leaks with
    | [] -> []
    | l -> [ "canary leaked to: " ^ String.concat ", " l ])
  @ List.map (( ^ ) "trace invariant: ") o.trace_failures

let replay a b =
  Sweep.determinism_failure ~audit_a:a.audit ~audit_b:b.audit
    ~dropped:(max a.audit_dropped b.audit_dropped)

let hot_spots ~root st =
  Profile.hot_spots ~root ~total_cycles:(Cost.cycles (Cloak.Vmm.cost st.vmm)) ~n:3
    st.trace

let pp_hot_spots ~trace_dropped ppf = function
  | [] ->
      if trace_dropped > 0 then
        Format.fprintf ppf
          "@\n    top cost centers unavailable: trace ring dropped %d events"
          trace_dropped
  | spots ->
      Format.fprintf ppf "@\n    top cost centers:%s"
        (String.concat ""
           (List.map (fun (p, cy) -> Printf.sprintf " %s=%dcy" p cy) spots))
