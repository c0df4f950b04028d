(* Shared seed-sweep scaffolding for the antagonist harnesses: canary
   scanning over every OS-visible surface, the common VMM config
   derivation, the truncation-aware determinism check, the host clock,
   and the one contract plus runner every sweep subcommand is built from.
   See sweep.mli. *)

open Machine
open Guest

let contains_pattern pattern data =
  let n = String.length pattern and len = Bytes.length data in
  let rec at i j = j >= n || (Bytes.get data (i + j) = pattern.[j] && at i (j + 1)) in
  let rec go i = i + n <= len && (at i 0 || go (i + 1)) in
  go 0

let scan_leaks ~pattern vmm k =
  let leaks = ref [] in
  let add where = if not (List.mem where !leaks) then leaks := where :: !leaks in
  let mem = Cloak.Vmm.mem vmm in
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
  scan_dev "disk" (Kernel.disk k);
  scan_dev "swap" (Kernel.swap_device k);
  List.rev !leaks

(* Seeds spaced by a prime so consecutive sweep indices cannot alias the
   generators' xor-based salts. *)
let seeds_from ~base ~count = List.init (max 0 count) (fun i -> base + (i * 7919))

let vconfig ~salt ~seed =
  { Cloak.Vmm.default_config with seed = salt lxor (seed * 0x2545F491) }

(* The one phrasing of "the bounded audit ring wrapped" every harness
   report shares, so log-scraping and the determinism verdict below stay
   in sync. *)
let truncation_note dropped =
  if dropped <= 0 then None
  else Some (Printf.sprintf "audit window truncated (%d entries dropped)" dropped)

let determinism_failure ~audit_a ~audit_b ~dropped =
  if audit_a = audit_b then None
  else
    match truncation_note dropped with
    | Some note -> Some (note ^ ": replay comparison covers different windows")
    | None -> Some "nondeterministic: same seed produced different audit logs"

(* Host wall clock (CLOCK_MONOTONIC), not process CPU time: one sample per
   call. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

(* --- the harness contract and its runner --- *)

type summary = {
  lines : string list;
  fields : (string * Report.t) list;
  failures : string list;
}

module type S = sig
  val name : string
  val bench_name : string
  val doc : string
  val default_seeds : int
  val held : string

  type seed_report

  val run_seed : seed:int -> seed_report
  val failures : seed_report -> string list
  val pp_seed_report : Format.formatter -> seed_report -> unit
  val summary : seed_report list -> summary
end

let exit_code failures = if failures = [] then 0 else 1

let finish ~name ~held ~wall_s ~bench_out fields failures =
  Option.iter
    (fun path ->
      Report.write ~path
        (Report.bench ~name
           (fields
           @ [ ("wall_s", Report.Float wall_s);
               ("failures", Report.Int (List.length failures)) ]));
      Printf.printf "  wrote %s\n" path)
    bench_out;
  (match failures with
  | [] -> print_endline held
  | fails -> List.iter (Printf.printf "FAILED %s\n") fails);
  exit_code failures

let run (module H : S) ~seeds ~base ~verbose ~bench_out =
  let seeds = seeds_from ~base ~count:seeds in
  let (reports, summary), wall_s =
    timed (fun () ->
        let reports =
          List.map
            (fun seed ->
              let r = H.run_seed ~seed in
              if verbose || H.failures r <> [] then
                Format.printf "%a@." H.pp_seed_report r;
              r)
            seeds
        in
        (reports, H.summary reports))
  in
  List.iter print_endline summary.lines;
  let seed_failures =
    List.concat
      (List.map2
         (fun seed r -> List.map (Printf.sprintf "seed %d: %s" seed) (H.failures r))
         seeds reports)
  in
  finish ~name:H.bench_name ~held:H.held ~wall_s ~bench_out summary.fields
    (seed_failures @ summary.failures)
