module Sweep = Sweep
module type S = Sweep.S
module Chaos = Chaos
module Crash = Crash
module Soak = Soak
module Migrate = Migrate
module Balancer = Cloak.Balancer
module Fleet = Fleet
module Observe = Observe
module Adversary = Adversary

open Machine
open Guest

type result = {
  cycles : int;
  counters : Counters.t;
  exit_statuses : (int * int option) list;
  violations : (int * Cloak.Violation.t) list;
  audit : string list;
  injections : int;
}

let run ?vconfig ?kconfig ?engine ?trace ~spawn () =
  let vmm = Cloak.Vmm.create ?config:vconfig ?engine ?trace () in
  let k = Kernel.create ?config:kconfig vmm in
  let before_cycles = Cost.cycles (Cloak.Vmm.cost vmm) in
  let before = Counters.snapshot (Cloak.Vmm.counters vmm) in
  let pids = spawn k in
  Kernel.run k;
  let cycles = Cost.cycles (Cloak.Vmm.cost vmm) - before_cycles in
  let counters = Counters.diff ~after:(Cloak.Vmm.counters vmm) ~before in
  {
    cycles;
    counters;
    exit_statuses = List.map (fun pid -> (pid, Kernel.exit_status k ~pid)) pids;
    violations = Kernel.violations k;
    audit = Inject.Audit.lines (Cloak.Vmm.audit vmm);
    injections = (match engine with Some e -> Inject.injections e | None -> 0);
  }

let run_program ?vconfig ?kconfig ?engine ?trace ?(cloaked = false) prog =
  run ?vconfig ?kconfig ?engine ?trace
    ~spawn:(fun k -> [ Kernel.spawn k ~cloaked prog ])
    ()

let all_exited_zero r =
  List.for_all (fun (_, status) -> status = Some 0) r.exit_statuses

module Table = struct
  let print ~title ?note ~headers rows =
    let columns = List.length headers in
    let width col =
      List.fold_left
        (fun acc row -> max acc (String.length (List.nth row col)))
        (String.length (List.nth headers col))
        rows
    in
    let widths = List.init columns width in
    let line cells =
      String.concat "  "
        (List.map2
           (fun cell w -> cell ^ String.make (w - String.length cell) ' ')
           cells widths)
    in
    Printf.printf "\n== %s ==\n" title;
    (match note with Some n -> Printf.printf "   %s\n" n | None -> ());
    let header = line headers in
    Printf.printf "%s\n%s\n" header (String.make (String.length header) '-');
    List.iter (fun row -> Printf.printf "%s\n" (line row)) rows;
    flush stdout

  let ratio base value =
    if base = 0 then "n/a" else Printf.sprintf "%.2fx" (float_of_int value /. float_of_int base)

  let percent_overhead ~base value =
    if base = 0 then "n/a"
    else
      Printf.sprintf "%+.1f%%" (100.0 *. float_of_int (value - base) /. float_of_int base)

  let cycles n =
    if n >= 1_000_000_000 then Printf.sprintf "%.2f Gcy" (float_of_int n /. 1e9)
    else if n >= 1_000_000 then Printf.sprintf "%.2f Mcy" (float_of_int n /. 1e6)
    else if n >= 1_000 then Printf.sprintf "%.1f kcy" (float_of_int n /. 1e3)
    else Printf.sprintf "%d cy" n
end
