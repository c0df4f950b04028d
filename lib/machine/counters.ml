type t = {
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable shadow_walks : int;
  mutable hidden_faults : int;
  mutable guest_faults : int;
  mutable world_switches : int;
  mutable hypercalls : int;
  mutable syscalls : int;
  mutable page_encryptions : int;
  mutable clean_reencryptions : int;
  mutable page_decryptions : int;
  mutable hash_computes : int;
  mutable hash_checks : int;
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable context_switches : int;
  mutable timer_ticks : int;
  mutable bytes_copied : int;
  mutable violations : int;
  mutable contained : int;
  mutable quarantines : int;
  mutable io_retries : int;
  mutable seal_checkpoints : int;
  mutable seal_restores : int;
  mutable restarts : int;
  mutable circuit_breaks : int;
  mutable hostile_lies_detected : int;
  mutable hostile_refusals : int;
}

let create () =
  {
    tlb_hits = 0;
    tlb_misses = 0;
    shadow_walks = 0;
    hidden_faults = 0;
    guest_faults = 0;
    world_switches = 0;
    hypercalls = 0;
    syscalls = 0;
    page_encryptions = 0;
    clean_reencryptions = 0;
    page_decryptions = 0;
    hash_computes = 0;
    hash_checks = 0;
    disk_reads = 0;
    disk_writes = 0;
    context_switches = 0;
    timer_ticks = 0;
    bytes_copied = 0;
    violations = 0;
    contained = 0;
    quarantines = 0;
    io_retries = 0;
    seal_checkpoints = 0;
    seal_restores = 0;
    restarts = 0;
    circuit_breaks = 0;
    hostile_lies_detected = 0;
    hostile_refusals = 0;
  }

(* The single field table every derived operation goes through. A new
   counter needs exactly three edits: the type, the zero literal above,
   and one row here — reset/snapshot/diff/to_assoc/pp all follow. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("tlb_hits", (fun t -> t.tlb_hits), fun t v -> t.tlb_hits <- v);
    ("tlb_misses", (fun t -> t.tlb_misses), fun t v -> t.tlb_misses <- v);
    ("shadow_walks", (fun t -> t.shadow_walks), fun t v -> t.shadow_walks <- v);
    ("hidden_faults", (fun t -> t.hidden_faults), fun t v -> t.hidden_faults <- v);
    ("guest_faults", (fun t -> t.guest_faults), fun t v -> t.guest_faults <- v);
    ("world_switches", (fun t -> t.world_switches), fun t v -> t.world_switches <- v);
    ("hypercalls", (fun t -> t.hypercalls), fun t v -> t.hypercalls <- v);
    ("syscalls", (fun t -> t.syscalls), fun t v -> t.syscalls <- v);
    ("page_encryptions", (fun t -> t.page_encryptions), fun t v -> t.page_encryptions <- v);
    ( "clean_reencryptions",
      (fun t -> t.clean_reencryptions),
      fun t v -> t.clean_reencryptions <- v );
    ("page_decryptions", (fun t -> t.page_decryptions), fun t v -> t.page_decryptions <- v);
    ("hash_computes", (fun t -> t.hash_computes), fun t v -> t.hash_computes <- v);
    ("hash_checks", (fun t -> t.hash_checks), fun t v -> t.hash_checks <- v);
    ("disk_reads", (fun t -> t.disk_reads), fun t v -> t.disk_reads <- v);
    ("disk_writes", (fun t -> t.disk_writes), fun t v -> t.disk_writes <- v);
    ("context_switches", (fun t -> t.context_switches), fun t v -> t.context_switches <- v);
    ("timer_ticks", (fun t -> t.timer_ticks), fun t v -> t.timer_ticks <- v);
    ("bytes_copied", (fun t -> t.bytes_copied), fun t v -> t.bytes_copied <- v);
    ("violations", (fun t -> t.violations), fun t v -> t.violations <- v);
    ("contained", (fun t -> t.contained), fun t v -> t.contained <- v);
    ("quarantines", (fun t -> t.quarantines), fun t v -> t.quarantines <- v);
    ("io_retries", (fun t -> t.io_retries), fun t v -> t.io_retries <- v);
    ("seal_checkpoints", (fun t -> t.seal_checkpoints), fun t v -> t.seal_checkpoints <- v);
    ("seal_restores", (fun t -> t.seal_restores), fun t v -> t.seal_restores <- v);
    ("restarts", (fun t -> t.restarts), fun t v -> t.restarts <- v);
    ("circuit_breaks", (fun t -> t.circuit_breaks), fun t v -> t.circuit_breaks <- v);
    ( "hostile_lies_detected",
      (fun t -> t.hostile_lies_detected),
      fun t v -> t.hostile_lies_detected <- v );
    ( "hostile_refusals",
      (fun t -> t.hostile_refusals),
      fun t v -> t.hostile_refusals <- v );
  ]

let reset t = List.iter (fun (_, _, set) -> set t 0) fields

(* Copy field-by-field through the table: the snapshot shares no mutable
   state with [t], so a later mutation of either side cannot leak into a
   [diff] taken against the other. *)
let snapshot t =
  let s = create () in
  List.iter (fun (_, get, set) -> set s (get t)) fields;
  s

let diff ~after ~before =
  let d = create () in
  List.iter (fun (_, get, set) -> set d (get after - get before)) fields;
  d

let to_assoc t = List.map (fun (name, get, _) -> (name, get t)) fields

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, value) ->
      if value <> 0 then Format.fprintf ppf "%-18s %d@," name value)
    (to_assoc t);
  Format.fprintf ppf "@]"
