(** Per-VMM event counters of the simulated machine, the cloaking engine
    and the guest below it, used for the overhead decomposition (E4) and
    the regress gate. Each field counts one class of event: memory
    management and TLB, VMM crossings, page crypto, disk and scheduler
    activity, security violations and their containment, device retries,
    sealed checkpoints and supervised restarts, and the shim's
    paraverification verdicts ([hostile_*], bumped by every shim instance
    on its VMM).

    Events of the layers above live with their owners, not here: the
    migration driver returns its own retries and MAC rejects
    ([Guest.Migration.outcome]), the kernel counts migration attempts per
    supervised pid, the fleet harness counts its heartbeat timeouts and
    an adversary personality counts the attacks it executed. *)

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

val create : unit -> t
val reset : t -> unit

val snapshot : t -> t
(** A detached copy taken through the field table: later mutation of
    either record is invisible to the other, so a [diff ~after ~before]
    computed against a snapshot can never observe subsequent updates. *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction. *)

val fields : (string * (t -> int) * (t -> int -> unit)) list
(** The single name × getter × setter table {!create}/{!reset}/
    {!snapshot}/{!diff}/{!to_assoc} all derive from; exported so external
    consumers (JSON emitters, table printers) enumerate counters without
    hand-maintained copies. *)

val to_assoc : t -> (string * int) list
(** Counter name/value pairs in field-table order. *)

val pp : Format.formatter -> t -> unit
