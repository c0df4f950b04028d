(** The guest "commodity" kernel.

    A deliberately conventional Unix-like kernel — processes, round-robin
    scheduling, demand paging with swap, an inode filesystem with a page
    cache, pipes, signals, thirty-odd syscalls — running entirely on VMM-
    mediated memory. It manages the pages of cloaked applications without
    being able to read them, which is the point of the paper.

    Programs are OCaml closures performing the {!Abi.Syscall} effect; each
    process runs as an effect-handled fiber, and the scheduler trampoline
    keeps the host stack flat no matter how many syscalls a workload makes. *)

type config = {
  quantum : int;        (** model cycles of compute between timer ticks *)
  guest_pages : int;    (** guest physical memory the kernel may allocate *)
  pipe_capacity : int;
  fs_blocks : int;
  swap_blocks : int;
  journal_blocks : int;
      (** blocks reserved at the head of the disk for the VMM's metadata
          journal (at least {!Cloak.Journal.min_blocks} to enable it);
          0 — the default — disables journaling entirely *)
  journal_ckpt_every : int;
      (** journal checkpoint cadence in records (default 64); the crash
          harness lowers it so checkpoints land inside its crash matrix *)
}

val default_config : config

type restart_policy = {
  restart_budget : int;
      (** restarts granted before the circuit breaks and the process stays
          down permanently *)
  backoff_cycles : int;
      (** base restart delay in model cycles; doubles on every successive
          restart of the same process *)
}
(** Sealed checkpoints are captured only at explicit {!Abi.Checkpoint}
    hypercalls, the process's own quiesce points. *)

val default_policy : restart_policy
(** [{ restart_budget = 5; backoff_cycles = 50_000 }] *)

type t

exception Deadlock of string
(** Raised by {!run} when no process is runnable but some are blocked. *)

val create : ?config:config -> Cloak.Vmm.t -> t
val vmm : t -> Cloak.Vmm.t
val fs : t -> Fs.t
val disk : t -> Blockdev.t
val swap_device : t -> Blockdev.t
val transfer : t -> Cloak.Transfer.t
val config : t -> config

val spawn : t -> ?cloaked:bool -> Abi.program -> int
(** Create a process (optionally cloaked) ready to run; returns its pid. *)

val spawn_supervised : t -> ?policy:restart_policy -> Abi.program -> int
(** Create a cloaked process under supervision: fatal kills (security
    fault [-2], machine check [-3], OOM [137]) respawn it — pid stable —
    from its last sealed checkpoint after an exponential backoff, until
    the restart budget trips the circuit breaker. Voluntary exits do not
    restart. A checkpoint that fails verification at restore time (forged,
    or older than the journal-anchored seal generation) is never served:
    the supervisor records the violation and breaks the circuit. *)

val run : t -> unit
(** Drive the scheduler until every process has exited. *)

(** {1 Live migration}

    The kernel's half of live migration is just the drain hook and the
    adopt path; the transfer itself is {!Cloak.Migrate} driven by
    {!Migration.transfer}, which a drain handler calls. *)

type migration_decision = Mig_commit | Mig_abort

val migrated_exit_status : int
(** Exit status ([-4]) of a process whose migration committed. Outside the
    fatal set, so the supervisor never respawns a migrated-away process —
    the source stays fenced. *)

val request_migration : t -> pid:int -> (bytes -> migration_decision) -> unit
(** Arm a one-shot drain handler on a supervised pid. At the process's
    next quiesce point (its next [Checkpoint] hypercall), a fresh sealed
    checkpoint is captured and the handler runs the transfer with the
    process stopped. [Mig_commit] terminates the local incarnation with
    {!migrated_exit_status}; [Mig_abort] returns from the syscall normally
    — the process keeps running here and nothing was staled. A handler
    that raises [Inject.Vmm_crash] unwinds {!run} like a power cut.
    Raises [Invalid_argument] if [pid] is not supervised. *)

val adopt_migrated : t -> ?policy:restart_policy -> prog:Abi.program -> bytes -> int
(** Destination side: unseal a transferred checkpoint blob and install it
    as a supervised cloaked process (pid taken from the blob; it must be
    free in this kernel, so adopt before spawning anything else). The blob
    is consumed — {!Cloak.Seal.install} retires its generation, so a
    replayed or double-delivered blob raises [Stale_checkpoint] instead of
    producing a second incarnation — and a fresh local checkpoint is
    captured immediately for supervision. Returns the pid. *)

val exit_status : t -> pid:int -> int option
(** The recorded exit status of a finished process. Security-fault victims
    report status [-2]; machine-check victims (a stale translation reached
    freed machine memory) [-3]; processes OOM-killed while touching user
    memory 137; segfaults 139; killed by signal [128 + signum]. *)

val violations : t -> (int * Cloak.Violation.t) list
(** Security faults the VMM raised, with the victim pid, newest first. *)

type supervision_stats = {
  sup_pid : int;
  sup_restarts : int;
  sup_broken : bool;  (** circuit breaker tripped: no further restarts *)
  sup_checkpoints : int;  (** sealed checkpoints captured *)
  sup_recovery_cycles : int;
      (** total model cycles spent inside respawns (backoff + restore);
          divide by [sup_restarts] for mean time to recovery *)
  sup_last_checkpoint : bytes option;  (** latest sealed checkpoint blob *)
  sup_prev_checkpoint : bytes option;
      (** the one before it — retained so harnesses can prove that rolling
          back to it raises [Stale_checkpoint] *)
  sup_migrations_attempted : int;
  sup_migrations_completed : int;
  sup_migrations_aborted : int;
}

val supervision_stats : t -> pid:int -> supervision_stats option
(** Supervisor bookkeeping for a supervised pid; [None] if unsupervised. *)

val mmap_base_vpn : int
(** Base VPN of the mmap region (restart-aware services mmap their state
    page first so it lands at a deterministic address). *)
