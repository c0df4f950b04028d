open Machine

type config = {
  quantum : int;
  guest_pages : int;
  pipe_capacity : int;
  fs_blocks : int;
  swap_blocks : int;
  journal_blocks : int;
      (* blocks reserved at the head of the disk for the VMM's metadata
         journal; 0 disables journaling *)
  journal_ckpt_every : int;
      (* checkpoint cadence in journal records; harnesses lower it to put
         mid-run checkpoints inside the crash-point matrix *)
}

let default_config =
  {
    quantum = 200_000;
    guest_pages = 8192;
    pipe_capacity = 65536;
    fs_blocks = 4096;
    swap_blocks = 4096;
    journal_blocks = 0;
    journal_ckpt_every = 64;
  }

(* Restart policy for a supervised cloaked process. The backoff doubles on
   every successive restart; once the budget is spent the circuit breaks
   and the process stays down (a crash-looping workload must not grind the
   guest forever). *)
type restart_policy = {
  restart_budget : int;  (* restarts granted before the circuit breaks *)
  backoff_cycles : int;  (* base restart delay in cycles; doubles per attempt *)
  ckpt_every : int;  (* completed syscalls between automatic checkpoints;
                        0 = only explicit Checkpoint hypercalls *)
}

let default_policy = { restart_budget = 5; backoff_cycles = 50_000; ckpt_every = 0 }

exception Deadlock of string

(* Raised inside syscall execution when a user buffer cannot be made valid. *)
exception User_segv of Fault.page_fault

(* --- user address-space layout (in VPNs) --- *)

let heap_base_vpn = 0x100
let stack_pages = 64
let stack_top_vpn = 0x8000
let mmap_base_vpn = 0x10000

type area = {
  start_vpn : Addr.vpn;
  mutable pages : int;
  kind : [ `Heap | `Stack | `Mmap ];
  cloaked_area : bool;
}

type fd_obj =
  | File of { inode : int; mutable pos : int; append : bool; readable : bool; writable : bool }
  | Pipe_r of Pipe.t
  | Pipe_w of Pipe.t

type fd_slot = { mutable refs : int; obj : fd_obj }

type cond = Pipe_readable of int | Pipe_writable of int | Child_exited

type cont = (Abi.value, unit) Effect.Deep.continuation

type task =
  | Start of Abi.program
  | Continue of cont * Abi.value
  | Raise of cont * exn

type pstate = Runnable | Blocked of cond | Zombie of int | Dead

type proc = {
  pid : int;
  mutable parent : int;
  pt : Page_table.t;
  env : Abi.env;
  mutable areas : area list;
  mutable brk_vpn : Addr.vpn;  (* heap top, exclusive *)
  mutable mmap_next : Addr.vpn;
  fds : (int, fd_slot) Hashtbl.t;
  mutable next_fd : int;
  mutable state : pstate;
  mutable task : task option;
  mutable pending : (Abi.call * cont) option;
  mutable queued : bool;
  sigq : int Queue.t;
  dispositions : (int, Abi.disposition) Hashtbl.t;
  mutable regs : Cloak.Transfer.regs;
  mutable saved_handle : Cloak.Transfer.handle option;
  swap_map : (Addr.vpn, int) Hashtbl.t;
}

(* What a migration drain handler decides after the transfer attempt:
   commit (the destination owns the process now; the local incarnation
   terminates) or abort (nothing happened; the syscall returns normally
   and the process keeps running here). *)
type migration_decision = Mig_commit | Mig_abort

(* Supervisor bookkeeping for one cloaked process: restart policy and
   budget, the last two sealed checkpoints (the previous one survives only
   so harnesses can prove rollback to it is refused), and availability
   accounting. *)
type supervision = {
  policy : restart_policy;
  prog : Abi.program;
  mutable restarts : int;
  mutable broken : bool;  (* circuit broken: no further restarts *)
  mutable checkpoint : bytes option;  (* latest sealed checkpoint blob *)
  mutable prev_checkpoint : bytes option;
  mutable checkpoints : int;
  mutable syscalls_since : int;  (* completed syscalls since last capture *)
  mutable recovery_cycles : int;  (* cycles spent inside respawns (MTTR) *)
  mutable respawning : bool;  (* a respawn is on the stack: nested retries
                                 must not double-count recovery cycles *)
  mutable kill_statuses : int list;  (* fatal exits observed, newest first *)
  mutable migration : (bytes -> migration_decision) option;
      (* one-shot drain handler armed by request_migration; fires at the
         next quiesce point (sys_checkpoint) with the fresh sealed blob *)
  mutable migrations_attempted : int;
  mutable migrations_completed : int;
  mutable migrations_aborted : int;
}

type t = {
  vmm : Cloak.Vmm.t;
  transfer : Cloak.Transfer.t;
  cfg : config;
  procs : (int, proc) Hashtbl.t;
  runq : int Queue.t;
  mutable next_pid : int;
  mutable next_ppn : int;
  mutable free_ppns : int list;
  resident : (int * Addr.vpn) Queue.t;  (* FIFO eviction candidates *)
  mutable fs : Fs.t;  (* set once at the end of [create] *)
  disk : Blockdev.t;
  swap : Blockdev.t;
  pipes : (int, Pipe.t) Hashtbl.t;
  mutable next_pipe : int;
  mutable violations : (int * Cloak.Violation.t) list;
  exit_log : (int, int) Hashtbl.t;
  supervised : (int, supervision) Hashtbl.t;
}

let vmm t = t.vmm
let fs t = t.fs
let disk t = t.disk
let swap_device t = t.swap
let transfer t = t.transfer
let config t = t.cfg
let violations t = t.violations
let exit_status t ~pid = Hashtbl.find_opt t.exit_log pid

(* --- guest physical page pool with swap-backed eviction --- *)

let release_guest_page t ppn =
  Cloak.Vmm.release_ppn t.vmm ppn;
  t.free_ppns <- ppn :: t.free_ppns

let rec alloc_ppn t =
  match t.free_ppns with
  | ppn :: rest ->
      t.free_ppns <- rest;
      ppn
  | [] ->
      if t.next_ppn < t.cfg.guest_pages then begin
        let ppn = t.next_ppn in
        t.next_ppn <- ppn + 1;
        ppn
      end
      else begin
        evict_one t;
        alloc_ppn t
      end

and evict_one t =
  match Queue.take_opt t.resident with
  | None -> raise (Errno.Error ENOMEM)
  | Some (pid, vpn) -> (
      match Hashtbl.find_opt t.procs pid with
      | Some proc when proc.state <> Dead -> (
          match Page_table.lookup proc.pt vpn with
          | Some pte -> swap_out t proc vpn pte
          | None -> evict_one t)
      | Some _ | None -> evict_one t)

(* Page-out through DMA: the device reads the page via the VMM's physmap,
   so a cloaked plaintext page is encrypted before it ever reaches swap. *)
and swap_out t proc vpn (pte : Page_table.pte) =
  let block = Blockdev.alloc_block t.swap in
  Retry.disk t.vmm (fun () -> Blockdev.write_block t.swap block ~ppn:pte.ppn);
  Page_table.unmap proc.pt vpn;
  Cloak.Vmm.invlpg t.vmm ~asid:(Page_table.asid proc.pt) ~vpn;
  release_guest_page t pte.ppn;
  Hashtbl.replace proc.swap_map vpn block

let map_user_page t proc vpn =
  let ppn = alloc_ppn t in
  Page_table.map proc.pt vpn ppn ~writable:true ~user:true;
  Queue.add (proc.pid, vpn) t.resident;
  ppn

let swap_in t proc vpn =
  let block = Hashtbl.find proc.swap_map vpn in
  let ppn = map_user_page t proc vpn in
  Retry.disk t.vmm (fun () -> Blockdev.read_block t.swap block ~ppn);
  Blockdev.free_block t.swap block;
  Hashtbl.remove proc.swap_map vpn

(* --- construction --- *)

let create ?(config = default_config) vmm =
  let t =
    {
      vmm;
      transfer = Cloak.Transfer.create ();
      cfg = config;
      procs = Hashtbl.create 32;
      runq = Queue.create ();
      next_pid = 1;
      next_ppn = 0;
      free_ppns = [];
      resident = Queue.create ();
      fs = Obj.magic 0;  (* replaced below; Fs needs the allocator closures *)
      disk =
        Blockdev.create ~name:"disk" ~reserve:config.journal_blocks ~vmm
          ~blocks:config.fs_blocks ();
      swap = Blockdev.create ~name:"swap" ~vmm ~blocks:config.swap_blocks ();
      pipes = Hashtbl.create 16;
      next_pipe = 1;
      violations = [];
      exit_log = Hashtbl.create 32;
      supervised = Hashtbl.create 8;
    }
  in
  t.fs <-
    Fs.create ~vmm ~dev:t.disk
      ~alloc_ppn:(fun () -> alloc_ppn t)
      ~free_ppn:(fun ppn -> release_guest_page t ppn);
  if config.journal_blocks > 0 then begin
    (* the journal lives in the reserved head of the disk, reached through
       the raw (host-side) path with the same bounded retry as swap I/O *)
    let store =
      {
        Cloak.Journal.blocks = config.journal_blocks;
        block_size = Addr.page_size;
        read = (fun b -> Blockdev.peek t.disk b);
        write = (fun b data -> Retry.disk t.vmm (fun () -> Blockdev.write_raw t.disk b data));
      }
    in
    ignore (Cloak.Vmm.attach_journal ~ckpt_every:config.journal_ckpt_every vmm ~store)
  end;
  t

(* --- process table --- *)

let find_area proc vpn =
  List.find_opt
    (fun a -> a.pages > 0 && vpn >= a.start_vpn && vpn < a.start_vpn + a.pages)
    proc.areas

let app_ctx proc = Cloak.Context.app proc.pid
let sys_ctx proc = Cloak.Context.sys proc.pid
let anon_resource proc = Cloak.Resource.Anon proc.pid

let enqueue t proc =
  if not proc.queued && proc.state = Runnable then begin
    proc.queued <- true;
    Queue.add proc.pid t.runq
  end

let cloak_area t proc (a : area) =
  if a.cloaked_area && a.pages > 0 then
    Cloak.Vmm.cloak_range t.vmm ~asid:proc.pid ~resource:(anon_resource proc)
      ~start_vpn:a.start_vpn ~pages:a.pages ~base_idx:a.start_vpn

let fresh_areas cloaked =
  [
    { start_vpn = stack_top_vpn - stack_pages; pages = stack_pages; kind = `Stack; cloaked_area = cloaked };
    { start_vpn = heap_base_vpn; pages = 0; kind = `Heap; cloaked_area = cloaked };
  ]

(* The address-space layout travels inside a sealed checkpoint as an opaque
   string: "brk,mmap_next;K,start,pages,cloaked;..." with K one of H/S/M.
   Uses only [;,-] and alphanumerics, as Seal.check_layout requires. *)
let render_layout proc =
  let area_str (a : area) =
    Printf.sprintf "%c,%d,%d,%d"
      (match a.kind with `Heap -> 'H' | `Stack -> 'S' | `Mmap -> 'M')
      a.start_vpn a.pages
      (if a.cloaked_area then 1 else 0)
  in
  String.concat ";"
    (Printf.sprintf "%d,%d" proc.brk_vpn proc.mmap_next
    :: List.map area_str proc.areas)

let parse_layout s =
  match String.split_on_char ';' s with
  | [] -> None
  | head :: rest -> (
      match String.split_on_char ',' head with
      | [ brk; mn ] -> (
          match (int_of_string_opt brk, int_of_string_opt mn) with
          | Some brk_vpn, Some mmap_next ->
              let area_of s =
                match String.split_on_char ',' s with
                | [ k; start; pages; cloaked ] -> (
                    let kind =
                      match k with
                      | "H" -> Some `Heap
                      | "S" -> Some `Stack
                      | "M" -> Some `Mmap
                      | _ -> None
                    in
                    match
                      (kind, int_of_string_opt start, int_of_string_opt pages,
                       int_of_string_opt cloaked)
                    with
                    | Some kind, Some start_vpn, Some pages, Some c ->
                        Some { start_vpn; pages; kind; cloaked_area = c = 1 }
                    | _ -> None)
                | _ -> None
              in
              let areas = List.map area_of rest in
              if List.for_all Option.is_some areas then
                Some (brk_vpn, mmap_next, List.filter_map Fun.id areas)
              else None
          | _ -> None)
      | _ -> None)

(* [pid] reuses a dead process's identity (supervised respawn keeps the
   pid stable across incarnations); the default draws a fresh one. *)
let alloc_proc ?pid t ~parent ~cloaked =
  let pid =
    match pid with
    | Some pid ->
        if Hashtbl.mem t.procs pid then
          invalid_arg "Kernel.alloc_proc: pid still in use";
        pid
    | None ->
        let pid = t.next_pid in
        t.next_pid <- pid + 1;
        pid
  in
  let pt = Page_table.create ~asid:pid in
  Cloak.Vmm.register_address_space t.vmm pt;
  let env =
    {
      Abi.vmm = t.vmm;
      pid;
      asid = pid;
      cloaked;
      dispatch = Abi.perform_syscall;
      handlers = Hashtbl.create 4;
      heap_base_vaddr = Addr.vaddr_of_vpn heap_base_vpn;
      heap_cursor = Addr.vaddr_of_vpn heap_base_vpn;
      quantum = t.cfg.quantum;
      restored = false;
      incarnation = 0;
    }
  in
  let proc =
    {
      pid;
      parent;
      pt;
      env;
      areas = fresh_areas cloaked;
      brk_vpn = heap_base_vpn;
      mmap_next = mmap_base_vpn;
      fds = Hashtbl.create 8;
      next_fd = 3;
      state = Runnable;
      task = None;
      pending = None;
      queued = false;
      sigq = Queue.create ();
      dispositions = Hashtbl.create 4;
      regs = Cloak.Transfer.fresh_regs ();
      saved_handle = None;
      swap_map = Hashtbl.create 8;
    }
  in
  Hashtbl.add t.procs pid proc;
  List.iter (cloak_area t proc) proc.areas;
  proc

let spawn t ?(cloaked = false) prog =
  let proc = alloc_proc t ~parent:0 ~cloaked in
  proc.task <- Some (Start prog);
  enqueue t proc;
  proc.pid

let supervision ~policy ~prog ~checkpoint =
  {
    policy;
    prog;
    restarts = 0;
    broken = false;
    checkpoint;
    prev_checkpoint = None;
    checkpoints = 0;
    syscalls_since = 0;
    recovery_cycles = 0;
    respawning = false;
    kill_statuses = [];
    migration = None;
    migrations_attempted = 0;
    migrations_completed = 0;
    migrations_aborted = 0;
  }

let spawn_supervised t ?(policy = default_policy) prog =
  let pid = spawn t ~cloaked:true prog in
  Hashtbl.replace t.supervised pid (supervision ~policy ~prog ~checkpoint:None);
  pid

(* --- wakeups --- *)

let wake t pred =
  Hashtbl.iter
    (fun _ proc ->
      match proc.state with
      | Blocked cond when pred cond ->
          proc.state <- Runnable;
          enqueue t proc
      | Blocked _ | Runnable | Zombie _ | Dead -> ())
    t.procs

let wake_pipe_readers t pipe_id =
  wake t (function Pipe_readable id -> id = pipe_id | Pipe_writable _ | Child_exited -> false)

let wake_pipe_writers t pipe_id =
  wake t (function Pipe_writable id -> id = pipe_id | Pipe_readable _ | Child_exited -> false)

let wake_waiters t = wake t (function Child_exited -> true | Pipe_readable _ | Pipe_writable _ -> false)

(* --- file descriptors --- *)

let install_fd proc obj =
  let fd = proc.next_fd in
  proc.next_fd <- fd + 1;
  Hashtbl.add proc.fds fd { refs = 1; obj };
  fd

let close_slot t slot =
  slot.refs <- slot.refs - 1;
  if slot.refs = 0 then
    match slot.obj with
    | File _ -> ()
    | Pipe_r p ->
        Pipe.close_reader p;
        wake_pipe_writers t (Pipe.id p)
    | Pipe_w p ->
        Pipe.close_writer p;
        wake_pipe_readers t (Pipe.id p)

let close_fd t proc fd =
  match Hashtbl.find_opt proc.fds fd with
  | None -> Error Errno.EBADF
  | Some slot ->
      Hashtbl.remove proc.fds fd;
      close_slot t slot;
      Ok ()

(* --- memory teardown --- *)

let free_all_memory t proc =
  Page_table.iter proc.pt (fun vpn pte ->
      ignore vpn;
      release_guest_page t pte.ppn);
  Hashtbl.iter (fun _vpn block -> Blockdev.free_block t.swap block) proc.swap_map;
  Hashtbl.reset proc.swap_map;
  (* unmap after the iteration so we do not mutate while iterating *)
  let vpns = ref [] in
  Page_table.iter proc.pt (fun vpn _ -> vpns := vpn :: !vpns);
  List.iter (Page_table.unmap proc.pt) !vpns

(* --- restore from a sealed checkpoint --- *)

(* Turn a fresh incarnation into the one an unsealed checkpoint describes
   (same idiom as fork: drop the default cloaked ranges, rebuild the
   layout, re-cloak), reinstall its ciphertext through the kernel's
   physical view and resume its registers. A fresh frame takes the raw
   bytes; the next App-view touch decrypts and verifies against the
   restored metadata. Respawn restores with [~consume:false]; adoption
   consumes the blob's generation. *)
let install_image t proc restored ~consume =
  List.iter
    (fun (a : area) ->
      if a.cloaked_area && a.pages > 0 then
        Cloak.Vmm.uncloak_range t.vmm ~asid:proc.pid ~start_vpn:a.start_vpn)
    proc.areas;
  (match parse_layout restored.Cloak.Seal.layout with
  | Some (brk_vpn, mmap_next, areas) ->
      proc.areas <- areas;
      proc.brk_vpn <- brk_vpn;
      proc.mmap_next <- mmap_next
  | None -> ());
  List.iter (cloak_area t proc) proc.areas;
  let write_page vpn cipher =
    let ppn =
      match Page_table.lookup proc.pt vpn with
      | Some pte -> pte.ppn
      | None -> map_user_page t proc vpn
    in
    Cloak.Vmm.phys_write t.vmm ppn ~off:0 cipher
  in
  Cloak.Seal.install ~consume t.vmm restored ~write_page;
  proc.regs <- Cloak.Transfer.copy_regs restored.Cloak.Seal.regs;
  proc.env.restored <- true

(* --- supervised restart --- *)

(* Respawn a supervised cloaked process after a fatal kill. The old
   incarnation is already scrubbed (do_exit ran first), so absolve the
   quarantined resource, charge the exponential backoff, and bring up a
   fresh incarnation from the last sealed checkpoint — or from scratch if
   none was ever captured. A checkpoint that fails verification — forged
   or stale — trips the circuit breaker instead of being served. *)
let rec respawn t pid sup status =
  let audit fmt = Inject.Audit.record (Cloak.Vmm.audit t.vmm) fmt in
  let c = Cloak.Vmm.counters t.vmm in
  if sup.restarts >= sup.policy.restart_budget then begin
    sup.broken <- true;
    c.circuit_breaks <- c.circuit_breaks + 1;
    audit "supervisor circuit-break pid=%d after %d restarts (exit %d)" pid
      sup.restarts status
  end
  else begin
    let nested = sup.respawning in
    sup.respawning <- true;
    let t0 = Cost.cycles (Cloak.Vmm.cost t.vmm) in
    let attempt = sup.restarts in
    sup.restarts <- attempt + 1;
    c.restarts <- c.restarts + 1;
    Cloak.Vmm.charge t.vmm (sup.policy.backoff_cycles * (1 lsl attempt));
    audit "supervisor restart pid=%d attempt=%d exit=%d" pid attempt status;
    Trace.emit (Cloak.Vmm.trace t.vmm) ~pid ~aux:attempt Trace.Restart;
    Cloak.Vmm.absolve t.vmm (Cloak.Resource.Anon pid);
    (* Build the new incarnation. Machine-level failures mid-construction
       (an exhausted allocator, a dying swap device) are contained by
       routing the half-built incarnation back through do_exit with a
       fatal status, which re-enters the supervisor: the retry costs
       another attempt and another (doubled) backoff, and the budget
       bounds the recursion. *)
    let construct restored_opt =
      let proc = alloc_proc ~pid t ~parent:0 ~cloaked:true in
      Option.iter (fun r -> install_image t proc r ~consume:false) restored_opt;
      proc.env.incarnation <- sup.restarts;
      proc.task <- Some (Start sup.prog);
      enqueue t proc
    in
    let contain_construct exn_status what =
      audit "supervisor restart failed pid=%d (%s)" pid what;
      match Hashtbl.find_opt t.procs pid with
      | Some p -> do_exit t p exn_status
      | None -> ()
    in
    (match sup.checkpoint with
    | None -> (
        (* no checkpoint yet: restart from the program entry point *)
        try construct None with
        | Phys_mem.Out_of_memory -> contain_construct 137 "oom"
        | Fault.Machine_check _ | Blockdev.Io_error _ | Errno.Error _ ->
            contain_construct (-3) "machine")
    | Some blob -> (
        match
          try `Ok (Cloak.Seal.unseal t.vmm blob)
          with Cloak.Violation.Security_fault v -> `Bad v
        with
        | `Bad v ->
            (* never serve a forged or stale checkpoint: break the circuit *)
            sup.broken <- true;
            c.circuit_breaks <- c.circuit_breaks + 1;
            t.violations <- (pid, v) :: t.violations;
            audit "supervisor circuit-break pid=%d checkpoint rejected (%s)"
              pid
              (Cloak.Violation.kind_to_string v.Cloak.Violation.kind)
        | `Ok restored -> (
            try construct (Some restored) with
            | Phys_mem.Out_of_memory -> contain_construct 137 "oom"
            | Fault.Machine_check _ | Blockdev.Io_error _ | Errno.Error _ ->
                contain_construct (-3) "machine")));
    if not nested then begin
      sup.recovery_cycles <-
        sup.recovery_cycles + (Cost.cycles (Cloak.Vmm.cost t.vmm) - t0);
      sup.respawning <- false
    end
  end

and do_exit t proc status =
  if proc.state <> Dead then begin
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) proc.fds [] in
    List.iter (fun fd -> ignore (close_fd t proc fd)) fds;
    (* scrub cloaked plaintext while its pages are still allocated: freeing
       first would let a failed scrub leave plaintext in a reusable frame.
       Shared (protected-object) plaintext is re-encrypted, not scrubbed —
       the object outlives the process *)
    if proc.env.cloaked then begin
      Cloak.Vmm.seal_asid_shm t.vmm ~asid:proc.pid;
      Cloak.Vmm.uncloak_resource t.vmm (anon_resource proc);
      Cloak.Transfer.discard t.transfer ~asid:proc.pid ~tid:proc.pid
    end;
    free_all_memory t proc;
    Cloak.Vmm.destroy_address_space t.vmm ~asid:proc.pid;
    Hashtbl.replace t.exit_log proc.pid status;
    (* orphan the children; reap any zombies among them *)
    Hashtbl.iter
      (fun _ child ->
        if child.parent = proc.pid then begin
          child.parent <- 0;
          match child.state with
          | Zombie _ ->
              child.state <- Dead;
              Hashtbl.remove t.procs child.pid
          | Runnable | Blocked _ | Dead -> ()
        end)
      t.procs;
    let parent_alive =
      match Hashtbl.find_opt t.procs proc.parent with
      | Some p -> p.state <> Dead && (match p.state with Zombie _ -> false | _ -> true)
      | None -> false
    in
    if parent_alive then begin
      proc.state <- Zombie status;
      wake_waiters t
    end
    else begin
      proc.state <- Dead;
      Hashtbl.remove t.procs proc.pid
    end;
    (* supervised restart: only fatal kills (security, machine check, OOM)
       trigger a respawn — a voluntary exit means the work is done. The pid
       must be fully released (Dead, not Zombie) before it can be reused. *)
    match Hashtbl.find_opt t.supervised proc.pid with
    | Some sup
      when proc.state = Dead
           && (status = -2 || status = -3 || status = 137) ->
        sup.kill_statuses <- status :: sup.kill_statuses;
        if not sup.broken then respawn t proc.pid sup status
    | Some _ | None -> ()
  end

(* --- fault containment --- *)

let security_exit_status = -2
let machine_check_exit_status = -3
let oom_exit_status = 137

(* Terminate a process other than the one currently executing. If it is
   parked in a syscall or scheduled with a continuation, reroute the fiber
   through an Exited unwind so it finalizes normally; otherwise tear it
   down directly. *)
let kill_contained t victim status =
  match (victim.pending, victim.task) with
  | Some (_, cont), _ | None, Some (Continue (cont, _) | Raise (cont, _)) ->
      victim.pending <- None;
      victim.task <- Some (Raise (cont, Abi.Exited status));
      victim.state <- Runnable;
      enqueue t victim
  | None, (Some (Start _) | None) ->
      if victim.env.cloaked then
        Cloak.Transfer.discard t.transfer ~asid:victim.pid ~tid:victim.pid;
      do_exit t victim status

(* The single containment point for security faults. Quarantine exactly the
   condemned resource in the VMM and identify the owning cloaked process:
   the caller kills only that process (distinct exit status -2) while the
   guest and every other process keep running. Returns [`Self] when the
   current process owns the resource (the usual case — its own fault
   unwind finishes the kill), [`Other] after killing a different owner. *)
let contain_violation t proc (v : Cloak.Violation.t) =
  let c = Cloak.Vmm.counters t.vmm in
  c.contained <- c.contained + 1;
  (match v.resource with
  | Some r -> Cloak.Vmm.quarantine t.vmm r v.kind
  | None -> ());
  let owner =
    match v.resource with
    | Some (Cloak.Resource.Anon asid) when asid <> proc.pid -> (
        match Hashtbl.find_opt t.procs asid with
        | Some p -> (
            match p.state with
            | Runnable | Blocked _ -> Some p
            | Zombie _ | Dead -> None (* already gone; nothing left to kill *))
        | None -> None)
    | Some _ | None -> Some proc
  in
  match owner with
  | Some p when p.pid = proc.pid ->
      t.violations <- (proc.pid, v) :: t.violations;
      `Self
  | Some p ->
      t.violations <- (p.pid, v) :: t.violations;
      kill_contained t p security_exit_status;
      `Other
  | None ->
      t.violations <- (proc.pid, v) :: t.violations;
      `Other

let contain_machine_check t proc msg =
  let c = Cloak.Vmm.counters t.vmm in
  c.contained <- c.contained + 1;
  Inject.Audit.record (Cloak.Vmm.audit t.vmm) "machine-check pid=%d %s"
    proc.pid msg

(* --- fault resolution --- *)

let resolve_fault t proc (pf : Fault.page_fault) =
  match find_area proc pf.vpn with
  | None -> `Segv
  | Some _ -> (
      match pf.kind with
      | Fault.Protection -> `Segv
      | Fault.Not_present ->
          if Hashtbl.mem proc.swap_map pf.vpn then swap_in t proc pf.vpn
          else ignore (map_user_page t proc pf.vpn);
          `Ok)

(* Retry a kernel operation that touches user memory until its buffers are
   resident, resolving injected faults the way a real copyin path would. *)
let rec with_user_mem t proc f =
  try f ()
  with Fault.Guest_page_fault pf -> (
    Cloak.Vmm.guest_fault_charge t.vmm;
    match resolve_fault t proc pf with
    | `Ok -> with_user_mem t proc f
    | `Segv -> raise (User_segv pf))

(* --- signals --- *)

let disposition proc signum =
  match Hashtbl.find_opt proc.dispositions signum with
  | Some d -> d
  | None -> Abi.Default

let post_signal t proc signum =
  match proc.state with
  | Zombie _ | Dead -> ()
  | Runnable | Blocked _ -> (
      let action =
        if signum = Abi.sigkill then `Kill
        else
          match disposition proc signum with
          | Abi.Ignore -> `Drop
          | Abi.Handled -> `Queue
          | Abi.Default -> `Kill
      in
      match (action, proc.state) with
      | `Drop, _ -> ()
      | `Queue, _ -> Queue.add signum proc.sigq
      | `Kill, Blocked _ -> (
          (* yank the process out of its blocking syscall and unwind *)
          match proc.pending with
          | Some (_, cont) ->
              proc.pending <- None;
              proc.task <- Some (Raise (cont, Abi.Exited (128 + signum)));
              proc.state <- Runnable;
              enqueue t proc
          | None -> Queue.add signum proc.sigq)
      | `Kill, _ -> Queue.add signum proc.sigq)

(* Deliver queued signals at syscall completion: handled signals wrap the
   result so the user-level dispatch loop runs the handler; fatal ones
   terminate. *)
let deliver_signals proc v =
  let rec go v =
    match Queue.take_opt proc.sigq with
    | None -> `Value v
    | Some n when n = Abi.sigkill -> `Kill (128 + n)
    | Some n -> (
        match disposition proc n with
        | Abi.Ignore -> go v
        | Abi.Handled -> go (Abi.Signaled (n, v))
        | Abi.Default -> `Kill (128 + n))
  in
  go v

(* --- syscall outcomes --- *)

type outcome =
  | Done of Abi.value
  | Blocked_on of cond
  | Terminate of int
  | Replace of Abi.program

let err e = Done (Abi.Err e)
let of_result = function Ok v -> Done v | Error e -> err e

(* --- individual syscalls --- *)

let sys_open t proc path flags =
  let has f = List.mem f flags in
  let result =
    match Fs.lookup t.fs path with
    | Ok inode -> Ok inode
    | Error Errno.ENOENT when has Abi.O_CREAT -> Fs.create_file t.fs path
    | Error e -> Error e
  in
  match result with
  | Error e -> err e
  | Ok inode -> (
      match Fs.kind t.fs inode with
      | `Dir -> err Errno.EISDIR
      | `File ->
          if has Abi.O_TRUNC then ignore (Fs.truncate t.fs ~inode);
          let readable = (not (has Abi.O_WRONLY)) in
          let writable = has Abi.O_WRONLY || has Abi.O_RDWR || has Abi.O_CREAT in
          let fd =
            install_fd proc
              (File { inode; pos = 0; append = has Abi.O_APPEND; readable; writable })
          in
          Done (Abi.Int fd))

let sys_read t proc fd vaddr len =
  match Hashtbl.find_opt proc.fds fd with
  | None -> err Errno.EBADF
  | Some { obj = File f; _ } ->
      if not f.readable then err Errno.EBADF
      else
        let r =
          with_user_mem t proc (fun () ->
              Fs.read t.fs ~ctx:(sys_ctx proc) ~inode:f.inode ~pos:f.pos ~vaddr ~len)
        in
        (match r with
        | Ok n ->
            f.pos <- f.pos + n;
            Done (Abi.Int n)
        | Error e -> err e)
  | Some { obj = Pipe_r p; _ } -> (
      match with_user_mem t proc (fun () ->
                Pipe.read_into p t.vmm ~ctx:(sys_ctx proc) ~vaddr ~len)
      with
      | `Data n ->
          wake_pipe_writers t (Pipe.id p);
          Done (Abi.Int n)
      | `Eof -> Done (Abi.Int 0)
      | `Empty -> Blocked_on (Pipe_readable (Pipe.id p)))
  | Some { obj = Pipe_w _; _ } -> err Errno.EBADF

let sys_write t proc fd vaddr len =
  match Hashtbl.find_opt proc.fds fd with
  | None -> err Errno.EBADF
  | Some { obj = File f; _ } ->
      if not f.writable then err Errno.EBADF
      else begin
        if f.append then f.pos <- Fs.size t.fs f.inode;
        let r =
          with_user_mem t proc (fun () ->
              Fs.write t.fs ~ctx:(sys_ctx proc) ~inode:f.inode ~pos:f.pos ~vaddr ~len)
        in
        match r with
        | Ok n ->
            f.pos <- f.pos + n;
            Done (Abi.Int n)
        | Error e -> err e
      end
  | Some { obj = Pipe_w p; _ } -> (
      match with_user_mem t proc (fun () ->
                Pipe.write_from p t.vmm ~ctx:(sys_ctx proc) ~vaddr ~len)
      with
      | `Wrote n ->
          wake_pipe_readers t (Pipe.id p);
          Done (Abi.Int n)
      | `Full -> Blocked_on (Pipe_writable (Pipe.id p))
      | `Broken ->
          post_signal t proc Abi.sigpipe;
          err Errno.EPIPE)
  | Some { obj = Pipe_r _; _ } -> err Errno.EBADF

let sys_lseek t proc fd pos whence =
  match Hashtbl.find_opt proc.fds fd with
  | Some { obj = File f; _ } ->
      let base =
        match whence with
        | Abi.Seek_set -> 0
        | Abi.Seek_cur -> f.pos
        | Abi.Seek_end -> Fs.size t.fs f.inode
      in
      let target = base + pos in
      if target < 0 then err Errno.EINVAL
      else begin
        f.pos <- target;
        Done (Abi.Int target)
      end
  | Some _ -> err Errno.EINVAL
  | None -> err Errno.EBADF

let stat_value t inode =
  Abi.Stat_v { st_inode = inode; st_size = Fs.size t.fs inode; st_kind = Fs.kind t.fs inode }

let sys_sbrk t proc n =
  if n < 0 then err Errno.EINVAL
  else if n = 0 then Done (Abi.Int proc.brk_vpn)
  else begin
    let heap = List.find (fun a -> a.kind = `Heap) proc.areas in
    let old_top = proc.brk_vpn in
    if old_top + n >= stack_top_vpn - stack_pages then err Errno.ENOMEM
    else begin
      heap.pages <- heap.pages + n;
      proc.brk_vpn <- old_top + n;
      if heap.cloaked_area then
        Cloak.Vmm.cloak_range t.vmm ~asid:proc.pid ~resource:(anon_resource proc)
          ~start_vpn:old_top ~pages:n ~base_idx:old_top;
      Done (Abi.Int old_top)
    end
  end

let sys_mmap t proc pages cloaked =
  if pages <= 0 then err Errno.EINVAL
  else begin
    let start_vpn = proc.mmap_next in
    proc.mmap_next <- start_vpn + pages + 1;
    let area =
      { start_vpn; pages; kind = `Mmap; cloaked_area = proc.env.cloaked && cloaked }
    in
    proc.areas <- area :: proc.areas;
    cloak_area t proc area;
    Done (Abi.Int start_vpn)
  end

let sys_munmap t proc start_vpn pages =
  match
    List.find_opt (fun a -> a.kind = `Mmap && a.start_vpn = start_vpn && a.pages = pages) proc.areas
  with
  | None -> err Errno.EINVAL
  | Some area ->
      (* scrub-before-free: drop the cloak (zeroing plaintext homes) while
         the backing frames are still allocated *)
      if area.cloaked_area then begin
        Cloak.Vmm.uncloak_range t.vmm ~asid:proc.pid ~start_vpn;
        Cloak.Vmm.drop_cloaked_pages t.vmm (anon_resource proc) ~base_idx:start_vpn ~pages
      end;
      for vpn = start_vpn to start_vpn + pages - 1 do
        (match Page_table.lookup proc.pt vpn with
        | Some pte ->
            Page_table.unmap proc.pt vpn;
            Cloak.Vmm.invlpg t.vmm ~asid:proc.pid ~vpn;
            release_guest_page t pte.ppn
        | None -> ());
        match Hashtbl.find_opt proc.swap_map vpn with
        | Some block ->
            Blockdev.free_block t.swap block;
            Hashtbl.remove proc.swap_map vpn
        | None -> ()
      done;
      proc.areas <- List.filter (fun a -> a != area) proc.areas;
      Done Abi.Unit

let sys_pipe t proc =
  let id = t.next_pipe in
  t.next_pipe <- id + 1;
  let p = Pipe.create ~id ~capacity:t.cfg.pipe_capacity in
  Hashtbl.add t.pipes id p;
  Pipe.add_reader p;
  Pipe.add_writer p;
  let rfd = install_fd proc (Pipe_r p) in
  let wfd = install_fd proc (Pipe_w p) in
  Done (Abi.Pair (rfd, wfd))

let sys_dup proc fd =
  match Hashtbl.find_opt proc.fds fd with
  | None -> err Errno.EBADF
  | Some slot ->
      (* the slot is one open file description: pipe end counts follow the
         slot's lifetime, not the number of fds naming it *)
      slot.refs <- slot.refs + 1;
      let nfd = proc.next_fd in
      proc.next_fd <- nfd + 1;
      Hashtbl.add proc.fds nfd slot;
      Done (Abi.Int nfd)

let sys_wait t proc =
  let zombie =
    Hashtbl.fold
      (fun _ child acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            if child.parent <> proc.pid then None
            else match child.state with Zombie status -> Some (child, status) | _ -> None))
      t.procs None
  in
  match zombie with
  | Some (child, status) ->
      child.state <- Dead;
      Hashtbl.remove t.procs child.pid;
      Done (Abi.Pair (child.pid, status))
  | None ->
      let has_children =
        Hashtbl.fold (fun _ c acc -> acc || c.parent = proc.pid) t.procs false
      in
      if has_children then Blocked_on Child_exited else err Errno.ECHILD

let ensure_resident t proc vpn =
  match Page_table.lookup proc.pt vpn with
  | Some _ -> ()
  | None -> if Hashtbl.mem proc.swap_map vpn then swap_in t proc vpn

(* --- sealed checkpoints --- *)

(* Capture a sealed checkpoint of [proc] at the current quiesce point
   (syscall boundary: the transfer context is saved, so proc.regs is the
   register image the VMM attested at kernel entry). Swapped pages are
   brought back first so the blob seals the authoritative ciphertext.
   Returns the new journal-anchored seal generation. *)
let capture_checkpoint t proc sup =
  Cloak.Vmm.hypercall t.vmm;
  let resource = anon_resource proc in
  let idxs =
    Cloak.Vmm.fold_meta t.vmm resource (fun idx _ acc -> idx :: acc) []
  in
  List.iter (ensure_resident t proc) idxs;
  let read_page vpn =
    match Page_table.lookup proc.pt vpn with
    | Some pte -> Cloak.Vmm.phys_read t.vmm pte.ppn ~off:0 ~len:Addr.page_size
    | None ->
        (* a tracked page that is neither resident nor in swap: the image
           cannot be captured faithfully, so fail the capture *)
        raise (Errno.Error EIO)
  in
  let regs = Cloak.Transfer.copy_regs proc.regs in
  let layout = render_layout proc in
  let blob = Cloak.Seal.capture t.vmm ~resource ~regs ~layout ~read_page in
  sup.prev_checkpoint <- sup.checkpoint;
  sup.checkpoint <- Some blob;
  sup.checkpoints <- sup.checkpoints + 1;
  sup.syscalls_since <- 0;
  Cloak.Vmm.seal_generation t.vmm ~tag:(Cloak.Resource.tag resource)

let migrated_exit_status = -4

let sys_checkpoint t proc =
  match Hashtbl.find_opt t.supervised proc.pid with
  | None -> err Errno.EINVAL
  | Some sup -> (
      let gen = capture_checkpoint t proc sup in
      match sup.migration with
      | None -> Done (Abi.Int gen)
      | Some handler -> (
          (* drain point: the process is quiesced at a syscall boundary and
             the checkpoint just captured is the blob that migrates. The
             handler (the migration driver) runs the whole transfer here —
             the process is stopped for exactly its duration. A handler
             that raises (e.g. Vmm_crash from a channel crash-point)
             unwinds like any power cut. *)
          sup.migration <- None;
          sup.migrations_attempted <- sup.migrations_attempted + 1;
          let blob =
            match sup.checkpoint with Some b -> b | None -> assert false
          in
          match handler blob with
          | Mig_abort ->
              (* graceful abort: nothing was staled; the syscall returns
                 normally and the process keeps running at the source *)
              sup.migrations_aborted <- sup.migrations_aborted + 1;
              Done (Abi.Int gen)
          | Mig_commit ->
              (* the destination owns the process now. The migrated status
                 is deliberately outside the fatal set (-2/-3/137), so the
                 supervisor never respawns this incarnation — the source
                 scrubs and stays fenced. *)
              sup.migrations_completed <- sup.migrations_completed + 1;
              Terminate migrated_exit_status))

(* Auto-cadence: count completed syscalls and capture at the policy's
   interval. Runs inside handle_syscall's containment boundary, so a
   security fault raised mid-capture is contained like any other and the
   supervisor respawns from the last good checkpoint. *)
let maybe_auto_checkpoint t proc =
  match Hashtbl.find_opt t.supervised proc.pid with
  | Some sup when sup.policy.ckpt_every > 0 ->
      sup.syscalls_since <- sup.syscalls_since + 1;
      if sup.syscalls_since >= sup.policy.ckpt_every then (
        try ignore (capture_checkpoint t proc sup)
        with Errno.Error _ ->
          Inject.Audit.record (Cloak.Vmm.audit t.vmm)
            "checkpoint skipped pid=%d" proc.pid)
  | Some _ | None -> ()

(* --- live migration (see Harness.Migrate for the driver) --- *)

let request_migration t ~pid handler =
  match Hashtbl.find_opt t.supervised pid with
  | None -> invalid_arg "Kernel.request_migration: pid not supervised"
  | Some sup -> sup.migration <- Some handler

(* Destination side: install a transferred sealed checkpoint as a fresh
   supervised incarnation. Mirrors the respawn construct, but the blob is
   consumed — its generation is retired at install so a replayed delivery
   (here or at any VMM sharing the journal) raises Stale_checkpoint — and
   a fresh local checkpoint is captured immediately so supervision can
   restart the adopted process without the retired blob. The pid comes
   from the blob and must be free in this kernel: adopt before spawning
   anything else. *)
let adopt_migrated t ?(policy = default_policy) ~prog blob =
  let restored = Cloak.Seal.unseal t.vmm blob in
  let pid =
    match restored.Cloak.Seal.resource with
    | Cloak.Resource.Anon pid -> pid
    | Cloak.Resource.Shm _ ->
        invalid_arg "Kernel.adopt_migrated: not a process checkpoint"
  in
  let proc = alloc_proc ~pid t ~parent:0 ~cloaked:true in
  (* the adopted pid came from the source; fresh spawns here must not
     collide with it *)
  if pid >= t.next_pid then t.next_pid <- pid + 1;
  install_image t proc restored ~consume:true;
  proc.env.incarnation <- 1;
  let sup = supervision ~policy ~prog ~checkpoint:(Some blob) in
  Hashtbl.replace t.supervised pid sup;
  (try ignore (capture_checkpoint t proc sup)
   with Errno.Error _ ->
     Inject.Audit.record (Cloak.Vmm.audit t.vmm)
       "adopt checkpoint skipped pid=%d" pid);
  proc.task <- Some (Start prog);
  enqueue t proc;
  pid

let sys_fork t proc child_prog =
  (* Bring the parent's swapped pages back first so the cloak metadata that
     [clone_cloaked] verifies refers to resident ciphertext. *)
  let swapped = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) proc.swap_map [] in
  List.iter (ensure_resident t proc) swapped;
  let child = alloc_proc t ~parent:proc.pid ~cloaked:proc.env.cloaked in
  (* alloc_proc cloaked the default areas; rebuild them as copies of the
     parent's instead. *)
  if child.env.cloaked then
    List.iter
      (fun (a : area) ->
        if a.cloaked_area && a.pages > 0 then
          Cloak.Vmm.uncloak_range t.vmm ~asid:child.pid ~start_vpn:a.start_vpn)
      child.areas;
  child.areas <-
    List.map (fun (a : area) -> { a with start_vpn = a.start_vpn }) proc.areas;
  child.brk_vpn <- proc.brk_vpn;
  child.mmap_next <- proc.mmap_next;
  List.iter (cloak_area t child) child.areas;
  (* copy resident pages through the kernel's physical view: plaintext
     cloaked pages encrypt on first touch, so the child receives ciphertext *)
  let mappings = ref [] in
  Page_table.iter proc.pt (fun vpn pte -> mappings := (vpn, pte) :: !mappings);
  List.iter
    (fun ((vpn : Addr.vpn), (pte : Page_table.pte)) ->
      ensure_resident t proc vpn;
      let src_ppn =
        match Page_table.lookup proc.pt vpn with
        | Some p -> p.ppn
        | None -> pte.ppn
      in
      let dst_ppn = map_user_page t child vpn in
      let data = Cloak.Vmm.phys_read t.vmm src_ppn ~off:0 ~len:Addr.page_size in
      Cloak.Vmm.phys_write t.vmm dst_ppn ~off:0 data)
    !mappings;
  (* shared file descriptors *)
  Hashtbl.iter
    (fun fd slot ->
      slot.refs <- slot.refs + 1;
      Hashtbl.add child.fds fd slot)
    proc.fds;
  child.next_fd <- proc.next_fd;
  if child.env.cloaked then
    Cloak.Vmm.clone_cloaked t.vmm ~src_asid:proc.pid ~dst_asid:child.pid;
  child.task <- Some (Start child_prog);
  enqueue t child;
  Done (Abi.Int child.pid)

let sys_exec t proc prog cloak =
  (* tear the image down, keep the fd table (POSIX exec semantics);
     scrub cloaked plaintext before the frames are freed — shared
     (protected-object) plaintext is re-encrypted while its ranges are
     still registered *)
  if proc.env.cloaked then Cloak.Vmm.seal_asid_shm t.vmm ~asid:proc.pid;
  List.iter
    (fun (a : area) ->
      if a.cloaked_area && a.pages > 0 then
        Cloak.Vmm.uncloak_range t.vmm ~asid:proc.pid ~start_vpn:a.start_vpn)
    proc.areas;
  if proc.env.cloaked then Cloak.Vmm.uncloak_resource t.vmm (anon_resource proc);
  free_all_memory t proc;
  Cloak.Vmm.flush_asid t.vmm ~asid:proc.pid;
  (* cloaking follows the binary: exec may enter or leave the cloak *)
  (match cloak with Some c -> proc.env.cloaked <- c | None -> ());
  proc.areas <- fresh_areas proc.env.cloaked;
  proc.brk_vpn <- heap_base_vpn;
  proc.mmap_next <- mmap_base_vpn;
  proc.env.heap_base_vaddr <- Addr.vaddr_of_vpn heap_base_vpn;
  proc.env.heap_cursor <- Addr.vaddr_of_vpn heap_base_vpn;
  proc.env.dispatch <- Abi.perform_syscall;
  Hashtbl.reset proc.env.handlers;
  List.iter (cloak_area t proc) proc.areas;
  Replace prog

let exec_call t proc (call : Abi.call) : outcome =
  match call with
  | Getpid -> Done (Abi.Int proc.pid)
  | Getppid -> Done (Abi.Int proc.parent)
  | Yield | Tick -> Done Abi.Unit
  | Exit status -> Terminate status
  | Fork prog -> sys_fork t proc prog
  | Exec { prog; cloak } -> sys_exec t proc prog cloak
  | Wait -> sys_wait t proc
  | Sbrk n -> sys_sbrk t proc n
  | Mmap { pages; cloaked } -> sys_mmap t proc pages cloaked
  | Munmap { start_vpn; pages } -> sys_munmap t proc start_vpn pages
  | Open { path; flags } -> sys_open t proc path flags
  | Close fd -> of_result (Result.map (fun () -> Abi.Unit) (close_fd t proc fd))
  | Read { fd; vaddr; len } -> sys_read t proc fd vaddr len
  | Write { fd; vaddr; len } -> sys_write t proc fd vaddr len
  | Lseek { fd; pos; whence } -> sys_lseek t proc fd pos whence
  | Stat path -> (
      match Fs.lookup t.fs path with
      | Ok inode -> Done (stat_value t inode)
      | Error e -> err e)
  | Fstat fd -> (
      match Hashtbl.find_opt proc.fds fd with
      | Some { obj = File f; _ } -> Done (stat_value t f.inode)
      | Some _ -> err Errno.EINVAL
      | None -> err Errno.EBADF)
  | Unlink path -> of_result (Result.map (fun () -> Abi.Unit) (Fs.unlink t.fs path))
  | Rename { src; dst } ->
      of_result (Result.map (fun () -> Abi.Unit) (Fs.rename t.fs ~src ~dst))
  | Mkdir path -> of_result (Result.map (fun () -> Abi.Unit) (Fs.mkdir t.fs path))
  | Readdir path -> of_result (Result.map (fun l -> Abi.Names l) (Fs.readdir t.fs path))
  | Pipe -> sys_pipe t proc
  | Dup fd -> sys_dup proc fd
  | Kill { pid; signum } -> (
      match Hashtbl.find_opt t.procs pid with
      | Some target when target.state <> Dead ->
          post_signal t target signum;
          Done Abi.Unit
      | Some _ | None -> err Errno.ESRCH)
  | Signal { signum; disposition } ->
      Hashtbl.replace proc.dispositions signum disposition;
      Done Abi.Unit
  | Sync ->
      Fs.sync t.fs;
      Done Abi.Unit
  | Bind_object { fd; resource } -> (
      match Hashtbl.find_opt proc.fds fd with
      | Some { obj = File f; _ } ->
          Fs.bind_resource t.fs ~inode:f.inode resource;
          Done Abi.Unit
      | Some _ -> err Errno.EINVAL
      | None -> err Errno.EBADF)
  | Checkpoint -> sys_checkpoint t proc
  | Fault pf -> (
      Cloak.Vmm.guest_fault_charge t.vmm;
      match resolve_fault t proc pf with
      | `Ok -> Done Abi.Unit
      | `Segv -> Terminate 139)

(* --- the scheduler trampoline --- *)

let enter_fiber t proc task =
  let open Effect.Deep in
  match task with
  | Continue (cont, v) -> continue cont v
  | Raise (cont, e) -> discontinue cont e
  | Start prog ->
      match_with
        (fun () ->
          let rec boot p =
            try
              p proc.env;
              0
            with
            | Abi.Exited status -> status
            | Abi.Exec_replace p' -> boot p'
          in
          boot prog)
        ()
        {
          retc =
            (fun status ->
              match proc.state with
              | Zombie _ | Dead -> ()
              | Runnable | Blocked _ -> do_exit t proc status);
          exnc =
            (fun e ->
              match e with
              | Cloak.Violation.Security_fault v ->
                  ignore (contain_violation t proc v);
                  do_exit t proc security_exit_status
              | Fault.Machine_check msg ->
                  contain_machine_check t proc msg;
                  do_exit t proc machine_check_exit_status
              | Phys_mem.Out_of_memory -> do_exit t proc oom_exit_status
              | User_segv _ -> do_exit t proc 139
              | Errno.Error _ -> do_exit t proc 1
              | e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Abi.Syscall call ->
                  Some
                    (fun (cont : (a, _) continuation) ->
                      proc.pending <- Some (call, cont))
              | _ -> None);
        }

(* Charge the VMM-mediated control-transfer protocol around a cloaked
   process's kernel entry. The context stays saved while the syscall
   blocks, exactly as the paper's cloaked threads do. *)
let transfer_enter t proc =
  if proc.env.cloaked then
    match proc.saved_handle with
    | Some _ -> ()
    | None ->
        let handle, visible =
          Cloak.Transfer.enter_kernel t.transfer t.vmm ~asid:proc.pid ~tid:proc.pid
            ~regs:proc.regs ~exposed:[||]
        in
        ignore visible;
        proc.saved_handle <- Some handle

let transfer_resume t proc =
  if proc.env.cloaked then
    match proc.saved_handle with
    | Some handle ->
        proc.saved_handle <- None;
        let regs =
          Cloak.Transfer.resume t.transfer t.vmm ~asid:proc.pid ~tid:proc.pid ~handle
        in
        proc.regs <- regs
    | None -> ()

let transfer_abandon t proc =
  if proc.env.cloaked then begin
    proc.saved_handle <- None;
    Cloak.Transfer.discard t.transfer ~asid:proc.pid ~tid:proc.pid
  end

let call_name : Abi.call -> string = function
  | Abi.Getpid -> "getpid"
  | Getppid -> "getppid"
  | Yield -> "yield"
  | Tick -> "tick"
  | Exit _ -> "exit"
  | Fork _ -> "fork"
  | Exec _ -> "exec"
  | Wait -> "wait"
  | Sbrk _ -> "sbrk"
  | Mmap _ -> "mmap"
  | Munmap _ -> "munmap"
  | Open _ -> "open"
  | Close _ -> "close"
  | Read _ -> "read"
  | Write _ -> "write"
  | Lseek _ -> "lseek"
  | Stat _ -> "stat"
  | Fstat _ -> "fstat"
  | Unlink _ -> "unlink"
  | Rename _ -> "rename"
  | Mkdir _ -> "mkdir"
  | Readdir _ -> "readdir"
  | Pipe -> "pipe"
  | Dup _ -> "dup"
  | Kill _ -> "kill"
  | Signal _ -> "signal"
  | Sync -> "sync"
  | Bind_object _ -> "bind-object"
  | Checkpoint -> "checkpoint"
  | Fault _ -> "fault"

(* The whole service path — trap, transfer, exec_call, containment — is one
   syscall span; the enter lands while the caller's context is still
   active, the exit after the world switches back. *)
let rec handle_syscall t proc call cont =
  Trace.with_span
    (Cloak.Vmm.trace t.vmm)
    ~pid:proc.pid ~site:(call_name call) Trace.Syscall
    (fun () -> handle_syscall_body t proc call cont)

and handle_syscall_body t proc call cont =
  Cloak.Vmm.switch_to t.vmm (sys_ctx proc);
  (match call with
  | Abi.Tick ->
      Cloak.Vmm.timer_tick t.vmm;
      if proc.env.cloaked then begin
        (* interrupt of cloaked code bounces through the VMM twice *)
        Cloak.Vmm.world_switch t.vmm;
        Cloak.Vmm.world_switch t.vmm;
        Cloak.Vmm.charge t.vmm (2 * (Cost.model (Cloak.Vmm.cost t.vmm)).context_save)
      end
  | Abi.Fault _ -> transfer_enter t proc
  | _ ->
      Cloak.Vmm.syscall_trap t.vmm;
      transfer_enter t proc);
  (* Containment boundary: no fault raised while servicing a syscall —
     whatever path it came through (fs, pipe, fork, mmap, swap) — may
     unwind the run loop. Security faults reach the pid-kill containment
     point; machine-level failures become errors or contained kills. *)
  let outcome =
    try
      let o = exec_call t proc call in
      (match (o, call) with
      | Done _, Abi.Checkpoint -> ()  (* an explicit capture resets cadence *)
      | Done _, _ -> maybe_auto_checkpoint t proc
      | _, _ -> ());
      o
    with
    | User_segv _ -> Terminate 139
    | Errno.Error e -> Done (Abi.Err e)
    | Phys_mem.Out_of_memory ->
        (* machine memory exhausted while servicing the call *)
        Done (Abi.Err Errno.ENOMEM)
    | Blockdev.Io_error _ ->
        (* a transient device error that escaped the retry layers *)
        Done (Abi.Err Errno.EIO)
    | Fault.Machine_check msg ->
        contain_machine_check t proc msg;
        Terminate machine_check_exit_status
    | Cloak.Violation.Security_fault v -> (
        match contain_violation t proc v with
        | `Self -> Terminate security_exit_status
        | `Other ->
            (* another process owned the condemned resource and was killed;
               this caller's syscall merely aborts *)
            Done (Abi.Err Errno.EIO))
  in
  match outcome with
  | Done v -> (
      transfer_resume t proc;
      match deliver_signals proc v with
      | `Value v -> `Continue (Continue (cont, v))
      | `Kill status -> `Continue (Raise (cont, Abi.Exited status)))
  | Blocked_on cond ->
      proc.pending <- Some (call, cont);
      proc.state <- Blocked cond;
      `Park
  | Terminate status ->
      transfer_abandon t proc;
      `Continue (Raise (cont, Abi.Exited status))
  | Replace prog ->
      transfer_resume t proc;
      `Continue (Raise (cont, Abi.Exec_replace prog))

let preempting = function Abi.Tick | Abi.Yield -> true | _ -> false

(* Run one process until it blocks, exits, or is preempted. The fiber
   returns to us at every syscall, so the host stack stays flat. *)
let run_proc t proc first_task =
  let task = ref (Some first_task) in
  let running = ref true in
  while !running do
    (match !task with
    | Some tk ->
        Cloak.Vmm.switch_to t.vmm (app_ctx proc);
        task := None;
        enter_fiber t proc tk
    | None -> ());
    match proc.pending with
    | None -> running := false
    | Some (call, cont) -> (
        proc.pending <- None;
        match handle_syscall t proc call cont with
        | `Park -> running := false
        | `Continue next ->
            if preempting call then begin
              proc.task <- Some next;
              enqueue t proc;
              running := false
            end
            else task := Some next)
  done

let run t =
  let rec loop () =
    match Queue.take_opt t.runq with
    | None ->
        let blocked =
          Hashtbl.fold
            (fun pid proc acc ->
              match proc.state with Blocked _ -> pid :: acc | _ -> acc)
            t.procs []
        in
        if blocked <> [] then
          raise
            (Deadlock
               (Printf.sprintf "no runnable process; blocked pids: %s"
                  (String.concat ", " (List.map string_of_int blocked))))
    | Some pid -> (
        match Hashtbl.find_opt t.procs pid with
        | None -> loop ()
        | Some proc ->
            proc.queued <- false;
            (match proc.state with
            | Runnable -> (
                match (proc.task, proc.pending) with
                | Some tk, _ ->
                    proc.task <- None;
                    run_proc t proc tk
                | None, Some (call, cont) -> (
                    (* woken from a blocking syscall: re-execute it *)
                    proc.pending <- None;
                    match handle_syscall t proc call cont with
                    | `Park -> ()
                    | `Continue next -> run_proc t proc next)
                | None, None -> ())
            | Blocked _ | Zombie _ | Dead -> ());
            loop ())
  in
  loop ()

(* --- supervision introspection (for harnesses) --- *)

type supervision_stats = {
  sup_pid : int;
  sup_restarts : int;
  sup_broken : bool;
  sup_checkpoints : int;
  sup_recovery_cycles : int;
  sup_kill_statuses : int list;  (* oldest first *)
  sup_last_checkpoint : bytes option;
  sup_prev_checkpoint : bytes option;
  sup_migrations_attempted : int;
  sup_migrations_completed : int;
  sup_migrations_aborted : int;
}

let supervision_stats t ~pid =
  match Hashtbl.find_opt t.supervised pid with
  | None -> None
  | Some s ->
      Some
        {
          sup_pid = pid;
          sup_restarts = s.restarts;
          sup_broken = s.broken;
          sup_checkpoints = s.checkpoints;
          sup_recovery_cycles = s.recovery_cycles;
          sup_kill_statuses = List.rev s.kill_statuses;
          sup_last_checkpoint = s.checkpoint;
          sup_prev_checkpoint = s.prev_checkpoint;
          sup_migrations_attempted = s.migrations_attempted;
          sup_migrations_completed = s.migrations_completed;
          sup_migrations_aborted = s.migrations_aborted;
        }
