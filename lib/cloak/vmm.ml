open Machine

type config = {
  multi_shadow : bool;
  clean_reencrypt : bool;
  mem_pages : int;
  tlb_slots : int;
  cost_model : Cost.model;
  seed : int;
}

let default_config =
  {
    multi_shadow = true;
    clean_reencrypt = true;
    mem_pages = 16384;
    tlb_slots = 256;
    cost_model = Cost.default;
    seed = 0xC10A5ED;
  }

type range = {
  start_vpn : Addr.vpn;
  pages : int;
  resource : Resource.t;
  base_idx : int;
}

type spte = { mpn : Addr.mpn; writable : bool }

type shadow_key = int * Context.view

type t = {
  cfg : config;
  mem : Phys_mem.t;
  cost : Cost.t;
  trace : Trace.t;  (* flight recorder; Trace.null unless the host opts in *)
  counters : Counters.t;
  tlb : Tlb.t;
  page_key : Oscrypto.Aes.key;   (* VMM secret: page encryption *)
  mac_key : bytes;               (* VMM secret: metadata authentication *)
  prng : Oscrypto.Prng.t;
  pmap : (Addr.ppn, Addr.mpn) Hashtbl.t;
  page_tables : (int, Page_table.t) Hashtbl.t;
  shadows : (shadow_key, (Addr.vpn, spte) Hashtbl.t) Hashtbl.t;
  shadow_ids : (shadow_key, int) Hashtbl.t;
  mutable next_shadow_id : int;
  meta : Metadata.t;
  ranges : (int, range list ref) Hashtbl.t;        (* asid -> placements *)
  bound : (Addr.ppn, Resource.t * int) Hashtbl.t;  (* physmap cloak lookups *)
  generations : (int, int) Hashtbl.t;              (* shm id -> freshness *)
  seal_gens : (string, int) Hashtbl.t;             (* resource tag -> seal freshness *)
  mutable next_shm : int;
  mutable current : Context.t option;
  mutable journal : Journal.t option;  (* crash-consistent metadata WAL *)
  engine : Inject.t option;            (* hostile-world fault injection *)
  audit : Inject.Audit.t;              (* per-VMM event/violation trail *)
  quarantined : (Resource.t, Violation.kind) Hashtbl.t;
  (* last *superseded* {version, iv, mac} per page: lets the decrypt path
     tell a replayed stale ciphertext apart from plain corruption *)
  retired : (string * int, int * bytes * bytes) Hashtbl.t;
  (* observer of shadow fills (asid, vpn, ppn, mpn, cloaked): the
     adversarial-OS personality uses it to learn where cloaked pages land *)
  mutable map_observer :
    (asid:int -> vpn:Addr.vpn -> ppn:Addr.ppn -> mpn:Addr.mpn -> cloaked:bool -> unit)
    option;
}

let create ?(config = default_config) ?engine ?(trace = Trace.null) () =
  let prng = Oscrypto.Prng.create ~seed:config.seed in
  let cost = Cost.create ~model:config.cost_model () in
  (* the flight recorder stamps events with the deterministic model clock,
     never wall time — same seed, same trace *)
  Trace.set_clock trace (fun () -> Cost.cycles cost);
  let mem = Phys_mem.create ?engine ~pages:config.mem_pages () in
  Phys_mem.set_trace mem trace;
  {
    cfg = config;
    mem;
    cost;
    trace;
    counters = Counters.create ();
    tlb = Tlb.create ?engine ~slots:config.tlb_slots ();
    page_key = Oscrypto.Aes.expand (Oscrypto.Prng.bytes prng 16);
    mac_key = Oscrypto.Prng.bytes prng 32;
    prng;
    pmap = Hashtbl.create 1024;
    page_tables = Hashtbl.create 16;
    shadows = Hashtbl.create 16;
    shadow_ids = Hashtbl.create 16;
    next_shadow_id = 0;
    meta = Metadata.create ();
    ranges = Hashtbl.create 16;
    bound = Hashtbl.create 256;
    generations = Hashtbl.create 16;
    seal_gens = Hashtbl.create 8;
    next_shm = 1;
    current = None;
    journal = None;
    engine;
    audit =
      (match engine with
      | Some e -> Inject.audit e
      | None -> Inject.Audit.create ());
    quarantined = Hashtbl.create 4;
    retired = Hashtbl.create 64;
    map_observer = None;
  }

let set_map_observer t obs = t.map_observer <- obs

let config t = t.cfg
let cost t = t.cost
let counters t = t.counters
let mem t = t.mem
let engine t = t.engine
let audit t = t.audit
let trace t = t.trace

(* Payload strings are only worth building when a live sink will keep
   them; the null path must stay allocation-free. *)
let rtag t resource = if Trace.enabled t.trace then Resource.tag resource else ""

(* --- crash-consistent metadata journal --- *)

let journal t = t.journal

(* The journal key is derived from (not equal to) the metadata MAC key, so
   journal frames and metadata blobs live in separate MAC domains while
   still being reproducible from the VMM seed after a restart. *)
let journal_key t = Oscrypto.Hmac.mac ~key:t.mac_key (Bytes.of_string "journal-key")

(* Sealed checkpoints live in their own MAC domain, derived like the
   journal key so a rebooted same-seed VMM can still authenticate them. *)
let seal_key t = Oscrypto.Hmac.mac ~key:t.mac_key (Bytes.of_string "seal-key")

let attach_journal ?ckpt_every t ~store =
  let j =
    Journal.attach ?engine:t.engine ~trace:t.trace ?ckpt_every
      ~key:(journal_key t) store
  in
  t.journal <- Some j;
  (* inherit the seal freshness the journal proved durable, so checkpoints
     sealed before a crash cannot be replayed as fresh after it; the trace
     records the inherited bump so a later restore is provably ordered *)
  Hashtbl.iter
    (fun tag gen ->
      match Hashtbl.find_opt t.seal_gens tag with
      | Some cur when cur >= gen -> ()
      | _ ->
          Hashtbl.replace t.seal_gens tag gen;
          Trace.emit t.trace ~ctx:Trace.Vmm ~site:tag ~aux:gen Trace.Seal_gen_bump)
    (Journal.state j).Journal.seals;
  j

(* Journal a fresh encryption of a persistent (shm) page. This runs before
   the new ciphertext can reach any device, so recovery always holds the
   metadata needed to verify whatever the guest later made durable. Anon
   resources die with the VMM and are never journaled. *)
let journal_update t resource idx (e : Metadata.entry) =
  match (t.journal, resource) with
  | Some j, Resource.Shm _ ->
      Journal.record j
        (Update
           {
             tag = Resource.tag resource;
             idx;
             version = e.version;
             iv = Bytes.copy e.iv;
             mac = Bytes.copy e.mac;
           })
  | _ -> ()

let journal_bind t phase ~resource ~idx ~dev ~block =
  match (t.journal, resource) with
  | Some j, Resource.Shm _ ->
      let tag = Resource.tag resource in
      if Journal.knows j ~tag ~idx then
        Journal.record j
          (match phase with
          | `Intent -> Journal.Intent { tag; idx; dev; block }
          | `Commit -> Journal.Commit { tag; idx; dev; block })
  | _ -> ()

let journal_dma t phase ppn ~dev ~block =
  match Hashtbl.find_opt t.bound ppn with
  | Some (resource, idx) -> journal_bind t phase ~resource ~idx ~dev ~block
  | None -> ()

let journal_file_intent t ~resource ~idx ~dev ~block =
  journal_bind t `Intent ~resource ~idx ~dev ~block

let journal_file_commit t ~resource ~idx ~dev ~block =
  journal_bind t `Commit ~resource ~idx ~dev ~block

let journal_block_freed t ~dev ~block =
  match t.journal with
  | Some j when Journal.references_block j ~dev ~block ->
      Journal.record j (Freed { dev; block })
  | Some _ | None -> ()

let journal_drop_page t resource idx =
  match (t.journal, resource) with
  | Some j, Resource.Shm _ ->
      let tag = Resource.tag resource in
      if Journal.knows j ~tag ~idx then
        Journal.record j (Dropped_page { tag; idx })
  | _ -> ()

let journal_drop_resource t resource =
  match (t.journal, resource) with
  | Some j, Resource.Shm _ ->
      let tag = Resource.tag resource in
      let tracked =
        Hashtbl.fold
          (fun (tg, _) _ acc -> acc || tg = tag)
          (Journal.state j).Journal.pages false
      in
      if tracked then Journal.record j (Dropped_resource { tag })
  | _ -> ()

(* Detection: record the violation in the audit trail and counters, then
   raise. Every integrity check in the cloaking engine funnels through
   here so the audit log is a complete, deterministic account of what the
   hostile world did and when it was caught. *)
let violate t ?resource kind fmt =
  Format.kasprintf
    (fun detail ->
      t.counters.violations <- t.counters.violations + 1;
      Inject.Audit.record t.audit "violation [%s]%s %s"
        (Violation.kind_to_string kind)
        (match resource with
        | Some r -> " resource=" ^ Resource.tag r
        | None -> "")
        detail;
      raise (Violation.Security_fault { kind; detail; resource }))
    fmt

(* --- charging helpers --- *)

let charge t n = Cost.charge t.cost n

let charge_copy t ~bytes_count =
  charge t ((Cost.model t.cost).copy_word * ((bytes_count + 7) / 8));
  t.counters.bytes_copied <- t.counters.bytes_copied + bytes_count

(* The boundary-crossing charges double as trace spans: enter before the
   charge, exit after, so each span's latency is exactly the model cost it
   contributed — the per-class totals reconstruct the E4 decomposition. *)

let hypercall t =
  Trace.span_enter t.trace Trace.Hypercall;
  t.counters.hypercalls <- t.counters.hypercalls + 1;
  charge t (Cost.model t.cost).hypercall;
  Trace.span_exit t.trace Trace.Hypercall

let world_switch t =
  Trace.span_enter t.trace Trace.World_switch;
  t.counters.world_switches <- t.counters.world_switches + 1;
  charge t (Cost.model t.cost).world_switch;
  Trace.span_exit t.trace Trace.World_switch

let syscall_trap t =
  Trace.span_enter t.trace Trace.Syscall_trap;
  t.counters.syscalls <- t.counters.syscalls + 1;
  charge t (Cost.model t.cost).syscall_trap;
  Trace.span_exit t.trace Trace.Syscall_trap

let timer_tick t =
  t.counters.timer_ticks <- t.counters.timer_ticks + 1;
  charge t (Cost.model t.cost).timer_interrupt

let guest_fault_charge t =
  Trace.span_enter t.trace Trace.Guest_fault;
  t.counters.guest_faults <- t.counters.guest_faults + 1;
  charge t (Cost.model t.cost).guest_fault;
  Trace.span_exit t.trace Trace.Guest_fault

let hidden_fault t =
  Trace.span_enter t.trace Trace.Hidden_fault;
  t.counters.hidden_faults <- t.counters.hidden_faults + 1;
  charge t (Cost.model t.cost).hidden_fault;
  Trace.span_exit t.trace Trace.Hidden_fault

(* --- address spaces --- *)

let register_address_space t pt = Hashtbl.replace t.page_tables (Page_table.asid pt) pt

let page_table t ~asid = Hashtbl.find t.page_tables asid

(* --- shadows --- *)

let shadow_key (ctx : Context.t) : shadow_key = (ctx.asid, ctx.view)

let shadow t ctx =
  let key = shadow_key ctx in
  match Hashtbl.find_opt t.shadows key with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 64 in
      Hashtbl.add t.shadows key table;
      table

let shadow_id t ctx =
  let key = shadow_key ctx in
  match Hashtbl.find_opt t.shadow_ids key with
  | Some id -> id
  | None ->
      let id = t.next_shadow_id in
      t.next_shadow_id <- id + 1;
      Hashtbl.add t.shadow_ids key id;
      id

let drop_shadow t key =
  (match Hashtbl.find_opt t.shadow_ids key with
  | Some id -> Tlb.flush_shadow t.tlb ~shadow:id
  | None -> ());
  Hashtbl.remove t.shadows key

(* --- guest physical backing --- *)

let back_ppn t ppn =
  match Hashtbl.find_opt t.pmap ppn with
  | Some mpn -> mpn
  | None ->
      let mpn = Phys_mem.alloc t.mem in
      Hashtbl.add t.pmap ppn mpn;
      mpn

let release_ppn t ppn =
  match Hashtbl.find_opt t.pmap ppn with
  | None -> ()
  | Some mpn ->
      (* trusted reclamation shootdown: no translation to this frame — TLB
         or shadow PTE — may survive its reuse, even if the guest lost an
         INVLPG *)
      Tlb.flush_mpn t.tlb ~mpn;
      Hashtbl.iter
        (fun _ table ->
          let stale =
            Hashtbl.fold
              (fun vpn spte acc -> if spte.mpn = mpn then vpn :: acc else acc)
              table []
          in
          List.iter (Hashtbl.remove table) stale)
        t.shadows;
      Phys_mem.free t.mem mpn;
      Hashtbl.remove t.pmap ppn;
      Hashtbl.remove t.bound ppn

(* --- cloaking ranges --- *)

let ranges_of t asid =
  match Hashtbl.find_opt t.ranges asid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.ranges asid l;
      l

let cloak_range t ~asid ~resource ~start_vpn ~pages ~base_idx =
  if pages <= 0 then invalid_arg "Vmm.cloak_range: pages must be positive";
  let l = ranges_of t asid in
  let overlaps r =
    start_vpn < r.start_vpn + r.pages && r.start_vpn < start_vpn + pages
  in
  if List.exists overlaps !l then
    invalid_arg "Vmm.cloak_range: overlapping cloaked range";
  l := { start_vpn; pages; resource; base_idx } :: !l

let uncloak_range t ~asid ~start_vpn =
  let l = ranges_of t asid in
  l := List.filter (fun r -> r.start_vpn <> start_vpn) !l

let resource_at t ~asid ~vpn =
  match Hashtbl.find_opt t.ranges asid with
  | None -> None
  | Some l ->
      List.find_map
        (fun r ->
          if vpn >= r.start_vpn && vpn < r.start_vpn + r.pages then
            Some (r.resource, r.base_idx + (vpn - r.start_vpn))
          else None)
        !l

let iter_placements t resource idx f =
  Hashtbl.iter
    (fun asid l ->
      List.iter
        (fun r ->
          if
            Resource.equal r.resource resource
            && idx >= r.base_idx
            && idx < r.base_idx + r.pages
          then f asid (r.start_vpn + (idx - r.base_idx)))
        !l)
    t.ranges

(* Remove every mapping of a cloaked page from the given view's shadows: the
   page just changed representation, so stale translations in the other
   view must never survive the transition. *)
let unmap_view t resource idx view =
  iter_placements t resource idx (fun asid vpn ->
      (match Hashtbl.find_opt t.shadows (asid, view) with
      | Some table -> Hashtbl.remove table vpn
      | None -> ());
      Tlb.flush_vpn t.tlb ~vpn)

let fresh_shm t =
  let id = t.next_shm in
  t.next_shm <- id + 1;
  Resource.Shm id

(* An address space with no cloaked ranges needs no view distinction: its
   kernel (Sys) accesses share the App shadow, so uncloaked processes pay no
   extra VMM crossings on ring transitions — the fair baseline the paper
   measures against. *)
let cloak_active t asid =
  match Hashtbl.find_opt t.ranges asid with Some l -> !l <> [] | None -> false

let effective t (ctx : Context.t) =
  if ctx.view = Context.Sys && not (cloak_active t ctx.asid) then Context.app ctx.asid
  else ctx

(* --- the cloaking engine: page transitions --- *)

let page_bytes t mpn = Phys_mem.page t.mem mpn

let rec encrypt_page ?(reuse = false) t resource idx (e : Metadata.entry) mpn =
  Trace.span_enter t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn ~site:(rtag t resource)
    ~aux:e.version Trace.Page_encrypt;
  (match encrypt_page_body ~reuse t resource idx e mpn with
  | () ->
      Trace.span_exit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn
        ~site:(rtag t resource) ~aux:e.version Trace.Page_encrypt
  | exception ex ->
      Trace.span_abort t.trace Trace.Page_encrypt;
      raise ex);
  unmap_view t resource idx Context.App

and encrypt_page_body ~reuse t resource idx (e : Metadata.entry) mpn =
  let plain = page_bytes t mpn in
  if reuse then begin
    (* the page is unmodified since its last encryption: CTR with the same
       IV reproduces the exact prior ciphertext, so iv/mac/version stay
       valid and no MAC needs recomputing (the paper's read-only plaintext
       optimization) *)
    let cipher = Oscrypto.Aes.ctr_transform t.page_key ~iv:e.iv plain in
    Phys_mem.load_page t.mem mpn cipher;
    e.state <- Encrypted;
    t.counters.clean_reencryptions <- t.counters.clean_reencryptions + 1;
    Cost.charge_crypto_page t.cost ~bytes_count:Addr.page_size ~hash:false
  end
  else begin
    let iv =
      match Inject.fire_opt t.engine Inject.Crypto_iv with
      | Some Inject.Reuse_iv when Bytes.length e.iv = 16 -> Bytes.copy e.iv
      | Some _ | None -> Oscrypto.Prng.bytes t.prng 16
    in
    (* CTR under a repeated IV would hand the OS the XOR of two plaintexts;
       a fresh encryption must never reuse the previous IV. (The [reuse]
       branch above is exempt: it reproduces an identical ciphertext.) *)
    if e.version > 0 && Bytes.equal iv e.iv then
      violate t ~resource Iv_reuse
        "fresh encryption of page %d of %s drew its previous IV" idx
        (Resource.tag resource);
    let version = e.version + 1 in
    let cipher = Oscrypto.Aes.ctr_transform t.page_key ~iv plain in
    Phys_mem.load_page t.mem mpn cipher;
    (* the triple being superseded still authenticates its old ciphertext;
       remember it so a later replay of that ciphertext is named as such *)
    if e.version > 0 then
      Hashtbl.replace t.retired
        (Resource.tag resource, idx)
        (e.version, Bytes.copy e.iv, Bytes.copy e.mac);
    e.iv <- iv;
    e.version <- version;
    e.mac <-
      Oscrypto.Hmac.mac ~key:t.mac_key
        (Metadata.mac_input ~resource ~idx ~version ~iv ~cipher);
    e.state <- Encrypted;
    journal_update t resource idx e;
    t.counters.page_encryptions <- t.counters.page_encryptions + 1;
    t.counters.hash_computes <- t.counters.hash_computes + 1;
    Cost.charge_crypto_page t.cost ~bytes_count:Addr.page_size ~hash:true
  end

(* The one page-MAC check: does [cipher] authenticate as this version of
   the page? Pure — callers keep their own counter bumps, charges and
   trace events. *)
let verify_cipher t ~resource ~idx ~version ~iv ~mac ~cipher =
  Oscrypto.Hmac.verify ~key:t.mac_key ~tag:mac
    (Metadata.mac_input ~resource ~idx ~version ~iv ~cipher)

(* Does [cipher] match the entry's authenticated {iv,mac,version}? Used by
   checkpoint capture to refuse sealing a frame the (hostile) RAM tore or
   flipped after encryption — the blob may only ever hold bytes the VMM
   has authenticated, never raw frame residue. *)
let authenticate_cipher t resource idx (e : Metadata.entry) ~cipher =
  t.counters.hash_checks <- t.counters.hash_checks + 1;
  Cost.charge_crypto_page t.cost ~bytes_count:Addr.page_size ~hash:true;
  let ok =
    verify_cipher t ~resource ~idx ~version:e.version ~iv:e.iv ~mac:e.mac ~cipher
  in
  if ok then
    Trace.emit t.trace ~ctx:Trace.Vmm ~page:idx ~site:(rtag t resource)
      ~aux:e.version Trace.Mac_check;
  ok

let rec decrypt_page t resource idx (e : Metadata.entry) mpn =
  Trace.span_enter t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn ~site:(rtag t resource)
    ~aux:e.version Trace.Page_decrypt;
  (match decrypt_page_body t resource idx e mpn with
  | () ->
      Trace.span_exit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn
        ~site:(rtag t resource) ~aux:e.version Trace.Page_decrypt
  | exception ex ->
      Trace.span_abort t.trace Trace.Page_decrypt;
      raise ex);
  unmap_view t resource idx Context.Sys

and decrypt_page_body t resource idx (e : Metadata.entry) mpn =
  let cipher = Bytes.copy (page_bytes t mpn) in
  t.counters.hash_checks <- t.counters.hash_checks + 1;
  Cost.charge_crypto_page t.cost ~bytes_count:Addr.page_size ~hash:true;
  if not (verify_cipher t ~resource ~idx ~version:e.version ~iv:e.iv ~mac:e.mac ~cipher)
  then begin
    (* distinguish a replayed stale ciphertext (authenticates under the
       *retired* triple) from plain corruption: both are refused, but the
       audit trail names the attack *)
    let replayed =
      match Hashtbl.find_opt t.retired (Resource.tag resource, idx) with
      | Some (version, iv, mac) -> verify_cipher t ~resource ~idx ~version ~iv ~mac ~cipher
      | None -> false
    in
    if replayed then
      violate t ~resource Integrity
        "page %d of %s is a replayed stale ciphertext (current version %d)"
        idx (Resource.tag resource) e.version
    else
      violate t ~resource Integrity
        "page %d of %s fails authentication at version %d (tampered or rolled back)"
        idx (Resource.tag resource) e.version
  end;
  Trace.emit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn ~site:(rtag t resource)
    ~aux:e.version Trace.Mac_check;
  let plain = Oscrypto.Aes.ctr_transform t.page_key ~iv:e.iv cipher in
  Phys_mem.load_page t.mem mpn plain;
  e.state <- Plain { home = mpn; clean = t.cfg.clean_reencrypt };
  t.counters.page_decryptions <- t.counters.page_decryptions + 1

(* Bring a cloaked page into the representation required by [view], raising
   a security fault when the OS has moved, discarded or corrupted it.
   Returns whether the resulting App mapping may be writable: clean
   plaintext maps read-only so the first write traps back here. *)
let cloak_prepare t ~(view : Context.view) ~(access : Fault.access) ~resource ~idx ~mpn =
  let e = Metadata.find_or_add t.meta resource idx in
  match (view, e.state) with
  | Context.App, Metadata.Zero ->
      Bytes.fill (page_bytes t mpn) 0 Addr.page_size '\000';
      e.state <- Plain { home = mpn; clean = false };
      Trace.emit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:mpn
        ~site:(rtag t resource) Trace.Page_zero;
      true
  | Context.App, Plain ({ home; _ } as p) ->
      if home <> mpn then
        if Phys_mem.allocated t.mem home then
          violate t ~resource Relocation
            "plaintext page %d of %s expected at MPN %d but surfaced at MPN %d"
            idx (Resource.tag resource) home mpn
        else
          violate t ~resource Lost_plaintext
            "plaintext page %d of %s was discarded by the OS before encryption"
            idx (Resource.tag resource);
      if p.clean && access = Fault.Write then p.clean <- false;
      not p.clean
  | Context.App, Encrypted ->
      hidden_fault t;
      decrypt_page t resource idx e mpn;
      (match e.state with
      | Plain p when access = Fault.Write -> p.clean <- false
      | Plain _ | Zero | Encrypted -> ());
      (match e.state with Plain p -> not p.clean | Zero | Encrypted -> true)
  | Context.Sys, Metadata.Zero ->
      hidden_fault t;
      Bytes.fill (page_bytes t mpn) 0 Addr.page_size '\000';
      encrypt_page t resource idx e mpn;
      true
  | Context.Sys, Plain { home; clean } ->
      hidden_fault t;
      if home <> mpn then
        violate t ~resource Relocation
          "system view of plaintext page %d of %s at wrong MPN (%d, home %d)"
          idx (Resource.tag resource) mpn home;
      encrypt_page ~reuse:(clean && t.cfg.clean_reencrypt) t resource idx e mpn;
      true
  | Context.Sys, Encrypted -> true

(* --- translation --- *)

let rec fill t (ctx : Context.t) access vpn table sid =
  Trace.span_enter t.trace ~page:vpn Trace.Shadow_fill;
  match fill_body t ctx access vpn table sid with
  | mpn ->
      Trace.span_exit t.trace ~page:vpn ~pid:mpn Trace.Shadow_fill;
      mpn
  | exception ex ->
      (* guest faults unwind through here routinely; drop the open span so
         a later fill cannot pair against it *)
      Trace.span_abort t.trace Trace.Shadow_fill;
      raise ex

and fill_body t (ctx : Context.t) access vpn table sid =
  t.counters.shadow_walks <- t.counters.shadow_walks + 1;
  (* constructing a shadow entry is a VMM trap, much costlier than the
     hardware walk already charged by [translate] *)
  charge t (Cost.model t.cost).shadow_fill;
  let pt =
    match Hashtbl.find_opt t.page_tables ctx.asid with
    | Some pt -> pt
    | None -> invalid_arg (Printf.sprintf "Vmm: asid %d has no page table" ctx.asid)
  in
  match Page_table.lookup pt vpn with
  | None -> Fault.guest_fault vpn access Not_present
  | Some pte ->
      if ctx.view = App && not pte.user then
        Fault.guest_fault vpn access Protection;
      if access = Fault.Write && not pte.writable then
        Fault.guest_fault vpn access Protection;
      pte.accessed <- true;
      if access = Fault.Write then pte.dirty <- true;
      let mpn = back_ppn t pte.ppn in
      let cloaked_fill = ref false in
      let writable_cap =
        match resource_at t ~asid:ctx.asid ~vpn with
        | Some (resource, idx) ->
            cloaked_fill := true;
            Hashtbl.replace t.bound pte.ppn (resource, idx);
            let cap = cloak_prepare t ~view:ctx.view ~access ~resource ~idx ~mpn in
            (* the shadow entry built below hands this context plaintext;
               the invariant pass asserts only owners ever get one, and that
               the frame (aux = mpn+1) holds no other page's plaintext *)
            if ctx.view = Context.App && Trace.enabled t.trace then
              Trace.emit t.trace ~ctx:(Trace.Cloaked ctx.asid) ~page:idx
                ~pid:(match resource with Resource.Anon a -> a | Shm _ -> -1)
                ~site:(rtag t resource) ~aux:(mpn + 1) Trace.Plaintext_access;
            cap
        | None -> true
      in
      (match t.map_observer with
      | Some obs ->
          obs ~asid:ctx.asid ~vpn ~ppn:pte.ppn ~mpn ~cloaked:!cloaked_fill
      | None -> ());
      let spte = { mpn; writable = pte.writable && writable_cap } in
      Hashtbl.replace table vpn spte;
      Tlb.insert t.tlb { shadow = sid; vpn; mpn; writable = spte.writable };
      mpn

let translate t ~ctx ~access ~vpn =
  let ctx = effective t ctx in
  let sid = shadow_id t ctx in
  match Tlb.lookup t.tlb ~shadow:sid ~vpn with
  | Some e when access = Fault.Read || e.writable ->
      t.counters.tlb_hits <- t.counters.tlb_hits + 1;
      e.mpn
  | Some _ | None -> (
      t.counters.tlb_misses <- t.counters.tlb_misses + 1;
      Trace.span_enter t.trace ~page:vpn Trace.Shadow_walk;
      charge t (Cost.model t.cost).shadow_walk;
      Trace.span_exit t.trace ~page:vpn Trace.Shadow_walk;
      let table = shadow t ctx in
      match Hashtbl.find_opt table vpn with
      | Some spte when access = Fault.Read || spte.writable ->
          Tlb.insert t.tlb { shadow = sid; vpn; mpn = spte.mpn; writable = spte.writable };
          spte.mpn
      | Some _ | None -> fill t ctx access vpn table sid)

(* --- virtual access --- *)

let iter_segments vaddr len f =
  let pos = ref 0 in
  while !pos < len do
    let va = vaddr + !pos in
    let vpn = Addr.vpn_of_vaddr va in
    let off = Addr.offset_of_vaddr va in
    let chunk = min (Addr.page_size - off) (len - !pos) in
    f ~vpn ~off ~pos:!pos ~chunk;
    pos := !pos + chunk
  done

let read t ~ctx ~vaddr ~len =
  let out = Bytes.create len in
  iter_segments vaddr len (fun ~vpn ~off ~pos ~chunk ->
      let mpn = translate t ~ctx ~access:Fault.Read ~vpn in
      Bytes.blit (page_bytes t mpn) off out pos chunk;
      charge t ((Cost.model t.cost).mem_access * ((chunk + 7) / 8)));
  out

let write t ~ctx ~vaddr data =
  let len = Bytes.length data in
  iter_segments vaddr len (fun ~vpn ~off ~pos ~chunk ->
      let mpn = translate t ~ctx ~access:Fault.Write ~vpn in
      Bytes.blit data pos (page_bytes t mpn) off chunk;
      charge t ((Cost.model t.cost).mem_access * ((chunk + 7) / 8)))

let read_byte t ~ctx ~vaddr =
  let mpn = translate t ~ctx ~access:Fault.Read ~vpn:(Addr.vpn_of_vaddr vaddr) in
  charge t (Cost.model t.cost).mem_access;
  Phys_mem.get_byte t.mem mpn ~off:(Addr.offset_of_vaddr vaddr)

let write_byte t ~ctx ~vaddr v =
  let mpn = translate t ~ctx ~access:Fault.Write ~vpn:(Addr.vpn_of_vaddr vaddr) in
  charge t (Cost.model t.cost).mem_access;
  Phys_mem.set_byte t.mem mpn ~off:(Addr.offset_of_vaddr vaddr) v

let touch t ~ctx ~access ~vaddr ~len =
  iter_segments vaddr len (fun ~vpn ~off:_ ~pos:_ ~chunk ->
      ignore (translate t ~ctx ~access ~vpn);
      charge t ((Cost.model t.cost).mem_access * ((chunk + 7) / 8)))

(* --- physmap access (kernel / DMA view of guest-physical pages) --- *)

let phys_view t ppn =
  let mpn = back_ppn t ppn in
  (match Hashtbl.find_opt t.bound ppn with
  | None -> ()
  | Some (resource, idx) -> (
      match Metadata.find t.meta resource idx with
      | None -> Hashtbl.remove t.bound ppn
      | Some e -> (
          match e.state with
          | Plain { home; clean } when home = mpn ->
              hidden_fault t;
              encrypt_page ~reuse:(clean && t.cfg.clean_reencrypt) t resource idx e mpn
          | Plain _ | Zero -> Hashtbl.remove t.bound ppn
          | Encrypted -> ())));
  mpn

let phys_read t ppn ~off ~len =
  let mpn = phys_view t ppn in
  charge_copy t ~bytes_count:len;
  Phys_mem.read t.mem mpn ~off ~len

let phys_write t ppn ~off data =
  let mpn = phys_view t ppn in
  charge_copy t ~bytes_count:(Bytes.length data);
  Phys_mem.write t.mem mpn ~off data

(* --- shadow / TLB maintenance --- *)

let invlpg t ~asid ~vpn =
  List.iter
    (fun view ->
      match Hashtbl.find_opt t.shadows (asid, view) with
      | Some table -> Hashtbl.remove table vpn
      | None -> ())
    [ Context.App; Context.Sys ];
  Tlb.guest_flush_vpn t.tlb ~vpn

let flush_asid t ~asid =
  drop_shadow t (asid, Context.App);
  drop_shadow t (asid, Context.Sys)

let destroy_address_space t ~asid =
  flush_asid t ~asid;
  Hashtbl.remove t.page_tables asid;
  Hashtbl.remove t.ranges asid

let switch_to t ctx =
  let ctx = effective t ctx in
  match t.current with
  | Some c when Context.equal c ctx -> ()
  | _ ->
      t.current <- Some ctx;
      Trace.set_ctx t.trace
        (if ctx.view = Context.App && cloak_active t ctx.asid then
           Trace.Cloaked ctx.asid
         else Trace.Kernel);
      t.counters.context_switches <- t.counters.context_switches + 1;
      world_switch t;
      if not t.cfg.multi_shadow then begin
        (* A single-shadow VMM has exactly one hardware shadow: switching
           contexts discards all derived translations. *)
        Hashtbl.clear t.shadows;
        Tlb.flush_all t.tlb
      end

(* --- resource lifecycle --- *)

let uncloak_resource t resource =
  journal_drop_resource t resource;
  Metadata.iter_resource t.meta resource (fun idx e ->
      match e.state with
      | Plain { home; _ } when Phys_mem.allocated t.mem home ->
          Bytes.fill (page_bytes t home) 0 Addr.page_size '\000';
          Trace.emit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:home
            ~site:(rtag t resource) Trace.Frame_scrub
      | Plain _ | Zero | Encrypted -> ());
  Metadata.drop_resource t.meta resource;
  Hashtbl.iter
    (fun _asid l -> l := List.filter (fun r -> not (Resource.equal r.resource resource)) !l)
    t.ranges;
  let stale =
    Hashtbl.fold
      (fun ppn (r, _) acc -> if Resource.equal r resource then ppn :: acc else acc)
      t.bound []
  in
  List.iter (Hashtbl.remove t.bound) stale

(* Fault containment: a security fault condemns exactly one protected
   resource. Scrub its plaintext homes, drop its metadata and placements,
   and remember it as condemned — the guest and every other cloaked
   resource keep running. *)
let quarantine t resource kind =
  if not (Hashtbl.mem t.quarantined resource) then begin
    Hashtbl.replace t.quarantined resource kind;
    t.counters.quarantines <- t.counters.quarantines + 1;
    Inject.Audit.record t.audit "quarantine resource=%s after [%s]"
      (Resource.tag resource)
      (Violation.kind_to_string kind);
    Trace.emit t.trace ~ctx:Trace.Vmm ~site:(rtag t resource) Trace.Quarantine;
    uncloak_resource t resource
  end

let is_quarantined t resource = Hashtbl.mem t.quarantined resource

(* Supervised restart: once the condemned incarnation is fully torn down
   (plaintext scrubbed, metadata dropped), the resource identity may be
   reused by a respawn restored from a sealed checkpoint. *)
let absolve t resource =
  if Hashtbl.mem t.quarantined resource then begin
    Hashtbl.remove t.quarantined resource;
    Inject.Audit.record t.audit "absolve resource=%s (supervised respawn)"
      (Resource.tag resource)
  end

let drop_cloaked_pages t resource ~base_idx ~pages =
  for idx = base_idx to base_idx + pages - 1 do
    journal_drop_page t resource idx;
    (match Metadata.find t.meta resource idx with
    | Some { state = Plain { home; _ }; _ } when Phys_mem.allocated t.mem home ->
        Bytes.fill (page_bytes t home) 0 Addr.page_size '\000';
        Trace.emit t.trace ~ctx:Trace.Vmm ~page:idx ~pid:home
          ~site:(rtag t resource) Trace.Frame_scrub
    | Some _ | None -> ());
    Metadata.remove t.meta resource idx
  done

let seal_resource t resource =
  Metadata.iter_resource t.meta resource (fun idx e ->
      match e.state with
      | Plain { home; clean } ->
          hidden_fault t;
          encrypt_page ~reuse:(clean && t.cfg.clean_reencrypt) t resource idx e home
      | Zero | Encrypted -> ())

(* A dying (or exec-ing) cloaked address space may hold protected-object
   (shm) plaintext in guest frames the kernel is about to free. Re-encrypt
   it in place: the object's durable representation survives (it may be
   mapped elsewhere or re-opened later), and frame remanence can only ever
   expose ciphertext. The per-process anon resource is scrubbed separately
   by [uncloak_resource]; quarantined resources were already scrubbed when
   they were condemned. *)
let seal_asid_shm t ~asid =
  match Hashtbl.find_opt t.ranges asid with
  | None -> ()
  | Some l ->
      let seen = Hashtbl.create 4 in
      List.iter
        (fun r ->
          match r.resource with
          | Resource.Shm _
            when (not (Hashtbl.mem seen r.resource))
                 && not (Hashtbl.mem t.quarantined r.resource) ->
              Hashtbl.add seen r.resource ();
              seal_resource t r.resource
          | Resource.Shm _ | Resource.Anon _ -> ())
        !l

let clone_cloaked t ~src_asid ~dst_asid =
  let src = Resource.Anon src_asid and dst = Resource.Anon dst_asid in
  let dst_pt = page_table t ~asid:dst_asid in
  Metadata.iter_resource t.meta src (fun idx e ->
      let dst_entry = Metadata.find_or_add t.meta dst idx in
      match e.state with
      | Zero -> dst_entry.state <- Zero
      | Plain _ | Encrypted -> (
          (* The kernel's fork path copied the page through its Sys view, so
             the child holds ciphertext authenticated under the parent's
             identity; verify it, then re-key it to the child. The parent
             entry keeps its own state: a Plain parent page simply means the
             parent re-decrypted after the copy, which does not disturb the
             iv/mac/version the copy was made under. *)
          let vpn = ref None in
          iter_placements t dst idx (fun asid v -> if asid = dst_asid then vpn := Some v);
          match !vpn with
          | None ->
              invalid_arg
                (Printf.sprintf "Vmm.clone_cloaked: page %d of %s has no placement in child"
                   idx (Resource.tag dst))
          | Some vpn -> (
              match Page_table.lookup dst_pt vpn with
              | None -> ()  (* child page not copied (e.g. beyond brk): leave untracked *)
              | Some pte ->
                  let mpn = back_ppn t pte.ppn in
                  let cipher = Bytes.copy (page_bytes t mpn) in
                  t.counters.hash_checks <- t.counters.hash_checks + 1;
                  Cost.charge_crypto_page t.cost ~bytes_count:Addr.page_size ~hash:true;
                  let ok =
                    verify_cipher t ~resource:src ~idx ~version:e.version ~iv:e.iv
                      ~mac:e.mac ~cipher
                  in
                  if not ok then
                    violate t ~resource:src Integrity
                      "fork: copied page %d of %s fails authentication" idx
                      (Resource.tag src);
                  let plain = Oscrypto.Aes.ctr_transform t.page_key ~iv:e.iv cipher in
                  Phys_mem.load_page t.mem mpn plain;
                  Hashtbl.replace t.bound pte.ppn (dst, idx);
                  dst_entry.state <- Plain { home = mpn; clean = false };
                  encrypt_page t dst idx dst_entry mpn)))

(* --- protected metadata persistence --- *)

let blob_magic = "OVSHM1"

let export_metadata t resource ~pages ~logical_size =
  seal_resource t resource;
  let id =
    match resource with
    | Resource.Shm id -> id
    | Anon _ -> invalid_arg "Vmm.export_metadata: only shm objects are persistent"
  in
  let generation = (Option.value ~default:0 (Hashtbl.find_opt t.generations id)) + 1 in
  Hashtbl.replace t.generations id generation;
  (match t.journal with
  | Some j ->
      Journal.record j (Generation { id; gen = generation; size = logical_size; pages })
  | None -> ());
  let buf = Buffer.create (pages * 65) in
  for idx = 0 to pages - 1 do
    match Metadata.find t.meta resource idx with
    | Some ({ state = Encrypted; _ } as e) ->
        Buffer.add_char buf 'E';
        Buffer.add_string buf (Printf.sprintf "%016x" e.version);
        Buffer.add_bytes buf e.iv;
        Buffer.add_bytes buf e.mac
    | Some _ | None ->
        Buffer.add_char buf 'Z';
        Buffer.add_string buf (String.make 16 '0');
        Buffer.add_string buf (String.make 48 '\000')
  done;
  let blob =
    Envelope.wrap ~key:t.mac_key
      [ blob_magic; Resource.tag resource; string_of_int generation;
        string_of_int logical_size; string_of_int pages ]
      (Buffer.to_bytes buf)
  in
  (* hostile world: the write of the blob to stable storage may tear or
     flip bits *)
  match Inject.fire_opt t.engine Inject.Meta_export with
  | Some action -> Inject.mangle action blob
  | None -> blob

type imported = { resource : Resource.t; logical_size : int; pages : int }

let import_metadata t blob =
  (* hostile world: the blob may have been corrupted at rest *)
  let blob =
    match Inject.fire_opt t.engine Inject.Meta_import with
    | Some action -> Inject.mangle action blob
    | None -> blob
  in
  let header, body =
    match Envelope.unwrap ~key:t.mac_key blob with
    | Ok v -> v
    | Error `Bad_mac -> violate t Metadata_forged "metadata blob fails authentication"
    | Error `Malformed -> violate t Metadata_forged "metadata blob missing header"
  in
  let id, generation, logical_size, pages =
    match header with
    | [ magic; tag'; generation; size; pages ] when magic = blob_magic -> (
        match String.split_on_char ':' tag' with
        | [ "shm"; id ] ->
            ( int_of_string id,
              int_of_string generation,
              int_of_string size,
              int_of_string pages )
        | _ -> violate t Metadata_forged "metadata blob has non-shm resource")
    | _ -> violate t Metadata_forged "metadata blob header malformed"
  in
  (match Hashtbl.find_opt t.generations id with
  | Some current when generation < current ->
      violate t ~resource:(Resource.Shm id) Metadata_forged
        "metadata blob for shm:%d is stale (generation %d, current %d)" id generation
        current
  | Some _ | None -> Hashtbl.replace t.generations id generation);
  let resource = Resource.Shm id in
  if id >= t.next_shm then t.next_shm <- id + 1;
  (match t.journal with
  | Some j ->
      let same =
        match Hashtbl.find_opt (Journal.state j).Journal.gens id with
        | Some (g, s, p) -> g = generation && s = logical_size && p = pages
        | None -> false
      in
      if not same then
        Journal.record j (Generation { id; gen = generation; size = logical_size; pages })
  | None -> ());
  Metadata.drop_resource t.meta resource;
  let pos = ref 0 in
  for idx = 0 to pages - 1 do
    let flag = Bytes.get body !pos in
    let version = int_of_string ("0x" ^ Bytes.sub_string body (!pos + 1) 16) in
    let iv = Bytes.sub body (!pos + 17) 16 in
    let mac = Bytes.sub body (!pos + 33) 32 in
    pos := !pos + 65;
    let e = Metadata.find_or_add t.meta resource idx in
    match flag with
    | 'Z' ->
        e.state <- Zero;
        journal_drop_page t resource idx
    | 'E' ->
        e.state <- Encrypted;
        e.version <- version;
        e.iv <- iv;
        e.mac <- mac;
        (* re-journal only if the journal's view differs — an unchanged page
           keeps its recorded durable bind (the content file still holds its
           authoritative ciphertext) *)
        let changed =
          match t.journal with
          | None -> false
          | Some j -> (
              match
                Hashtbl.find_opt (Journal.state j).Journal.pages
                  (Resource.tag resource, idx)
              with
              | Some p ->
                  not
                    (p.Journal.version = e.version
                    && Bytes.equal p.Journal.iv e.iv
                    && Bytes.equal p.Journal.mac e.mac)
              | None -> true)
        in
        if changed then journal_update t resource idx e
    | _ ->
        violate t ~resource Metadata_forged
          "metadata blob has corrupt page record"
  done;
  { resource; logical_size; pages }

(* --- recovery support ---

   After a simulated power cut the crash harness rebuilds a VMM from the
   same seed (so page_key/mac_key re-derive identically) and lets
   [Recovery.replay] reinstall what the journal proves survived. *)

let restore_entry t ~resource ~idx ~version ~iv ~mac =
  let e = Metadata.find_or_add t.meta resource idx in
  e.state <- Encrypted;
  e.version <- version;
  e.iv <- Bytes.copy iv;
  e.mac <- Bytes.copy mac;
  (match resource with
  | Resource.Shm id -> if id >= t.next_shm then t.next_shm <- id + 1
  | Anon _ -> ())

let restore_generation t ~id ~gen =
  Hashtbl.replace t.generations id gen;
  if id >= t.next_shm then t.next_shm <- id + 1

(* --- sealed-checkpoint freshness ---

   Parallels the shm generation table: every captured checkpoint bumps the
   resource's seal generation and anchors it in the journal, so a restore
   can prove the blob it holds is the latest one ever sealed. *)

let seal_generation t ~tag =
  Option.value ~default:0 (Hashtbl.find_opt t.seal_gens tag)

let bump_seal_generation t ~tag =
  let gen = seal_generation t ~tag + 1 in
  Hashtbl.replace t.seal_gens tag gen;
  Trace.emit t.trace ~ctx:Trace.Vmm ~site:tag ~aux:gen Trace.Seal_gen_bump;
  (match t.journal with
  | Some j -> Journal.record j (Seal { tag; gen })
  | None -> ());
  gen

let restore_seal_generation t ~tag ~gen =
  if gen > seal_generation t ~tag then begin
    Hashtbl.replace t.seal_gens tag gen;
    Trace.emit t.trace ~ctx:Trace.Vmm ~site:tag ~aux:gen Trace.Seal_gen_bump
  end

let retire_seal_generation t ~tag ~gen =
  let target = gen + 1 in
  if target > seal_generation t ~tag then begin
    Hashtbl.replace t.seal_gens tag target;
    Trace.emit t.trace ~ctx:Trace.Vmm ~site:tag ~aux:target Trace.Seal_gen_bump;
    (match t.journal with
    | Some j -> Journal.record j (Seal { tag; gen = target })
    | None -> ());
    Inject.Audit.record t.audit "seal retire resource=%s gen=%d" tag gen
  end

let fold_meta t resource f init = Metadata.fold_resource t.meta resource f init
