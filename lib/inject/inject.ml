module Audit = Audit

type site =
  | Phys_alloc
  | Phys_write
  | Phys_free
  | Blk_alloc
  | Blk_read
  | Blk_write
  | Blk_free
  | Tlb_insert
  | Tlb_flush
  | Crypto_iv
  | Meta_export
  | Meta_import
  | Jrnl_append
  | Jrnl_ckpt
  | Seal_write
  | Restore
  | Mig_send
  | Mig_recv
  | Mig_ack
  | Hb_send
  | Host_power

let all_sites =
  [
    Phys_alloc; Phys_write; Phys_free; Blk_alloc; Blk_read; Blk_write; Blk_free;
    Tlb_insert; Tlb_flush; Crypto_iv; Meta_export; Meta_import; Jrnl_append;
    Jrnl_ckpt; Seal_write; Restore; Mig_send; Mig_recv; Mig_ack; Hb_send;
    Host_power;
  ]

let site_to_string = function
  | Phys_alloc -> "phys-alloc"
  | Phys_write -> "phys-write"
  | Phys_free -> "phys-free"
  | Blk_alloc -> "blk-alloc"
  | Blk_read -> "blk-read"
  | Blk_write -> "blk-write"
  | Blk_free -> "blk-free"
  | Tlb_insert -> "tlb-insert"
  | Tlb_flush -> "tlb-flush"
  | Crypto_iv -> "crypto-iv"
  | Meta_export -> "meta-export"
  | Meta_import -> "meta-import"
  | Jrnl_append -> "jrnl-append"
  | Jrnl_ckpt -> "jrnl-ckpt"
  | Seal_write -> "seal-write"
  | Restore -> "restore"
  | Mig_send -> "mig-send"
  | Mig_recv -> "mig-recv"
  | Mig_ack -> "mig-ack"
  | Hb_send -> "hb-send"
  | Host_power -> "host-power"

let site_of_string s =
  List.find_opt (fun site -> site_to_string site = s) all_sites

type action =
  | Bit_flip of int
  | Torn_write of int
  | Fail_scrub
  | Io_error
  | Short_read of int
  | Reorder
  | Reuse_iv
  | Exhaust
  | Stale_entry
  | Drop_insert
  | Crash_point
  | Drop
  | Duplicate
  | Delay of int

let action_to_string = function
  | Bit_flip off -> Printf.sprintf "bit-flip@%d" off
  | Torn_write keep -> Printf.sprintf "torn-write/%d" keep
  | Fail_scrub -> "fail-scrub"
  | Io_error -> "io-error"
  | Short_read len -> Printf.sprintf "short-read/%d" len
  | Reorder -> "reorder"
  | Reuse_iv -> "reuse-iv"
  | Exhaust -> "exhaust"
  | Stale_entry -> "stale-entry"
  | Drop_insert -> "drop-insert"
  | Crash_point -> "crash-point"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Delay n -> Printf.sprintf "delay/%d" n

let mangle action data =
  match action with
  | Bit_flip off when Bytes.length data > 0 ->
      let b = Bytes.copy data in
      let i = off mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      b
  | Torn_write keep -> Bytes.sub data 0 (max 0 (min keep (Bytes.length data)))
  | _ -> data

exception Vmm_crash of string

let crashed site = raise (Vmm_crash (site_to_string site))

type trigger = { start : int; every : int; count : int }

let always = { start = 1; every = 1; count = max_int }
let once ~at = { start = at; every = 1; count = 1 }

type rule = { site : site; trigger : trigger; action : action }

type plan = { seed : int; rules : rule list }

let plan ?(seed = 0) rules = { seed; rules }

let pp_rule ppf r =
  Format.fprintf ppf "%s %s start=%d every=%d count=%s"
    (site_to_string r.site) (action_to_string r.action) r.trigger.start
    r.trigger.every
    (if r.trigger.count = max_int then "inf" else string_of_int r.trigger.count)

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>plan seed=%d (%d rules)@," p.seed (List.length p.rules);
  List.iter (fun r -> Format.fprintf ppf "  %a@," pp_rule r) p.rules;
  Format.fprintf ppf "@]"

(* --- engine --- *)

type armed = { rule : rule; mutable fired : int }

type t = {
  plan : plan;
  armed : armed list;
  occurrences : (site, int) Hashtbl.t;
  audit : Audit.t;
  mutable injections : int;
}

let create ?audit plan =
  {
    plan;
    armed = List.map (fun rule -> { rule; fired = 0 }) plan.rules;
    occurrences = Hashtbl.create 16;
    audit = (match audit with Some a -> a | None -> Audit.create ());
    injections = 0;
  }

let audit t = t.audit
let injections t = t.injections
let the_plan t = t.plan

let matches occ (a : armed) =
  let { start; every; count } = a.rule.trigger in
  a.fired < count && occ >= start && (occ - start) mod every = 0

(* One hook-point probe: bump the site's occurrence counter and return the
   first matching rule's action, recording the hit in the audit log. Sites
   with no armed rules stay cheap — one hashtable bump and a short list
   scan. *)
let fire t site =
  let occ = 1 + Option.value ~default:0 (Hashtbl.find_opt t.occurrences site) in
  Hashtbl.replace t.occurrences site occ;
  let rec scan = function
    | [] -> None
    | a :: rest ->
        if a.rule.site = site && matches occ a then begin
          a.fired <- a.fired + 1;
          t.injections <- t.injections + 1;
          Audit.record t.audit "inject site=%s occ=%d action=%s"
            (site_to_string site) occ
            (action_to_string a.rule.action);
          Some a.rule.action
        end
        else scan rest
  in
  scan t.armed

let fire_opt t site = match t with None -> None | Some t -> fire t site

let occurrences t site =
  Option.value ~default:0 (Hashtbl.find_opt t.occurrences site)

(* --- seeded random plans for the chaos harness --- *)

(* Each entry pairs a site with the generators of actions that make sense
   there; the drawn parameters stay inside one 4 KiB page. *)
let menu =
  [
    (Phys_alloc, [ (fun _ -> Exhaust) ]);
    ( Phys_write,
      [ (fun r -> Bit_flip (Oscrypto.Prng.int r 4096));
        (fun r -> Torn_write (1 + Oscrypto.Prng.int r 4095)) ] );
    (Phys_free, [ (fun _ -> Fail_scrub) ]);
    (Blk_alloc, [ (fun _ -> Exhaust) ]);
    ( Blk_read,
      [ (fun _ -> Io_error);
        (fun r -> Short_read (1 + Oscrypto.Prng.int r 4095));
        (fun r -> Bit_flip (Oscrypto.Prng.int r 4096)) ] );
    ( Blk_write,
      [ (fun _ -> Io_error);
        (fun r -> Torn_write (1 + Oscrypto.Prng.int r 4095));
        (fun r -> Bit_flip (Oscrypto.Prng.int r 4096));
        (fun _ -> Reorder) ] );
    (Blk_free, [ (fun _ -> Fail_scrub) ]);
    (Tlb_insert, [ (fun _ -> Drop_insert) ]);
    (Tlb_flush, [ (fun _ -> Stale_entry) ]);
    (Crypto_iv, [ (fun _ -> Reuse_iv) ]);
    (Meta_export, [ (fun r -> Torn_write (Oscrypto.Prng.int r 64)) ]);
    (Meta_import, [ (fun r -> Bit_flip (Oscrypto.Prng.int r 256)) ]);
    (* Seal_write and Restore are deliberately absent: they only fire for
       supervised processes, which the generic chaos workload does not
       spawn — random rules against them would dilute plans to no effect.
       Sealed-checkpoint tampering is exercised by explicit plans in the
       seal tests and the attack suite. The Mig_* channel sites are absent
       for the same reason: only the migration harness opens a channel,
       and it builds its own hostile plans (see Harness.Migrate). Likewise
       Hb_send/Host_power: only the fleet harness probes them, from its
       own plan generator (see Harness.Fleet). *)
  ]

let random_plan ~seed =
  let r = Oscrypto.Prng.create ~seed:(seed lxor 0x1A7ECED) in
  let n_rules = 1 + Oscrypto.Prng.int r 5 in
  let rule _ =
    let site, gens = List.nth menu (Oscrypto.Prng.int r (List.length menu)) in
    let action = (List.nth gens (Oscrypto.Prng.int r (List.length gens))) r in
    let trigger =
      {
        start = 1 + Oscrypto.Prng.int r 40;
        every = 1 + Oscrypto.Prng.int r 7;
        count = 1 + Oscrypto.Prng.int r 3;
      }
    in
    { site; trigger; action }
  in
  { seed; rules = List.init n_rules rule }
