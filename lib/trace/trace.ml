(* Deterministic cycle-stamped flight recorder. See trace.mli for the
   event model and the truncation-soundness argument for Check. *)

type ctx = Vmm | Kernel | Cloaked of int

type kind =
  | World_switch
  | Shadow_walk
  | Shadow_fill
  | Hidden_fault
  | Guest_fault
  | Hypercall
  | Syscall_trap
  | Syscall
  | Page_encrypt
  | Page_decrypt
  | Page_zero
  | Mac_check
  | Plaintext_access
  | Journal_append
  | Journal_ckpt
  | Seal_capture
  | Seal_restore
  | Seal_gen_bump
  | Disk_read
  | Disk_write
  | Frame_scrub
  | Frame_free
  | Quarantine
  | Restart
  | Migration

type phase = Instant | Enter | Exit | Abort

type event = {
  kind : kind;
  phase : phase;
  cycles : int;
  ctx : ctx;
  page : int;
  pid : int;
  site : string;
  aux : int;
}

let all_kinds =
  [
    World_switch; Shadow_walk; Shadow_fill; Hidden_fault; Guest_fault; Hypercall;
    Syscall_trap; Syscall; Page_encrypt; Page_decrypt; Page_zero; Mac_check;
    Plaintext_access; Journal_append; Journal_ckpt; Seal_capture; Seal_restore;
    Seal_gen_bump; Disk_read; Disk_write; Frame_scrub; Frame_free; Quarantine;
    Restart; Migration;
  ]

let kind_name = function
  | World_switch -> "world_switch"
  | Shadow_walk -> "shadow_walk"
  | Shadow_fill -> "shadow_fill"
  | Hidden_fault -> "hidden_fault"
  | Guest_fault -> "guest_fault"
  | Hypercall -> "hypercall"
  | Syscall_trap -> "syscall_trap"
  | Syscall -> "syscall"
  | Page_encrypt -> "page_encrypt"
  | Page_decrypt -> "page_decrypt"
  | Page_zero -> "page_zero"
  | Mac_check -> "mac_check"
  | Plaintext_access -> "plaintext_access"
  | Journal_append -> "journal_append"
  | Journal_ckpt -> "journal_ckpt"
  | Seal_capture -> "seal_capture"
  | Seal_restore -> "seal_restore"
  | Seal_gen_bump -> "seal_gen_bump"
  | Disk_read -> "disk_read"
  | Disk_write -> "disk_write"
  | Frame_scrub -> "frame_scrub"
  | Frame_free -> "frame_free"
  | Quarantine -> "quarantine"
  | Restart -> "restart"
  | Migration -> "migration"

(* --- log2-bucket latency histograms --- *)

module Hist = struct
  (* Bucket 0 holds exactly the value 0; bucket i >= 1 holds values in
     [2^(i-1), 2^i - 1]. 63 buckets cover every non-negative OCaml int. *)
  let nbuckets = 63

  type h = {
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    { counts = Array.make nbuckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      min !b (nbuckets - 1)
    end

  let bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

  let add h v =
    let v = if v < 0 then 0 else v in
    let b = bucket_of v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v

  let count h = h.n
  let total h = h.sum
  let min_value h = if h.n = 0 then 0 else h.min_v
  let max_value h = h.max_v

  let buckets h =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.counts.(i) > 0 then
        let lo, hi = bounds i in
        out := (lo, hi, h.counts.(i)) :: !out
    done;
    !out

  let percentile_bounds h p =
    if h.n = 0 then (0, 0)
    else begin
      let p = if p < 0. then 0. else if p > 1. then 1. else p in
      let rank = max 1 (int_of_float (ceil (p *. float_of_int h.n))) in
      let rec walk i cum =
        if i >= nbuckets then (min_value h, max_value h)
        else
          let cum = cum + h.counts.(i) in
          if cum >= rank then
            let lo, hi = bounds i in
            (* the rank-th order statistic lies in this bucket and within
               the observed range, so the intersection still brackets it *)
            (max lo (min_value h), min hi (max_value h))
          else walk (i + 1) cum
      in
      walk 0 0
    end

  let percentile h p = snd (percentile_bounds h p)

  (* Per-bucket sum plus the scalar moments. Fresh result, both inputs
     untouched; associative and commutative because every field merge is
     (+, min, max over the same bucketing). *)
  let merge a b =
    let m = create () in
    for i = 0 to nbuckets - 1 do
      m.counts.(i) <- a.counts.(i) + b.counts.(i)
    done;
    m.n <- a.n + b.n;
    m.sum <- a.sum + b.sum;
    m.min_v <- min a.min_v b.min_v;
    m.max_v <- max a.max_v b.max_v;
    m
end

(* --- sinks --- *)

let default_cap = 1 lsl 18

type t = {
  live : bool;
  cap : int;
  buf : event array;  (* ring storage; [dummy] fills unused slots *)
  mutable start : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable total : int;  (* ever recorded, including evicted *)
  mutable clock : unit -> int;
  mutable cur : ctx;
  hists : (kind, Hist.h) Hashtbl.t;
  open_spans : (kind, int list) Hashtbl.t;  (* per-kind enter-cycle stacks *)
}

let dummy =
  { kind = Restart; phase = Instant; cycles = 0; ctx = Kernel; page = -1;
    pid = -1; site = ""; aux = 0 }

let null =
  {
    live = false;
    cap = 0;
    buf = [||];
    start = 0;
    len = 0;
    total = 0;
    clock = (fun () -> 0);
    cur = Kernel;
    hists = Hashtbl.create 1;
    open_spans = Hashtbl.create 1;
  }

let ring ?(cap = default_cap) () =
  if cap <= 0 then invalid_arg "Trace.ring: cap must be positive";
  {
    live = true;
    cap;
    buf = Array.make cap dummy;
    start = 0;
    len = 0;
    total = 0;
    clock = (fun () -> 0);
    cur = Kernel;
    hists = Hashtbl.create 31;
    open_spans = Hashtbl.create 31;
  }

let enabled t = t.live
let set_clock t f = if t.live then t.clock <- f
let set_ctx t c = if t.live then t.cur <- c
let count t = t.total
let dropped t = t.total - t.len
let capacity t = t.cap

let push t ev =
  if t.len < t.cap then begin
    t.buf.((t.start + t.len) mod t.cap) <- ev;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.start) <- ev;
    t.start <- (t.start + 1) mod t.cap
  end;
  t.total <- t.total + 1

let events t =
  List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod t.cap)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ev -> acc := f !acc ev);
  !acc

let record t phase ctx page pid site aux kind =
  push t
    {
      kind;
      phase;
      cycles = t.clock ();
      ctx = (match ctx with Some c -> c | None -> t.cur);
      page;
      pid;
      site;
      aux;
    }

let emit t ?ctx ?(page = -1) ?(pid = -1) ?(site = "") ?(aux = 0) kind =
  if t.live then record t Instant ctx page pid site aux kind

let span_enter t ?ctx ?(page = -1) ?(pid = -1) ?(site = "") ?(aux = 0) kind =
  if t.live then begin
    let stack = try Hashtbl.find t.open_spans kind with Not_found -> [] in
    let now = t.clock () in
    Hashtbl.replace t.open_spans kind (now :: stack);
    push t
      { kind; phase = Enter; cycles = now;
        ctx = (match ctx with Some c -> c | None -> t.cur); page; pid; site; aux }
  end

let hist_for t kind =
  match Hashtbl.find_opt t.hists kind with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists kind h;
      h

let span_exit t ?ctx ?(page = -1) ?(pid = -1) ?(site = "") ?(aux = 0) kind =
  if t.live then begin
    let now = t.clock () in
    (match Hashtbl.find_opt t.open_spans kind with
    | Some (entered :: rest) ->
        Hashtbl.replace t.open_spans kind rest;
        Hist.add (hist_for t kind) (now - entered)
    | Some [] | None -> ());
    push t
      { kind; phase = Exit; cycles = now;
        ctx = (match ctx with Some c -> c | None -> t.cur); page; pid; site; aux }
  end

let span_abort t kind =
  if t.live then begin
    (match Hashtbl.find_opt t.open_spans kind with
    | Some (_ :: rest) -> Hashtbl.replace t.open_spans kind rest
    | Some [] | None -> ());
    push t
      { kind; phase = Abort; cycles = t.clock (); ctx = t.cur; page = -1;
        pid = -1; site = ""; aux = 0 }
  end

let with_span t ?ctx ?page ?pid ?site ?aux kind f =
  if not t.live then f ()
  else begin
    span_enter t ?ctx ?page ?pid ?site ?aux kind;
    match f () with
    | v ->
        span_exit t ?ctx ?page ?pid ?site ?aux kind;
        v
    | exception e ->
        span_abort t kind;
        raise e
  end

let histogram t kind = Hashtbl.find_opt t.hists kind

let span_classes t =
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt t.hists k with
      | Some h when Hist.count h > 0 -> Some (k, h)
      | _ -> None)
    all_kinds

(* --- rendering --- *)

let pp_decomposition ppf t =
  let classes = span_classes t in
  Format.fprintf ppf "@[<v>%-18s %10s %14s %10s %10s %10s@,"
    "span class" "count" "total cycles" "p50" "p95" "p99";
  Format.fprintf ppf "%s@," (String.make 76 '-');
  let grand = List.fold_left (fun acc (_, h) -> acc + Hist.total h) 0 classes in
  List.iter
    (fun (k, h) ->
      Format.fprintf ppf "%-18s %10d %14d %10d %10d %10d@," (kind_name k)
        (Hist.count h) (Hist.total h) (Hist.percentile h 0.50)
        (Hist.percentile h 0.95) (Hist.percentile h 0.99))
    classes;
  Format.fprintf ppf "%s@," (String.make 76 '-');
  Format.fprintf ppf "%-18s %10s %14d@]" "spanned total" "" grand

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ctx_track = function Vmm -> 0 | Kernel -> 1 | Cloaked asid -> 100 + asid

let ctx_name = function
  | Vmm -> "vmm"
  | Kernel -> "kernel"
  | Cloaked asid -> Printf.sprintf "cloaked-%d" asid

(* One sink's events into [buf]. Without [host], each context is its own
   Chrome process (pid = tid = track) — the single-VMM layout. With
   [host = (pid, name)] every event lands under that process row (tid
   still the context), so several VMM hosts render as distinct rows of
   one fleet timeline instead of collapsing onto shared track ids. *)
let chrome_events buf ~first ?host t =
  let named = Hashtbl.create 8 in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  (match host with
  | None -> ()
  | Some (pid, name) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (json_escape name)));
  List.iter
    (fun ev ->
      let track = ctx_track ev.ctx in
      let pid = match host with None -> track | Some (p, _) -> p in
      if not (Hashtbl.mem named track) then begin
        Hashtbl.add named track ();
        sep ();
        let meta =
          match host with None -> "process_name" | Some _ -> "thread_name"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             meta pid track (ctx_name ev.ctx))
      end;
      sep ();
      let ph, extra =
        match ev.phase with
        | Enter -> ("B", "")
        | Exit | Abort -> ("E", "")  (* aborts close their B, keeping tracks balanced *)
        | Instant -> ("i", ",\"s\":\"t\"")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"overshadow\",\"ph\":\"%s\"%s,\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"page\":%d,\"owner\":%d,\"site\":\"%s\",\"aux\":%d}}"
           (kind_name ev.kind) ph extra ev.cycles pid track ev.page ev.pid
           (json_escape ev.site) ev.aux))
    (events t)

let to_chrome_json ?host t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  chrome_events buf ~first:(ref true) ?host t;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

let to_chrome_fleet hosts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter (fun (pid, name, t) -> chrome_events buf ~first ~host:(pid, name) t) hosts;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

(* --- trace-checked invariants --- *)

module Check = struct
  (* Each rule is prefix-closed: it only ever fails on an event whose
     required predecessor is missing, so truncating the tail of a stream
     (a crash) can remove failures but never manufacture one. Truncating
     the *head* (ring eviction) can — hence [verdict] refuses to run on a
     sink that dropped events. *)

  let run evs =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    (* rule 1: decrypt needs a MAC check of the same (site, page, version) *)
    let mac_ok = Hashtbl.create 64 in
    (* rule 2: frames that hold cloaked plaintext, by mpn *)
    let plaintext = Hashtbl.create 64 in
    (* rule 3: highest bumped generation per resource tag *)
    let bumped = Hashtbl.create 8 in
    (* rule 5 (no-stale-version-mapped): highest version ever sealed into
       ciphertext per (site, page); a later decrypt below it means a
       replayed stale page was mapped. Page_zero restarts a page's version
       history (fresh page after teardown), Seal_restore and Quarantine
       reset a whole resource (authorized rollback / teardown). *)
    let highwater = Hashtbl.create 64 in
    let reset_site site tbl =
      let stale =
        Hashtbl.fold (fun (s, p) _ acc -> if s = site then (s, p) :: acc else acc)
          tbl []
      in
      List.iter (Hashtbl.remove tbl) stale
    in
    List.iter
      (fun ev ->
        match (ev.kind, ev.phase) with
        (* an aborted span's operation did not complete: for every rule it
           must count as if it never happened *)
        | _, Abort -> ()
        | Mac_check, _ -> Hashtbl.replace mac_ok (ev.site, ev.page) ev.aux
        | Page_decrypt, Exit ->
            (match Hashtbl.find_opt mac_ok (ev.site, ev.page) with
            | Some v when v = ev.aux -> ()
            | Some v ->
                fail
                  "decrypt of %s page %d version %d: last MAC check covered \
                   version %d"
                  ev.site ev.page ev.aux v
            | None ->
                fail "decrypt of %s page %d version %d without a prior MAC check"
                  ev.site ev.page ev.aux);
            (match Hashtbl.find_opt highwater (ev.site, ev.page) with
            | Some v when ev.aux < v ->
                fail
                  "stale version mapped: decrypt of %s page %d at version %d \
                   after version %d was sealed (replay)"
                  ev.site ev.page ev.aux v
            | _ -> ());
            if ev.pid >= 0 then Hashtbl.replace plaintext ev.pid (ev.site, ev.page)
        | Page_zero, _ ->
            Hashtbl.remove highwater (ev.site, ev.page);
            if ev.pid >= 0 then Hashtbl.replace plaintext ev.pid (ev.site, ev.page)
        | Page_encrypt, Exit ->
            (match Hashtbl.find_opt highwater (ev.site, ev.page) with
            | Some v when v >= ev.aux -> ()
            | _ -> Hashtbl.replace highwater (ev.site, ev.page) ev.aux);
            if ev.pid >= 0 then Hashtbl.remove plaintext ev.pid
        | Frame_scrub, _ -> if ev.pid >= 0 then Hashtbl.remove plaintext ev.pid
        | Quarantine, _ -> reset_site ev.site highwater
        | Frame_free, _ -> (
            match Hashtbl.find_opt plaintext ev.pid with
            | Some (site, page) ->
                fail
                  "frame %d freed while holding cloaked plaintext of %s page %d \
                   (no scrub or re-encrypt)"
                  ev.pid site page;
                Hashtbl.remove plaintext ev.pid
            | None -> ())
        | Seal_gen_bump, _ ->
            let cur =
              match Hashtbl.find_opt bumped ev.site with Some g -> g | None -> 0
            in
            if ev.aux > cur then Hashtbl.replace bumped ev.site ev.aux
        | Seal_restore, Exit -> (
            reset_site ev.site highwater;
            match Hashtbl.find_opt bumped ev.site with
            | Some g when g >= ev.aux -> ()
            | Some g ->
                fail
                  "seal restore of %s generation %d precedes its generation \
                   bump (highest bumped: %d)"
                  ev.site ev.aux g
            | None ->
                fail "seal restore of %s generation %d without any generation bump"
                  ev.site ev.aux)
        | Plaintext_access, _ ->
            if ev.pid >= 0 then (
              match ev.ctx with
              | Cloaked asid when asid = ev.pid -> ()
              | c ->
                  fail
                    "plaintext access to %s page %d (owner %d) from non-owner \
                     context %s"
                    ev.site ev.page ev.pid (ctx_name c));
            (* rule 6 (no-cross-asid-alias): aux carries mpn+1 (0 = frame
               unknown). The frame an access resolves to must hold the
               plaintext of the very page being accessed; any other live
               plaintext there means two cloaked mappings alias one frame. *)
            if ev.aux > 0 then (
              let mpn = ev.aux - 1 in
              match Hashtbl.find_opt plaintext mpn with
              | Some (site, page) when site <> ev.site || page <> ev.page ->
                  fail
                    "cross-asid alias: access to %s page %d resolves to frame \
                     %d still holding plaintext of %s page %d"
                    ev.site ev.page mpn site page
              | _ -> ())
        | _ -> ())
      evs;
    List.rev !failures

  let truncated t = t.live && dropped t > 0
  let verdict t = if truncated t then [] else run (events t)
end
