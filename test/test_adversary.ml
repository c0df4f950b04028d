(* Adversarial-OS tests: the two anti-replay/anti-alias trace rules must
   each catch a seeded violation, the shim's paraverification must hold up
   under fuzzed Iago lies (typed refusal or faithful data, never an OOB
   copy into cloaked memory), and the full sweep cell must report zero
   invariant failures. *)

open Machine
open Guest
open Oshim

(* --- the two new trace rules, on synthesized event streams ---

   The hardened VMM pins {iv, mac, version}, so a real run can no longer
   produce these orderings; the rules are demonstrated on hand-seeded
   streams, exactly like the older Check rules in test_trace.ml. *)

let ev ?(phase = Trace.Instant) ?(ctx = Trace.Vmm) ?(page = -1) ?(pid = -1)
    ?(site = "") ?(aux = 0) kind =
  { Trace.kind; phase; cycles = 0; ctx; page; pid; site; aux }

let fails_with needle evs =
  match Trace.Check.run evs with
  | [ msg ] ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S (got %S)" needle msg)
        true
        (let nl = String.length needle and ml = String.length msg in
         let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
         go 0)
  | other ->
      Alcotest.failf "expected exactly one %s violation, got %d: %s" needle
        (List.length other)
        (String.concat " | " other)

let passes evs = Alcotest.(check (list string)) "clean" [] (Trace.Check.run evs)

(* Sealing version 5 into ciphertext raises the page's high-water mark; a
   later decrypt at version 2 — even with a matching MAC check, i.e. the
   OS replayed a whole consistent stale {page, iv, mac} triple — is the
   replay the rule exists to catch. *)
let test_stale_version_rule () =
  let seal v = ev ~phase:Trace.Exit ~site:"cloak:1" ~page:4 ~pid:7 ~aux:v Trace.Page_encrypt in
  let mac v = ev ~site:"cloak:1" ~page:4 ~aux:v Trace.Mac_check in
  let decrypt v = ev ~phase:Trace.Exit ~site:"cloak:1" ~page:4 ~pid:7 ~aux:v Trace.Page_decrypt in
  fails_with "stale version mapped" [ seal 5; mac 2; decrypt 2 ];
  (* the same-version decrypt is fine *)
  passes [ seal 5; mac 5; decrypt 5 ];
  (* prefix-closed: truncating before the bad decrypt hides the failure *)
  passes [ seal 5; mac 2 ];
  (* a different page's high-water mark does not apply *)
  passes
    [ seal 5;
      ev ~site:"cloak:1" ~page:9 ~aux:2 Trace.Mac_check;
      ev ~phase:Trace.Exit ~site:"cloak:1" ~page:9 ~pid:8 ~aux:2 Trace.Page_decrypt ]

(* Authorized version resets: a zeroed page restarts its history, and a
   seal restore / quarantine teardown resets the whole resource. *)
let test_stale_version_resets () =
  let seal v = ev ~phase:Trace.Exit ~site:"cloak:1" ~page:4 ~pid:7 ~aux:v Trace.Page_encrypt in
  let mac v = ev ~site:"cloak:1" ~page:4 ~aux:v Trace.Mac_check in
  let decrypt v = ev ~phase:Trace.Exit ~site:"cloak:1" ~page:4 ~pid:7 ~aux:v Trace.Page_decrypt in
  passes [ seal 5; ev ~site:"cloak:1" ~page:4 ~pid:7 Trace.Page_zero; mac 1; decrypt 1 ];
  passes [ seal 5; ev ~site:"cloak:1" Trace.Quarantine; mac 1; decrypt 1 ];
  passes
    [ seal 5;
      ev ~site:"cloak:1" ~aux:3 Trace.Seal_gen_bump;
      ev ~phase:Trace.Exit ~site:"cloak:1" ~aux:3 Trace.Seal_restore;
      mac 1; decrypt 1 ];
  (* the reset is per resource tag: another cloak's quarantine changes nothing *)
  fails_with "stale version mapped"
    [ seal 5; ev ~site:"cloak:2" Trace.Quarantine; mac 2; decrypt 2 ]

(* Frame 7 holds the live plaintext of cloak:1 page 1; an access by a
   different cloaked context whose translation resolves to that same frame
   (aux = mpn+1) means the OS double-mapped one machine page under two
   asids. *)
let test_cross_asid_alias_rule () =
  let fill =
    [ ev ~site:"cloak:1" ~page:1 ~aux:1 Trace.Mac_check;
      ev ~phase:Trace.Exit ~site:"cloak:1" ~page:1 ~pid:7 ~aux:1 Trace.Page_decrypt ]
  in
  fails_with "cross-asid alias"
    (fill
    @ [ ev ~ctx:(Trace.Cloaked 2) ~site:"cloak:2" ~page:9 ~pid:2 ~aux:8
          Trace.Plaintext_access ]);
  (* the owner touching its own frame is the normal case *)
  passes
    (fill
    @ [ ev ~ctx:(Trace.Cloaked 1) ~site:"cloak:1" ~page:1 ~pid:1 ~aux:8
          Trace.Plaintext_access ]);
  (* aux = 0 means the frame is unknown: the rule stays silent *)
  passes
    (fill
    @ [ ev ~ctx:(Trace.Cloaked 2) ~site:"cloak:2" ~page:9 ~pid:2 ~aux:0
          Trace.Plaintext_access ]);
  (* once the frame is scrubbed (or re-encrypted) it may be reused freely *)
  passes
    (fill
    @ [ ev ~pid:7 Trace.Frame_scrub;
        ev ~ctx:(Trace.Cloaked 2) ~site:"cloak:2" ~page:9 ~pid:2 ~aux:8
          Trace.Plaintext_access ]);
  passes
    (fill
    @ [ ev ~phase:Trace.Exit ~site:"cloak:1" ~page:1 ~pid:7 ~aux:2 Trace.Page_encrypt;
        ev ~ctx:(Trace.Cloaked 2) ~site:"cloak:2" ~page:9 ~pid:2 ~aux:8
          Trace.Plaintext_access ])

(* --- fuzzing the shim's read paraverification ---

   A liar sits where the kernel does (armed before [Shim.install], so the
   shim's direct dispatch is the mutated one) and mangles every read
   result once the victim flips [lying] on. The contract, per lie shape:

   - an out-of-bounds claim (overclaim past the request, negative, huge)
     or a wrong result shape must end in a typed [Hostile_os] refusal
     (exit 81) with the cloaked destination buffer untouched — the Iago
     overflow never walks bytes into cloaked memory;
   - a fabricated errno is a legal result shape: the application sees a
     typed [Errno.Error] and degrades (exit 82);
   - an *under*-claim is indistinguishable from a legal short read, so the
     shim must pass it through: the claimed prefix must be faithful and
     the sentinel beyond it untouched (exit 0). *)

type lie =
  | Overclaim of int  (* claim [extra] bytes past the marshaled request *)
  | Negative of int
  | Huge
  | Shape_unit
  | Shape_pair
  | Underclaim of int (* claim some m < n: a legal short read *)
  | Errno_swap
  | Wrapped of lie    (* smuggle the same lie inside Signaled wrappers *)

let rec lie_name = function
  | Overclaim k -> Printf.sprintf "overclaim+%d" k
  | Negative k -> Printf.sprintf "negative-%d" k
  | Huge -> "huge"
  | Shape_unit -> "shape-unit"
  | Shape_pair -> "shape-pair"
  | Underclaim k -> Printf.sprintf "underclaim-%d" k
  | Errno_swap -> "errno-swap"
  | Wrapped l -> Printf.sprintf "signaled(%s)" (lie_name l)

let rec mutate lie ~requested (v : Abi.value) =
  match (lie, v) with
  | Wrapped l, v -> Abi.Signaled (10, mutate l ~requested v)
  | Overclaim extra, Abi.Int n when n >= 0 -> Abi.Int (max (n + extra) (requested + extra))
  | Negative k, Abi.Int _ -> Abi.Int (-k)
  | Huge, Abi.Int _ -> Abi.Int (max_int / 2)
  | Shape_unit, _ -> Abi.Unit
  | Shape_pair, _ -> Abi.Pair (1, 2)
  | Underclaim k, Abi.Int n when n > 0 -> Abi.Int (k mod n)
  | Errno_swap, _ -> Abi.Err Errno.EIO
  | _, v -> v

let rec expected_exit = function
  | Overclaim _ | Negative _ | Huge | Shape_unit | Shape_pair -> 81
  | Underclaim _ -> 0
  | Errno_swap -> 82
  | Wrapped l -> expected_exit l

let payload_len = 512
let slack = 64
let sentinel = '\xEE'

(* Run one victim under the given read lie; returns its exit status and
   the VMM's hostile counters. Exit 1 marks any corruption the victim can
   see itself: a wrong byte in the claimed prefix, or a disturbed
   sentinel after a refusal (the OOB copy the shim exists to prevent). *)
let fuzz_victim lie =
  let vmm = Cloak.Vmm.create () in
  let k = Kernel.create vmm in
  let payload = Bytes.init payload_len (fun i -> Char.chr ((i * 7 + 3) land 0xFF)) in
  let pid =
    Kernel.spawn k ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let lying = ref false in
        let direct = env.Abi.dispatch in
        env.Abi.dispatch <-
          (fun call ->
            let v = direct call in
            match call with
            | Abi.Read { len; _ } when !lying -> mutate lie ~requested:len v
            | _ -> v);
        let shim = Shim.install u in
        ignore shim;
        let fd = Uapi.openf u "/fz" [ Abi.O_CREAT; Abi.O_RDWR ] in
        Uapi.write_bytes u ~fd payload;
        ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
        let buf = Uapi.malloc u (payload_len + slack) in
        Uapi.store u ~vaddr:buf (Bytes.make (payload_len + slack) sentinel);
        let check_buf ~claimed =
          let got = Uapi.load u ~vaddr:buf ~len:(payload_len + slack) in
          let ok = ref true in
          for i = 0 to claimed - 1 do
            if Bytes.get got i <> Bytes.get payload i then ok := false
          done;
          for i = claimed to payload_len + slack - 1 do
            if Bytes.get got i <> sentinel then ok := false
          done;
          !ok
        in
        lying := true;
        try
          let n = Uapi.read u ~fd ~vaddr:buf ~len:payload_len in
          lying := false;
          Uapi.exit u (if check_buf ~claimed:n then 0 else 1)
        with
        | Shim.Hostile_os _ ->
            lying := false;
            Uapi.exit u (if check_buf ~claimed:0 then 81 else 1)
        | Errno.Error _ ->
            lying := false;
            Uapi.exit u (if check_buf ~claimed:0 then 82 else 1))
  in
  Kernel.run k;
  (Kernel.exit_status k ~pid, Cloak.Vmm.counters vmm)

let lie_gen =
  QCheck.Gen.(
    let base =
      frequency
        [ (3, map (fun k -> Overclaim (1 + k)) (int_bound 8191));
          (2, map (fun k -> Negative (1 + k)) (int_bound 4095));
          (1, return Huge);
          (1, return Shape_unit);
          (1, return Shape_pair);
          (3, map (fun k -> Underclaim k) (int_bound 4096));
          (2, return Errno_swap) ]
    in
    frequency [ (3, base); (1, map (fun l -> Wrapped l) base) ])

let fuzz_shim_paraverification =
  QCheck.Test.make ~count:80
    ~name:"fuzz: every mangled read result yields faithful data or a typed death"
    (QCheck.make ~print:lie_name lie_gen)
    (fun lie ->
      let status, c = fuzz_victim lie in
      status = Some (expected_exit lie)
      && (expected_exit lie <> 81
         || (c.Counters.hostile_lies_detected >= 1 && c.Counters.hostile_refusals >= 1)))

(* The deterministic spine of the fuzz: a kernel that digs in on an
   overclaim burns every retry and gets the typed refusal, with the lie
   and refusal tallies on the VMM counters. *)
let test_dug_in_liar_is_refused () =
  let status, c = fuzz_victim (Overclaim 4096) in
  Alcotest.(check (option int)) "typed refusal exit" (Some 81) status;
  Alcotest.(check int) "every attempt was caught" (Shim.paraverify_retries + 1)
    c.Counters.hostile_lies_detected;
  Alcotest.(check int) "one refusal" 1 c.Counters.hostile_refusals

let test_errno_lie_degrades () =
  let status, c = fuzz_victim Errno_swap in
  Alcotest.(check (option int)) "typed degradation exit" (Some 82) status;
  Alcotest.(check int) "an errno is a legal shape, not a detected lie" 0
    c.Counters.hostile_refusals

(* --- Shim_io's direct syscalls: the same paraverification ---

   A protected file moves ciphertext with the shim's direct dispatcher, so
   its mmap and write results are checked by the same loop as the shim's
   own. The liar is armed under [Shim.install] and idles until the victim
   flips [lying] on; the victim reports the call the shim refused. *)
let shim_io_victim ~lie body =
  let vmm = Cloak.Vmm.create () in
  let k = Kernel.create vmm in
  let refused = ref None in
  let pid =
    Kernel.spawn k ~cloaked:true (fun env ->
        let u = Uapi.of_env env in
        let lying = ref false in
        let direct = env.Abi.dispatch in
        env.Abi.dispatch <- (fun call -> lie ~lying call (direct call));
        let shim = Shim.install u in
        try
          body shim lying;
          Uapi.exit u 0
        with Shim.Hostile_os { call; _ } ->
          refused := Some call;
          Uapi.exit u 81)
  in
  Kernel.run k;
  (Kernel.exit_status k ~pid, !refused, Cloak.Vmm.counters vmm)

let test_shim_io_lies_refused () =
  let overclaim ~lying call v =
    match call with Abi.Write { len; _ } when !lying -> Abi.Int (len + 1) | _ -> v
  in
  let status, refused, c =
    shim_io_victim ~lie:overclaim (fun shim lying ->
        let f = Shim_io.create shim ~path:"/vault" ~pages:1 in
        Shim_io.write shim f ~pos:0 (Bytes.of_string "protected");
        lying := true;
        Shim_io.save shim f)
  in
  Alcotest.(check (option int)) "save refused" (Some 81) status;
  Alcotest.(check (option string)) "under write" (Some "write") refused;
  Alcotest.(check int) "every attempt was caught" (Shim.paraverify_retries + 1)
    c.Counters.hostile_lies_detected;
  Alcotest.(check int) "one refusal" 1 c.Counters.hostile_refusals;
  let null_map ~lying call v =
    match call with Abi.Mmap _ when !lying -> Abi.Int 0 | _ -> v
  in
  let status, refused, _ =
    shim_io_victim ~lie:null_map (fun shim lying ->
        lying := true;
        ignore (Shim_io.create shim ~path:"/vault" ~pages:1))
  in
  Alcotest.(check (option int)) "create refused" (Some 81) status;
  Alcotest.(check (option string)) "under mmap" (Some "mmap") refused

(* --- the sweep cell itself --- *)

let test_sweep_cell_holds () =
  let r = Harness.Adversary.run_seed ~seed:3 in
  Alcotest.(check (list string)) "no invariant failures" [] r.Harness.Adversary.failures;
  Alcotest.(check bool) "the adversary actually attacked" true
    (r.Harness.Adversary.attacks > 0);
  Alcotest.(check int) "every class reported" 4
    (List.length r.Harness.Adversary.classes)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "adversary"
    [
      ( "trace rules",
        [
          quick "stale version mapped is caught" test_stale_version_rule;
          quick "authorized version resets pass" test_stale_version_resets;
          quick "cross-asid alias is caught" test_cross_asid_alias_rule;
        ] );
      ( "shim paraverification",
        [
          QCheck_alcotest.to_alcotest fuzz_shim_paraverification;
          quick "dug-in liar is refused" test_dug_in_liar_is_refused;
          quick "errno lies degrade, not corrupt" test_errno_lie_degrades;
        ] );
      ("shim_io", [ quick "lies on direct I/O are refused" test_shim_io_lies_refused ]);
      ( "sweep", [ quick "one cell: all invariants hold" test_sweep_cell_holds ] );
    ]
