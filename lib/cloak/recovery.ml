type status = Committed | Redone | Torn

let status_to_string = function
  | Committed -> "committed"
  | Redone -> "redone"
  | Torn -> "torn"

type page = {
  resource : Resource.t;
  idx : int;
  dev : string;
  block : int;
  status : status;
}

type t = {
  epoch : int;
  replayed : int;
  pages : page list;
  generations : (int * int) list;
  quarantined : Resource.t list;
}

let count s t = List.length (List.filter (fun p -> p.status = s) t.pages)
let committed = count Committed
let redone = count Redone
let torn = count Torn

let replay ~vmm ~store ~read_block =
  let loaded = Journal.load ~key:(Vmm.journal_key vmm) store in
  let st = loaded.Journal.rstate in
  let audit = Vmm.audit vmm in
  Inject.Audit.record audit "recovery start epoch=%d replayed=%d"
    loaded.Journal.repoch loaded.Journal.replayed;
  (* every page the journal ties to a device block, in deterministic order *)
  let keys =
    let tbl = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) st.Journal.binds;
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) st.Journal.inflight;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort (fun (ta, ia) (tb, ib) ->
           match String.compare ta tb with 0 -> compare ia ib | c -> c)
  in
  let verify resource idx (p : Journal.page) (b : Journal.bind) =
    match read_block ~dev:b.Journal.dev ~block:b.Journal.block with
    | None -> false
    | Some cipher ->
        Vmm.verify_cipher vmm ~resource ~idx ~version:p.Journal.version
          ~iv:p.Journal.iv ~mac:p.Journal.mac ~cipher
  in
  let classify (tag, idx) =
    match Resource.of_tag tag with
    | None -> None  (* unreachable behind the chain MAC; drop defensively *)
    | Some resource -> (
        let bind = Hashtbl.find_opt st.Journal.binds (tag, idx) in
        let inflight = Hashtbl.find_opt st.Journal.inflight (tag, idx) in
        let meta = Hashtbl.find_opt st.Journal.pages (tag, idx) in
        let mk (b : Journal.bind) status =
          { resource; idx; dev = b.Journal.dev; block = b.Journal.block; status }
        in
        match meta with
        | None -> (
            (* a bind without metadata cannot be verified: treat as torn *)
            match (inflight, bind) with
            | Some b, _ | None, Some b -> Some (mk b Torn)
            | None, None -> None)
        | Some p -> (
            match (bind, inflight) with
            | Some b, _ when verify resource idx p b ->
                (* the committed copy is intact; a stale in-flight record for
                   the same page cannot tear what is already durable *)
                Some (mk b Committed)
            | _, Some b when verify resource idx p b -> Some (mk b Redone)
            | _, Some b -> Some (mk b Torn)
            | Some b, None -> Some (mk b Torn)
            | None, None -> None))
  in
  let pages = List.filter_map classify keys in
  List.iter
    (fun pg ->
      Inject.Audit.record audit "recovery page resource=%s idx=%d dev=%s block=%d %s"
        (Resource.tag pg.resource) pg.idx pg.dev pg.block
        (status_to_string pg.status))
    pages;
  let torn_resources =
    List.filter_map (fun pg -> if pg.status = Torn then Some pg.resource else None) pages
    |> List.sort_uniq (fun a b -> String.compare (Resource.tag a) (Resource.tag b))
  in
  (* install the verified pages; quarantining the torn resources afterwards
     scrubs any collateral pages of theirs that verified *)
  List.iter
    (fun pg ->
      if pg.status <> Torn then
        match Hashtbl.find_opt st.Journal.pages (Resource.tag pg.resource, pg.idx) with
        | Some p ->
            Vmm.restore_entry vmm ~resource:pg.resource ~idx:pg.idx
              ~version:p.Journal.version ~iv:p.Journal.iv ~mac:p.Journal.mac
        | None -> ())
    pages;
  Vmm.inherit_generations vmm st;
  List.iter (fun r -> Vmm.quarantine vmm r Violation.Torn_state) torn_resources;
  {
    epoch = loaded.Journal.repoch;
    replayed = loaded.Journal.replayed;
    pages;
    generations =
      Hashtbl.fold (fun id (gen, _, _) acc -> (id, gen) :: acc) st.Journal.gens []
      |> List.sort compare;
    quarantined = torn_resources;
  }
