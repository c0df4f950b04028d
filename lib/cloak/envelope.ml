(* The authenticated blob format shared by every OS-visible VMM blob. See
   envelope.mli. *)

let tag_len = 32

let wrap ~key fields payload =
  List.iter
    (fun f ->
      if String.contains f '|' || String.contains f '\n' then
        invalid_arg "Envelope.wrap: a field may not hold '|' or a newline")
    fields;
  let header = String.concat "|" fields ^ "\n" in
  let body = Bytes.cat (Bytes.of_string header) payload in
  Bytes.cat body (Oscrypto.Hmac.mac ~key body)

let unwrap ~key blob =
  let total = Bytes.length blob in
  if total < tag_len then Error `Bad_mac
  else
    let body = Bytes.sub blob 0 (total - tag_len) in
    let tag = Bytes.sub blob (total - tag_len) tag_len in
    if not (Oscrypto.Hmac.verify ~key ~tag body) then Error `Bad_mac
    else
      (* everything below sits behind a valid VMM MAC *)
      match Bytes.index_opt body '\n' with
      | None -> Error `Malformed
      | Some nl ->
          Ok
            ( String.split_on_char '|' (Bytes.sub_string body 0 nl),
              Bytes.sub body (nl + 1) (Bytes.length body - nl - 1) )
