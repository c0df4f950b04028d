(* One-line rendering of a [Report.t], with every digit of each float.
   The result line and each run-log line must be single lines, and a
   measured value keeps all its digits; [Report.to_string] indents and
   rounds floats to six significant digits. Reading goes through
   [Report.of_string]. *)

(* Shortest decimal that reads back to the same float. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go prec =
      let s = Printf.sprintf "%.*g" prec f in
      if prec >= 17 || float_of_string s = f then s else go (prec + 1)
    in
    go 1

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string : Report.t -> string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Float f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
      ^ "}"
