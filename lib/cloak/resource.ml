type t = Anon of int | Shm of int

let equal a b =
  match (a, b) with
  | Anon x, Anon y | Shm x, Shm y -> x = y
  | Anon _, Shm _ | Shm _, Anon _ -> false

let tag = function
  | Anon x -> Printf.sprintf "anon:%d" x
  | Shm x -> Printf.sprintf "shm:%d" x

let of_tag s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      let kind = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | None -> None
      | Some n -> (
          match kind with
          | "anon" -> Some (Anon n)
          | "shm" -> Some (Shm n)
          | _ -> None))
