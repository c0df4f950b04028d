(* SHA-256 (FIPS 180-4) on the host's 63-bit ints, masking to 32 bits.

   The round constants are the fractional parts of the cube roots of the
   first 64 primes and the initial state the fractional parts of the square
   roots of the first 8 primes; we derive them instead of transcribing the
   tables, and the FIPS test vectors in the test suite pin the result. *)

let mask32 = 0xFFFFFFFF

let first_primes n =
  let primes = Array.make n 0 in
  let count = ref 0 in
  let candidate = ref 2 in
  while !count < n do
    let is_prime =
      let rec check d = d * d > !candidate || (!candidate mod d <> 0 && check (d + 1)) in
      check 2
    in
    if is_prime then begin
      primes.(!count) <- !candidate;
      incr count
    end;
    incr candidate
  done;
  primes

let fractional_bits root p =
  let x = root (float_of_int p) in
  let frac = x -. Float.of_int (int_of_float x) in
  int_of_float (frac *. 4294967296.0) land mask32

let k = Array.map (fractional_bits Float.cbrt) (first_primes 64)
let h0 = Array.map (fractional_bits sqrt) (first_primes 8)

type t = {
  state : int array;          (* 8 words of 32 bits *)
  block : Bytes.t;            (* 64-byte input block being filled *)
  mutable block_len : int;    (* bytes currently in [block] *)
  mutable total_len : int;    (* total bytes absorbed *)
  mutable finalized : bool;
}

let init () =
  { state = Array.copy h0;
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
    finalized = false }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let compress state block off =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    w.(i) <-
      (Char.code (Bytes.get block (off + (4 * i))) lsl 24)
      lor (Char.code (Bytes.get block (off + (4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get block (off + (4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get block (off + (4 * i) + 3))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2)
  and d = ref state.(3) and e = ref state.(4) and f = ref state.(5)
  and g = ref state.(6) and h = ref state.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!h + s1 + ch + k.(i) + w.(i)) land mask32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    h := !g; g := !f; f := !e;
    e := (!d + t1) land mask32;
    d := !c; c := !b; b := !a;
    a := (t1 + t2) land mask32
  done;
  state.(0) <- (state.(0) + !a) land mask32;
  state.(1) <- (state.(1) + !b) land mask32;
  state.(2) <- (state.(2) + !c) land mask32;
  state.(3) <- (state.(3) + !d) land mask32;
  state.(4) <- (state.(4) + !e) land mask32;
  state.(5) <- (state.(5) + !f) land mask32;
  state.(6) <- (state.(6) + !g) land mask32;
  state.(7) <- (state.(7) + !h) land mask32

let feed t buf ~pos ~len =
  assert (not t.finalized);
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length buf);
  t.total_len <- t.total_len + len;
  let remaining = ref len and src = ref pos in
  while !remaining > 0 do
    let room = 64 - t.block_len in
    let chunk = min room !remaining in
    Bytes.blit buf !src t.block t.block_len chunk;
    t.block_len <- t.block_len + chunk;
    src := !src + chunk;
    remaining := !remaining - chunk;
    if t.block_len = 64 then begin
      compress t.state t.block 0;
      t.block_len <- 0
    end
  done

let feed_string t s =
  feed t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize t =
  assert (not t.finalized);
  t.finalized <- true;
  let bit_len = t.total_len * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
  let pad_len =
    let used = (t.total_len + 1) mod 64 in
    if used <= 56 then 56 - used else 120 - used
  in
  let tail = Bytes.make (1 + pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    Bytes.set tail
      (1 + pad_len + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  t.finalized <- false;
  feed t tail ~pos:0 ~len:(Bytes.length tail);
  t.finalized <- true;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = t.state.(i) in
    Bytes.set out (4 * i) (Char.chr ((word lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((word lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((word lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (word land 0xFF))
  done;
  out

let digest buf =
  let t = init () in
  feed t buf ~pos:0 ~len:(Bytes.length buf);
  finalize t

let digest_string s = digest (Bytes.of_string s)

let hex d =
  let b = Buffer.create (2 * Bytes.length d) in
  Bytes.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let out = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set out i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some out else None
