(* Bounded ring: a Queue of retained lines plus a count of evictions.
   Sequence stamps come from the monotone [seq] so the retained window of
   two same-seed runs is still comparable line-for-line even after the
   ring has wrapped. *)

type t = {
  ring : string Queue.t;
  cap : int;
  mutable seq : int;
  mutable dropped : int;
}

let default_cap = 65536

let create ?(cap = default_cap) () =
  { ring = Queue.create (); cap = max 1 cap; seq = 0; dropped = 0 }

let record t fmt =
  Format.kasprintf
    (fun line ->
      if Queue.length t.ring >= t.cap then begin
        ignore (Queue.pop t.ring);
        t.dropped <- t.dropped + 1
      end;
      Queue.push (Printf.sprintf "#%03d %s" t.seq line) t.ring;
      t.seq <- t.seq + 1)
    fmt

let lines t = List.of_seq (Queue.to_seq t.ring)
let count t = t.seq
let dropped t = t.dropped
