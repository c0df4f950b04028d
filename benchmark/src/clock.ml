(* Host wall clock: CLOCK_MONOTONIC in nanoseconds. Every host-time figure
   the benchmark prints comes from here; model cycles come from the VMM's
   cost account instead. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
