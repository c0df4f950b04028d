(* The one bounded retry-with-backoff policy shared by every transient-
   error path in the guest (page cache, swap, journal store) and by the
   migration driver (migration.ml). See retry.mli. *)

open Machine

exception Deadline_exceeded

let with_backoff ?deadline_cycles ?jitter ~limit ~retryable ~charge ~base_cost
    ~exhausted f =
  if limit < 0 then invalid_arg "Retry.with_backoff: negative limit";
  if base_cost < 0 then invalid_arg "Retry.with_backoff: negative base_cost";
  (match deadline_cycles with
  | Some d when d < 0 -> invalid_arg "Retry.with_backoff: negative deadline"
  | _ -> ());
  let spent = ref 0 in
  let rec go attempt =
    try f ()
    with e when retryable e ->
      let backoff = base_cost * (1 lsl attempt) in
      let backoff =
        match jitter with
        | None -> backoff
        | Some r when backoff > 0 -> backoff + Oscrypto.Prng.int r backoff
        | Some _ -> backoff
      in
      charge ~cycles:backoff;
      spent := !spent + backoff;
      let past_deadline =
        match deadline_cycles with Some d -> !spent > d | None -> false
      in
      if attempt >= limit || past_deadline then raise exhausted
      else go (attempt + 1)
  in
  go 0

let io_retry_limit = 3

(* Hard ceiling on the cumulative backoff the disk instance may charge.
   A full limit-3 exhaustion costs 15 × disk_op (1+2+4+8), so 16 × disk_op
   never binds on the fault-free or environmental-fault paths — but a
   hostile kernel feeding the guest eternal EIO (or a future caller raising
   the limit) degrades within a bounded cycle budget instead of stalling
   the cloaked process at the device's pleasure. *)
let io_deadline_cycles vmm = 16 * (Cost.model (Cloak.Vmm.cost vmm)).disk_op

let disk ?deadline_cycles ?jitter vmm f =
  with_backoff ?deadline_cycles ?jitter ~limit:io_retry_limit
    ~retryable:(function Blockdev.Io_error _ -> true | _ -> false)
    ~charge:(fun ~cycles ->
      let c = Cloak.Vmm.counters vmm in
      c.io_retries <- c.io_retries + 1;
      Cloak.Vmm.charge vmm cycles)
    ~base_cost:(Cost.model (Cloak.Vmm.cost vmm)).disk_op
    ~exhausted:(Errno.Error EIO) f
