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

let disk vmm f =
  let disk_op = (Cost.model (Cloak.Vmm.cost vmm)).disk_op in
  with_backoff ~deadline_cycles:(16 * disk_op) ~limit:3
    ~retryable:(function Blockdev.Io_error _ -> true | _ -> false)
    ~charge:(fun ~cycles ->
      let c = Cloak.Vmm.counters vmm in
      c.io_retries <- c.io_retries + 1;
      Cloak.Vmm.charge vmm cycles)
    ~base_cost:disk_op ~exhausted:(Errno.Error EIO) f
