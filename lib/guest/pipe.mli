(** Kernel pipes. The ring buffer is kernel-private, but all data enters and
    leaves through the kernel's Sys view of user buffers — so piping cloaked
    data without the shim's marshaling triggers page encrypt/decrypt storms,
    exactly the overhead the shim exists to avoid. *)

type t

val create : id:int -> capacity:int -> t
val id : t -> int
val readers : t -> int
val writers : t -> int
val add_reader : t -> unit
val add_writer : t -> unit
val close_reader : t -> unit
val close_writer : t -> unit

val read_into :
  t -> Cloak.Vmm.t -> ctx:Cloak.Context.t -> vaddr:Machine.Addr.vaddr -> len:int ->
  [ `Data of int | `Empty | `Eof ]
(** Copy up to [len] buffered bytes to the user buffer. [`Empty] means the
    caller should block (writers still exist); [`Eof] means drained and no
    writers remain. *)

val write_from :
  t -> Cloak.Vmm.t -> ctx:Cloak.Context.t -> vaddr:Machine.Addr.vaddr -> len:int ->
  [ `Wrote of int | `Full | `Broken ]
(** Copy up to [len] bytes from the user buffer. [`Full] means the caller
    should block; [`Broken] means no readers remain (SIGPIPE territory). *)
