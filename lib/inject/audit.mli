(** Bounded audit trail shared by the fault-injection engine, the VMM
    and the guest kernel's containment layer. Entries are sequence-numbered
    in the order they happen, so two runs of the same seeded scenario must
    produce bit-identical logs — the chaos harness's replay invariant.

    The in-memory log is a ring: once [cap] entries are retained, each new
    entry evicts the oldest and bumps a dropped counter. Determinism is
    asserted over the retained window (identical caps on identical runs
    retain identical windows), so multi-million-cycle soaks stay bounded
    without weakening the invariant. *)

type t

val default_cap : int
(** Retained-entry limit used when [create] is given no [cap] — large
    enough that short runs never wrap. *)

val create : ?cap:int -> unit -> t
(** [create ?cap ()] makes an empty trail retaining at most [cap] entries
    (default {!default_cap}; values below 1 are clamped to 1). *)

val record : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append one formatted line, stamped with the next sequence number.
    Evicts the oldest retained line when the ring is full. *)

val lines : t -> string list
(** Retained entries, oldest first. *)

val count : t -> int
(** Total entries ever recorded, including dropped ones. *)

val dropped : t -> int
(** Entries evicted from the ring so far. *)
