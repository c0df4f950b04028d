(** Faults raised along the memory-access path. *)

type access = Read | Write

type page_fault_kind =
  | Not_present   (** no guest translation for the VPN *)
  | Protection    (** write to a read-only mapping, or user access to a
                      supervisor mapping *)

type page_fault = {
  vpn : Addr.vpn;
  access : access;
  kind : page_fault_kind;
}

exception Guest_page_fault of page_fault
(** A true fault: the VMM injects it into the guest OS, whose handler must
    resolve it (demand-fill, swap-in, COW) and retry. *)

val guest_fault : Addr.vpn -> access -> page_fault_kind -> 'a

exception Machine_check of string
(** Simulated hardware detected inconsistent state — e.g. a stale TLB or
    shadow translation reaching a machine page that is no longer allocated
    (possible only under fault injection or a hostile guest kernel). Not
    resolvable by the guest; the kernel's containment layer kills the
    affected process instead of letting the machine unwind. *)

val machine_check : ('a, Format.formatter, unit, 'b) format4 -> 'a
