(** The one authenticated container for bytes the VMM hands to the OS.

    Every blob a cloaked process's state travels in while the untrusted
    OS holds it — sealed checkpoints ({!Seal}), exported file metadata
    ({!Vmm.export_metadata}), the journal's superblocks and checkpoints
    ({!Journal}) and live-migration frames ({!Migrate}) — has one shape:
    a header line of fields joined by ['|'] and ended by a newline, then
    the payload, then a 32-byte HMAC-SHA256 trailer over everything
    before it. Each format keeps its own magic, field list and payload
    parser; this module owns only the framing and the MAC, so the check
    "authenticate before parsing" is written once. *)

val wrap : key:bytes -> string list -> bytes -> bytes
(** [wrap ~key fields payload] is [f1|...|fn\n ^ payload ^ mac]. Raises
    [Invalid_argument] if a field holds ['|'] or a newline. *)

val unwrap :
  key:bytes -> bytes -> (string list * bytes, [ `Bad_mac | `Malformed ]) result
(** Verify the trailer before reading any other byte, then split the
    header line into its fields. [`Bad_mac] when the blob is shorter than
    the trailer or the MAC fails (a flip, a truncation, a foreign key);
    [`Malformed] when the authenticated bytes hold no header line. Never
    raises. *)
