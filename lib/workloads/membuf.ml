type t = { u : Uapi.t; base : Machine.Addr.vaddr; elems : int }

let alloc u ~elems = { u; base = Uapi.malloc u (8 * elems); elems }

let check t i = if i < 0 || i >= t.elems then invalid_arg "Membuf: index out of bounds"

let get t i =
  check t i;
  let b = Uapi.load t.u ~vaddr:(t.base + (8 * i)) ~len:8 in
  Int64.to_int (Bytes.get_int64_le b 0)

let set t i v =
  check t i;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Uapi.store t.u ~vaddr:(t.base + (8 * i)) b

type bytes_view = { bu : Uapi.t; bbase : Machine.Addr.vaddr; blen : int }

let alloc_bytes u ~len = { bu = u; bbase = Uapi.malloc u len; blen = len }

let check_b v i = if i < 0 || i >= v.blen then invalid_arg "Membuf: byte index out of bounds"

let get_byte v i =
  check_b v i;
  Uapi.load_byte v.bu ~vaddr:(v.bbase + i)

let set_byte v i x =
  check_b v i;
  Uapi.store_byte v.bu ~vaddr:(v.bbase + i) x
