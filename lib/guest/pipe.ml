type t = {
  id : int;
  ring : bytes;
  mutable rpos : int;
  mutable count : int;
  mutable readers : int;
  mutable writers : int;
}

let create ~id ~capacity =
  if capacity <= 0 then invalid_arg "Pipe.create: capacity must be positive";
  { id; ring = Bytes.create capacity; rpos = 0; count = 0; readers = 0; writers = 0 }

let id t = t.id
let readers t = t.readers
let writers t = t.writers
let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1
let close_reader t = t.readers <- t.readers - 1
let close_writer t = t.writers <- t.writers - 1

let capacity t = Bytes.length t.ring

let read_into t vmm ~ctx ~vaddr ~len =
  if t.count = 0 then if t.writers = 0 then `Eof else `Empty
  else begin
    let n = min len t.count in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set out i (Bytes.get t.ring ((t.rpos + i) mod capacity t))
    done;
    (* copy to the user buffer BEFORE consuming the ring: the copy can
       page-fault and be retried by the kernel, and a retry must still find
       the data *)
    Cloak.Vmm.write vmm ~ctx ~vaddr out;
    t.rpos <- (t.rpos + n) mod capacity t;
    t.count <- t.count - n;
    Cloak.Vmm.charge_copy vmm ~bytes_count:n;
    `Data n
  end

let write_from t vmm ~ctx ~vaddr ~len =
  if t.readers = 0 then `Broken
  else if t.count = capacity t then `Full
  else begin
    let n = min len (capacity t - t.count) in
    let data = Cloak.Vmm.read vmm ~ctx ~vaddr ~len:n in
    let wpos = (t.rpos + t.count) mod capacity t in
    for i = 0 to n - 1 do
      Bytes.set t.ring ((wpos + i) mod capacity t) (Bytes.get data i)
    done;
    t.count <- t.count + n;
    Cloak.Vmm.charge_copy vmm ~bytes_count:n;
    `Wrote n
  end
