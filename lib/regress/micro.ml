(* E2: syscall microbenchmarks — cycles per operation, native (uncloaked
   process on the same VMM) vs cloaked (shim installed), reproducing the
   paper's microbenchmark table. Lives in the regress library (not the
   bench executable) because the perf-regression sentinel replays the
   same suite against committed baselines; [measure] takes an optional
   VMM config so the sentinel's tests can inject a perturbed cost model. *)

open Machine
open Guest

type shape =
  | Simple of (Uapi.t -> unit -> unit)
      (** returns the op; setup runs before measurement *)
  | Paired of (Uapi.t -> request_fd:int -> response_fd:int -> unit -> unit)
      (** measured client of an uncloaked echo server *)

type micro = { name : string; iters : int; shape : shape }

let micro_getpid =
  { name = "getpid"; iters = 1000; shape = Simple (fun u () -> ignore (Uapi.getpid u)) }

let micro_open_close =
  {
    name = "open+close";
    iters = 200;
    shape =
      Simple
        (fun u ->
          let fd = Uapi.openf u "/bench-oc" [ Abi.O_CREAT ] in
          Uapi.close u fd;
          fun () -> Uapi.close u (Uapi.openf u "/bench-oc" [ Abi.O_RDONLY ]));
  }

let micro_stat =
  {
    name = "stat";
    iters = 400;
    shape =
      Simple
        (fun u ->
          let fd = Uapi.openf u "/bench-st" [ Abi.O_CREAT ] in
          Uapi.close u fd;
          fun () -> ignore (Uapi.stat u "/bench-st"));
  }

let micro_read4k =
  {
    name = "read 4 KiB";
    iters = 200;
    shape =
      Simple
        (fun u ->
          let fd = Uapi.openf u "/bench-rd" [ Abi.O_CREAT; Abi.O_RDWR ] in
          let buf = Uapi.malloc u 4096 in
          Uapi.store u ~vaddr:buf (Bytes.make 4096 'r');
          Uapi.write_exact u ~fd ~vaddr:buf ~len:4096;
          fun () ->
            ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
            ignore (Uapi.read_exact u ~fd ~vaddr:buf ~len:4096));
  }

let micro_write4k =
  {
    name = "write 4 KiB";
    iters = 200;
    shape =
      Simple
        (fun u ->
          let fd = Uapi.openf u "/bench-wr" [ Abi.O_CREAT; Abi.O_RDWR ] in
          let buf = Uapi.malloc u 4096 in
          Uapi.store u ~vaddr:buf (Bytes.make 4096 'w');
          fun () ->
            ignore (Uapi.lseek u ~fd ~pos:0 ~whence:Abi.Seek_set);
            Uapi.write_exact u ~fd ~vaddr:buf ~len:4096);
  }

let micro_signal =
  {
    name = "signal delivery";
    iters = 200;
    shape =
      Simple
        (fun u ->
          Uapi.on_signal u ~signum:Abi.sigusr1 (fun _ -> ());
          let self = Uapi.getpid u in
          fun () ->
            Uapi.kill u ~pid:self ~signum:Abi.sigusr1;
            Uapi.yield u);
  }

let micro_mmap =
  {
    name = "mmap+touch+munmap (4p)";
    iters = 100;
    shape =
      Simple
        (fun u () ->
          let start_vpn = Uapi.mmap u ~pages:4 () in
          for p = 0 to 3 do
            Uapi.store_byte u ~vaddr:(Addr.vaddr_of_vpn (start_vpn + p)) 1
          done;
          Uapi.munmap u ~start_vpn ~pages:4);
  }

let micro_fork =
  {
    name = "fork+wait";
    iters = 15;
    shape =
      Simple
        (fun u () ->
          let _ = Uapi.fork u ~child:(fun cenv -> Uapi.exit (Uapi.of_env cenv) 0) in
          ignore (Uapi.wait u));
  }

let micro_fork_exec =
  {
    name = "fork+exec+wait";
    iters = 15;
    shape =
      Simple
        (fun u () ->
          let _ =
            Uapi.fork u ~child:(fun cenv ->
                let cu = Uapi.of_env cenv in
                Uapi.exec cu (fun env2 -> Uapi.exit (Uapi.of_env env2) 0))
          in
          ignore (Uapi.wait u));
  }

let micro_pipe_rtt =
  {
    name = "pipe round-trip 64B";
    iters = 200;
    shape =
      Paired
        (fun u ~request_fd ~response_fd ->
          let buf = Uapi.malloc u 64 in
          Uapi.store u ~vaddr:buf (Bytes.make 64 'p');
          fun () ->
            Uapi.write_exact u ~fd:request_fd ~vaddr:buf ~len:64;
            ignore (Uapi.read_exact u ~fd:response_fd ~vaddr:buf ~len:64));
  }

let all =
  [
    micro_getpid;
    micro_read4k;
    micro_write4k;
    micro_open_close;
    micro_stat;
    micro_pipe_rtt;
    micro_signal;
    micro_mmap;
    micro_fork;
    micro_fork_exec;
  ]

(* the echo peer for Paired micros; it inherits the client's cloaking on
   fork, so it must install the shim before doing pipe I/O *)
let echo_server ~request_fd ~response_fd env =
  let u = Uapi.of_env env in
  if Uapi.cloaked u then ignore (Oshim.Shim.install u);
  let buf = Uapi.malloc u 64 in
  while Uapi.read_exact u ~fd:request_fd ~vaddr:buf ~len:64 = 64 do
    Uapi.write_exact u ~fd:response_fd ~vaddr:buf ~len:64
  done;
  Uapi.exit u 0

(* Run one micro and return cycles per operation. A Paired client just
   exits after its timed loop: the exit closes its pipe ends, so the echo
   server reads EOF and exits too. *)
let measure ?vconfig ~cloaked (m : micro) =
  let cycles, _ =
    Harness.time_program ?vconfig ~cloaked ~name:("micro " ^ m.name) (fun u ->
        if cloaked then ignore (Oshim.Shim.install u);
        let op =
          match m.shape with
          | Simple setup -> setup u
          | Paired setup ->
              let request_fd, response_fd =
                Workloads.Pair.connect u ~server:echo_server
              in
              setup u ~request_fd ~response_fd
        in
        op ();
        fun () ->
          for _ = 1 to m.iters do
            op ()
          done)
  in
  cycles / m.iters

let table () =
  let rows =
    List.map
      (fun m ->
        let native = measure ~cloaked:false m in
        let cloaked = measure ~cloaked:true m in
        [
          m.name;
          string_of_int native;
          string_of_int cloaked;
          Harness.Table.ratio native cloaked;
        ])
      all
  in
  Harness.Table.print ~title:"E2: syscall microbenchmarks (cycles per op)"
    ~note:"native = uncloaked process on the same VMM; cloaked = with Overshadow shim"
    ~headers:[ "operation"; "native"; "cloaked"; "slowdown" ]
    rows
