(** The client–server pair behind the webserver and key-value workloads
    and the pipe round-trip microbenchmark: a request pipe from client to
    server and a response pipe back (the simulation's loopback socket). *)

val connect :
  Uapi.t -> server:(request_fd:int -> response_fd:int -> Guest.Abi.program) -> int * int
(** Fork [server] on the far ends of a fresh request pipe and response
    pipe; returns the caller's ends, [(request_fd, response_fd)]. *)

val run :
  Uapi.t ->
  cloak_server:bool ->
  server:(request_fd:int -> response_fd:int -> Guest.Abi.program) ->
  client:(request_fd:int -> response_fd:int -> Guest.Abi.program) ->
  unit
(** {!connect} a child that execs the [server] image, cloaked when
    [cloak_server], then run [client] in the calling process. *)
