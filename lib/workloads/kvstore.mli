(** A key-value store server (the paper's motivating "protect the database
    server" scenario) and a closed-loop client. The server keeps its value
    arena in (cloakable) heap memory and talks to the client over pipes.
    Wire format: fixed-size records — op byte, 24-byte key, 4-digit length,
    value. *)

type config = {
  entries : int;       (** distinct keys in play *)
  value_bytes : int;   (** size of every value *)
  operations : int;    (** client round trips (mix of SET and GET) *)
}

val default : config

val server : config -> use_shim:bool -> request_fd:int -> response_fd:int -> Guest.Abi.program
(** Serve until the quit request; exits 0. *)

val client : config -> request_fd:int -> response_fd:int -> Guest.Abi.program
(** Issue the operation mix, verifying every GET against the model; exits
    0 only if all responses check out. *)

val run : config -> cloak_server:bool -> Guest.Abi.program
(** The E3 kvstore row: a {!Pair} of the server (with the shim; cloaked
    when [cloak_server]) and the uncloaked client in the calling process,
    which exits 0 only if all responses check out. *)
