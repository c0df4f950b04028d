(** The Overshadow shim — the small user-level layer loaded into every
    cloaked application.

    Kernel copyin/copyout against cloaked buffers forces a page
    encrypt/decrypt round trip per touched page per syscall. The shim avoids
    that by marshaling syscall buffers through a small *uncloaked* region:
    the kernel only ever copies uncloaked memory, and the shim moves data
    between the marshal buffer and cloaked memory from inside the
    application's plaintext view.

    [install] maps the marshal buffer and replaces [env.dispatch], so the
    interposition is transparent to the program.

    The kernel under the shim is untrusted: every syscall result is
    paraverified against the shim's own marshaled request (bounds, shape,
    region backing) before any byte moves into cloaked memory. A detected
    lie is audited, counted ([hostile_lies_detected]) and retried
    {!paraverify_retries} times; a kernel that keeps lying gets a typed
    {!Hostile_os} refusal ([hostile_refusals]) the application can turn
    into bounded degradation instead of silent corruption. *)

exception Hostile_os of { call : string; reason : string }
(** The kernel's result for [call] contradicts the shim's own request and
    retries were exhausted: the syscall is refused rather than believed. *)

val paraverify_retries : int
(** Second chances a lying kernel gets before {!Hostile_os} (2). *)

type t

val install : Uapi.t -> t
(** Install the shim into a cloaked process (raises [Invalid_argument] for
    uncloaked ones). Idempotent per process: installing twice is an error. *)

val uapi : t -> Uapi.t
val marshal_vaddr : t -> Machine.Addr.vaddr
val marshal_bytes : t -> int
(** Size of the marshal buffer (chunks larger than this are split). *)

val direct_dispatch : t -> Guest.Abi.call -> Guest.Abi.value
(** The pre-interposition dispatcher: issue a syscall *without* marshaling
    (used by {!Shim_io} to move ciphertext, and by tests). *)

val store_uncloaked : t -> bytes -> Machine.Addr.vaddr
(** Place host bytes into the marshal buffer and return its address
    (helper for protocol payloads that must be OS-visible). *)

val checkpoint : t -> int
(** Quiesce-point hypercall: ask the supervisor to capture a sealed
    checkpoint now; returns the new seal generation. Raises
    [Guest.Errno.Error EINVAL] for unsupervised processes. *)

val paraverified :
  t ->
  name:string ->
  accept:(Guest.Abi.value -> 'a option) ->
  describe:(Guest.Abi.value -> string) ->
  Guest.Abi.call ->
  'a
(** The one paraverification loop. Issue the call through the direct
    dispatcher until [accept] returns the value the caller wants. Each
    result it turns down is a lie: audited as ["shim lie [name] reason"]
    (reason from [describe]) and counted. After {!paraverify_retries}
    retries the call is refused: audited, counted, and raised as
    {!Hostile_os}. {!Shim_io} uses it for its direct syscalls. *)
