(** Packed identity of PS_na states.

    Two machine states are identified when they agree up to
    order-isomorphism of the per-location timestamp orders: every
    timestamp is replaced by its rank among its location's messages
    (0 = the initialisation message), computed once per memory.  Views
    become int arrays over the sorted location footprint, and memories
    and thread states (program-state id, views, promises, outputs,
    promise count) are hash-consed into small ids, so a state's identity
    is its memory id and one thread id per thread.  A thread id is only
    meaningful next to the id of the memory it was interned against.

    The tables belong to one exploration or to one {!Machine.memo}
    context; never share them across domains. *)

type t
(** Intern tables: program states, memories, threads. *)

val create : unit -> t

type memory
(** An interned memory: its id and its timestamp ranks. *)

val memory : t -> Memory.t -> memory
(** Intern a memory.  Memories of different footprints never share an
    id.  @raise Invalid_argument if a message view mentions a location
    the memory does not hold, or a timestamp no message of that location
    carries. *)

val memory_id : memory -> int

val thread : t -> memory -> Thread.t -> int
(** Intern a thread state against the ranks of [memory].
    @raise Invalid_argument as {!memory}, for the thread's views and
    promises. *)

val single_key : memory -> int -> int
(** A single-thread state's key, as certification sees it: the memory id
    and a thread id packed into one int.
    @raise Invalid_argument if either id needs more than 31 bits. *)

val state_key : memory -> int array -> string
(** A whole state's key: the memory id and the thread ids, byte-packed. *)
