(** The one bounded breadth-first explorer behind every interleaving
    machine ({!Sc}, {!Tso}, {!Armv8}; {!Catchfire} is derived from
    {!Sc}'s result).

    The machines are one interleaving search that differs only in its
    step relation, so a machine supplies just that relation as a
    {!STEP}; {!Make} owns everything else — the visited set, the
    [max_states] truncation, the per-state budget contract
    ({!Engine.Budget.spend_state} on every new state,
    {!Engine.Budget.check} on every pop, so a deadline or a state budget
    stops the search mid-run), behavior collection (terminal behaviors
    and ⊥ for every [`Ub] step) and the {!Backend.result} record.
    See docs/BACKENDS.md. *)

open Lang

(** A machine's step relation. *)
module type STEP = sig
  val name : string

  type state

  (** The initial state of a program, one statement per thread. *)
  val init : Stmt.t list -> state

  (** [successors values st tid]: the steps of thread [tid] from [st],
      in the order they are explored; [values] is the finite
      choice/read domain.  [`Ub] is an undefined-behavior step. *)
  val successors : Value.t list -> state -> int -> [ `Next of state | `Ub ] list

  (** The behavior of a terminal state, [None] for a non-terminal one. *)
  val terminal : state -> Backend.behavior option

  (** A data race occurred on the path into this state. *)
  val raced : state -> bool

  (** The state key: states that compare equal are explored once. *)
  val compare : state -> state -> int
end

(** [set_nth l i v]: [l] with its [i]-th element replaced by [v]. *)
val set_nth : 'a list -> int -> 'a -> 'a list

(** The behavior of a run whose threads are [progs] with output traces
    [outs] (most recent first): [Some (Ret _)] once every thread has
    terminated. *)
val returned : Prog.state list -> Value.t list list -> Backend.behavior option

module Make (S : STEP) : sig
  include Backend.MACHINE

  (** [explore] that also folds [f] over every explored state, in
      exploration order. *)
  val fold :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    f:('a -> S.state -> 'a) ->
    init:'a ->
    Stmt.t list ->
    Backend.result * 'a
end
