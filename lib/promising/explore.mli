(** The one bounded breadth-first explorer behind every machine: the
    interleaving machines of [Backends] ([Sc], [Tso], [Armv8];
    [Catchfire] is derived from [Sc]'s result) and PS_na
    ({!Machine.explore}).

    The machines are one interleaving search that differs only in its
    step relation, so a machine supplies just that relation as a
    {!STEP}; {!Make} owns everything else — the visited set (of state
    keys), the [max_states] truncation, the per-state budget contract
    ({!Engine.Budget.spend_state} on every new state,
    {!Engine.Budget.check} on every pop, so a deadline or a state budget
    stops the search mid-run), behavior collection (terminal behaviors
    and ⊥ for every [`Ub] step), the early stop at ⊥ and the {!result}
    record.  See docs/BACKENDS.md. *)

open Lang

(** A behavior: per-thread return value and output sequence, or ⊥ for a
    UB run (Def 5.2 + footnote 10).  Every machine reports this type, so
    behavior sets from different models compare directly. *)
type behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

val compare_behavior : behavior -> behavior -> int

module Behavior_set : Set.S with type elt = behavior

(** What every exploration reports. *)
type result = {
  behaviors : Behavior_set.t;
  races : bool;  (** some explored execution contained a data race *)
  truncated : bool;  (** [max_states] hit: the behavior set may be partial *)
  states : int;  (** distinct states explored *)
}

(** The [max_states] of an exploration that names none. *)
val default_max_states : int

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
  val terminal : state -> behavior option

  (** A data race occurred on the path into this state. *)
  val raced : state -> bool

  (** A state's identity: states with equal keys are explored once, and
      the visited set holds only keys. *)
  type key

  val key : state -> key
  val compare : key -> key -> int
end

(** [set_nth l i v]: [l] with its [i]-th element replaced by [v]. *)
val set_nth : 'a list -> int -> 'a -> 'a list

(** The behavior of a run whose threads are [progs] with output traces
    [outs] (most recent first): [Some (Ret _)] once every thread has
    terminated. *)
val returned : Prog.state list -> Value.t list list -> behavior option

module Make (S : STEP) : sig
  val name : string

  (** Enumerate the behaviors of a concurrent program (one statement
      per thread) over [values] (default {!Domain.default_values}),
      visiting at most [max_states] (default {!default_max_states})
      distinct states; beyond that the result is marked [truncated].
      [budget] (default {!Engine.Budget.unlimited}, a no-op) is charged
      one state per distinct state; on exhaustion
      {!Engine.Budget.Exhausted} escapes. *)
  val explore :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    Stmt.t list ->
    result

  (** [explore] that also folds [f] over every explored state, in
      exploration order.  [until_ub] (default [false]) stops after the
      pop that yielded a [`Ub] step — sound when the caller only needs
      the behaviors of a refinement {e source} (⊥ subsumes
      everything). *)
  val fold :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    ?until_ub:bool ->
    f:('a -> S.state -> 'a) ->
    init:'a ->
    Stmt.t list ->
    result * 'a
end
