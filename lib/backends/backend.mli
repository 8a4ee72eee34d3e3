(** The shared machine-backend interface.

    A {e backend} is an operational memory model under which the behaviors
    of a concurrent [Lang] program (one statement per thread) can be
    enumerated exhaustively over a finite value domain.  The zoo behind
    this signature spans the strength spectrum:

    - [sc] — sequentially consistent interleaving ({!Sc});
    - [catchfire] — SC where any data race is UB ({!Catchfire});
    - [tso] — x86-TSO with per-thread FIFO store buffers ({!Tso});
    - [armv8] — ARMv8-flavoured local reordering ({!Armv8});
    - [ps] — the paper's PS_na promising machine ({!Promising.Machine}).

    All backends share {!Promising.Explore}'s behavior type, behavior set
    and result record, so behavior sets from different models compare
    directly — that is what the E15 differential grid and the
    SC ⊆ TSO ⊆ ARMv8 inclusion property are built on.  Every machine is
    one search over a different step relation: [sc], [tso], [armv8] and
    PS_na are each a {!Promising.Explore.STEP} of {!Promising.Explore.Make}
    ([catchfire] is derived from [sc]'s result).  See docs/BACKENDS.md. *)

open Lang

(** Re-export of {!Promising.Explore.behavior}: per-thread return value
    and output trace, or ⊥ for a UB run. *)
type behavior = Promising.Explore.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

module Behavior_set = Promising.Explore.Behavior_set

(** Re-export of {!Promising.Explore.result}: what every backend's
    exploration reports. *)
type result = Promising.Explore.result = {
  behaviors : Behavior_set.t;
  races : bool;  (** some explored execution contained a data race *)
  truncated : bool;  (** [max_states] hit: the behavior set may be partial *)
  states : int;  (** distinct states explored *)
}

(** The signature every machine implements.  [explore] enumerates the
    behaviors of a concurrent program (one statement per thread) over
    [values] (the finite choice/read domain), visiting at most
    [max_states] distinct states (default
    {!Promising.Explore.default_max_states}; beyond that the result is
    marked [truncated]).  [budget] (default {!Engine.Budget.unlimited}, a no-op)
    is charged one state per distinct state; on exhaustion
    {!Engine.Budget.Exhausted} escapes, to be caught at a verdict
    boundary. *)
module type MACHINE = sig
  val name : string

  val explore :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    Stmt.t list ->
    result
end

(** [refines ~src ~tgt]: every target behavior is ⊑-matched by a source
    behavior; a source ⊥ matches everything (Def 5.3 lifted to any
    backend). *)
val refines : src:result -> tgt:result -> bool

(** [subset ~small ~big]: behavior-set inclusion, the per-row E15 chain
    check (SC ⊆ TSO ⊆ ARMv8). *)
val subset : small:result -> big:result -> bool
