(** Shared backend interface: result type, signature, refinement (see
    backend.mli). *)

open Lang

type behavior = Promising.Explore.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

module Behavior_set = Promising.Explore.Behavior_set

type result = Promising.Explore.result = {
  behaviors : Behavior_set.t;
  races : bool;
  truncated : bool;
  states : int;
}

module type MACHINE = sig
  val name : string

  val explore :
    ?values:Value.t list ->
    ?max_states:int ->
    ?budget:Engine.Budget.t ->
    Stmt.t list ->
    result
end

let refines ~(src : result) ~(tgt : result) : bool =
  Promising.Machine.refines ~src:src.behaviors ~tgt:tgt.behaviors

let subset ~(small : result) ~(big : result) : bool =
  Behavior_set.subset small.behaviors big.behaviors
