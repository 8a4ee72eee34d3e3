(** PS_na machine states, certification, exhaustive bounded exploration,
    and behavioral refinement (§5, Def 5.2/5.3).

    Exploration is {!Explore.Make}'s search, the one every machine
    shares: PS_na's step relation is a thread step kept only if the
    thread then certifies (Fig 5), and states are deduplicated up to
    order-isomorphism of the per-location timestamp orders, by their
    packed identity ({!State_id}); promise steps, non-atomic write
    batches, and certification depth are bounded by {!Thread.params}
    (see DESIGN.md). *)

open Lang

type state = { threads : Thread.t list; memory : Memory.t }

(** A behavior: per-thread return value and output sequence, or ⊥ for a UB
    run (Def 5.2 + footnote 10) — {!Explore}'s, shared by every machine. *)
type behavior = Explore.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

val compare_behavior : behavior -> behavior -> int

module Behavior_set = Explore.Behavior_set

(** Fingerprint of the parameters certification verdicts depend on; a
    memo context keeps one verdict table per fingerprint, so explorations
    with differing params can share it. *)
val params_fingerprint : Thread.params -> string

(** A certification-memo context reusable across {!explore} calls — e.g.
    every context exploration of one adequacy row, or all tasks one sweep
    worker domain executes.  Not domain-safe: never share one across
    domains (that is the point — each worker owns its own).  Reuse never
    changes verdicts or state counts, only timing and hit counts. *)
type memo

val make_memo : unit -> memo

(** Cumulative certification-memo hits across all uses of this context. *)
val memo_hits : memo -> int

type result = {
  behaviors : Behavior_set.t;
  truncated : bool;  (** state budget exhausted: the set may be partial *)
  states : int;  (** distinct canonical states explored *)
  races : bool;  (** some state had an enabled racy access (race-helper) *)
  weak_races : bool;
      (** some state had a conflicting unseen message at an access of mode
          rlx or weaker — the DRF-PF premise *)
  memo_hits : int;
      (** certification-memo hits during this exploration — deterministic
          iff the memo context was not pre-warmed by other explorations *)
  cert_calls : int;
      (** certification calls during this exploration, memo hits
          included *)
}

(** Exhaustive bounded exploration of all PS_na behaviors of a concurrent
    program (one statement per thread).  [until_bot] stops once the state
    whose step reached ⊥ has been expanded ({!Explore.Make}'s [until_ub]) —
    sound when only the behaviors of a refinement {e source} are needed
    (⊥ subsumes everything).  [memo] shares certification verdicts
    with other explorations using the same context.  [budget] (default
    unlimited, a no-op) is charged one state per distinct canonical state
    and polled along the search, including inside certification; on
    exhaustion {!Engine.Budget.Exhausted} escapes — use {!explore_v} to
    get an [Error] instead.  (The per-exploration [max_states] param
    truncates instead of raising and is unaffected.) *)
val explore :
  ?params:Thread.params -> ?until_bot:bool -> ?memo:memo ->
  ?budget:Engine.Budget.t -> Stmt.t list -> result

(** Budgeted {!explore} that never raises: budget exhaustion and trapped
    exceptions (e.g. [Stack_overflow]) become [Error reason]. *)
val explore_v :
  ?params:Thread.params -> ?until_bot:bool -> ?memo:memo ->
  ?budget:Engine.Budget.t -> Stmt.t list ->
  (result, Engine.Verdict.reason) Stdlib.result

(** [⊑] on behaviors: pointwise value/output [⊑]; everything ⊑ ⊥. *)
val behavior_le : behavior -> behavior -> bool

(** [refines ~src ~tgt]: Def 5.3 — every target behavior is ⊑-matched by a
    source behavior (a source ⊥ matches everything). *)
val refines : src:Behavior_set.t -> tgt:Behavior_set.t -> bool

val pp_behavior : Format.formatter -> behavior -> unit
val pp_behaviors : Format.formatter -> Behavior_set.t -> unit
