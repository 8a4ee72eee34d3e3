(** Data-race-freedom guarantee experiments (E7; §5 "Results", following
    the DRF theorems of Cho et al. [8] that the paper ports to PS_na).

    - DRF-PF (promise-free): if no execution of the {e promise-free}
      machine has a race, then the full PS_na behaviors coincide with the
      promise-free behaviors.
    - DRF-SC (lock/RA-style): a program whose SC executions are race-free
      has exactly its SC behaviors under PS_na.

    These are checked empirically on given programs by running the three
    explorers and comparing behavior sets; the SC side is
    {!Backends.Sc}, whose strict races are the DRF-SC/DRF-LOCK
    premises. *)

open Lang
module M = Promising.Machine

type report = {
  pf_race_free : bool;
      (** no race involving a rlx-or-weaker access in any promise-free
          execution (the DRF-PF premise) *)
  sc_race_free : bool;
      (** no conflicting unordered pair at all in any SC interleaving (the
          DRF-SC premise; no access in the fragment is an SC atomic) *)
  lock_race_free : bool;
      (** conflicting unordered pairs confined to the designated lock
          locations (the DRF-LOCK premise) *)
  drf_pf_holds : bool;  (** pf race-free ⟹ full = promise-free behaviors *)
  drf_sc_holds : bool;  (** sc race-free ⟹ full = SC behaviors *)
  drf_lock_holds : bool;  (** lock race-free ⟹ full = SC behaviors *)
  full : M.Behavior_set.t;
  promise_free : M.Behavior_set.t;
  sc : M.Behavior_set.t;
}

let check ?(params = Promising.Thread.default_params)
    ?(lock_locs = Loc.Set.empty) (progs : Stmt.t list) : report =
  let full = M.explore ~params progs in
  let pf =
    M.explore ~params:{ params with Promising.Thread.promise_budget = 0 } progs
  in
  let sc, strict =
    Backends.Sc.explore_strict ~values:params.Promising.Thread.values progs
  in
  let pf_race_free = not pf.M.weak_races in
  let sc_race_free = Loc.Set.is_empty strict in
  let lock_race_free = Loc.Set.subset strict lock_locs in
  let same_as_sc =
    M.Behavior_set.equal full.M.behaviors sc.Backends.Backend.behaviors
  in
  let drf_pf_holds =
    (not pf_race_free) || M.Behavior_set.equal full.M.behaviors pf.M.behaviors
  in
  let drf_sc_holds = (not sc_race_free) || same_as_sc in
  let drf_lock_holds = (not lock_race_free) || same_as_sc in
  {
    pf_race_free;
    sc_race_free;
    lock_race_free;
    drf_pf_holds;
    drf_sc_holds;
    drf_lock_holds;
    full = full.M.behaviors;
    promise_free = pf.M.behaviors;
    sc = sc.Backends.Backend.behaviors;
  }
