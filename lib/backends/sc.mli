(** The sequentially consistent interleaving machine, with {!Hb}'s
    happens-before race detection.  It is the paper's SC comparison
    point, the base of {!Catchfire} (E6), and the SC side of the
    DRF-guarantee experiments (E7, [Baselines.Drf]).  Every SC
    execution is a TSO execution that drains each store immediately —
    the lower link of the SC ⊆ TSO ⊆ ARMv8 chain. *)

open Lang

include Backend.MACHINE

(** {!explore}, plus the locations of the strict races — conflicting
    unordered pairs of any access modes — over every explored
    interleaving: the DRF-SC premise is that this set is empty (nothing
    in the fragment is an SC atomic), the DRF-LOCK premise that it lies
    within the lock locations. *)
val explore_strict :
  ?values:Value.t list ->
  ?max_states:int ->
  ?budget:Engine.Budget.t ->
  Stmt.t list ->
  Backend.result * Loc.Set.t
