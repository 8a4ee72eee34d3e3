(* Baselines: SC interleaving with race detection, the catch-fire
   comparison (E6 — load introduction is unsound under catch-fire but sound
   under SEQ/PS_na), and DRF guarantees (E7). *)

open Lang
module M = Promising.Machine
module B = Backends.Backend
module Sc = Backends.Sc
module Cf = Backends.Catchfire

let threads = Parser.threads_of_string
let test name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg
let ret vs = M.Ret (List.map (fun v -> (v, [])) vs)
let i n = Value.Int n

let suite =
  [
    test "SC forbids SB both-zero" (fun () ->
        let r =
          Sc.explore
            (threads
               "Y.store(rlx,1); a = Z.load(rlx); return a ||| \
                Z.store(rlx,1); b = Y.load(rlx); return b")
        in
        check_bool "no 0,0 under SC" false
          (B.Behavior_set.mem (ret [ i 0; i 0 ]) r.B.behaviors));
    test "SC race detection: na conflict races, atomics do not" (fun () ->
        let racy = Sc.explore (threads "X.store(na,1) ||| a = X.load(na); return a") in
        check_bool "na race" true racy.B.races;
        let atomic, strict =
          Sc.explore_strict
            (threads "Y.store(rlx,1) ||| a = Y.load(rlx); return a")
        in
        check_bool "no na race" false atomic.B.races;
        check_bool "but a strict race" true (Loc.Set.mem (Loc.make "Y") strict));
    test "SC: rel-acq synchronisation removes the race" (fun () ->
        let r =
          Sc.explore
            (threads
               "X.store(na,1); Y.store(rel,1) ||| \
                a = Y.load(acq); if a == 1 { b = X.load(na) }; return b")
        in
        check_bool "race-free" false r.B.races);
    test "SC: lock via CAS removes the race" (fun () ->
        let r =
          Sc.explore
            (threads
               "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
                L.store(rel, 0) ||| \
                b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
                L.store(rel, 0); return c")
        in
        check_bool "race-free" false r.B.races);
    (* E6: load introduction across the three semantics *)
    test "E6: load introduction sound in PS_na, unsound under catch-fire"
      (fun () ->
        let src = "return 0" in
        let tgt = "a = X.load(na); return 0" in
        let ctx = "X.store(na, 1); return 0" in
        let ps_src = M.explore (threads (src ^ " ||| " ^ ctx)) in
        let ps_tgt = M.explore (threads (tgt ^ " ||| " ^ ctx)) in
        check_bool "PS_na refines" true
          (M.refines ~src:ps_src.M.behaviors ~tgt:ps_tgt.M.behaviors);
        let cf_src = Cf.explore (threads (src ^ " ||| " ^ ctx)) in
        let cf_tgt = Cf.explore (threads (tgt ^ " ||| " ^ ctx)) in
        check_bool "target catches fire" true (B.Behavior_set.mem B.Bot cf_tgt.B.behaviors);
        check_bool "source does not" false (B.Behavior_set.mem B.Bot cf_src.B.behaviors);
        check_bool "catch-fire refuses" false (B.refines ~src:cf_src ~tgt:cf_tgt));
    test "E6: LICM (Ex 1.3) introduces a racy load under catch-fire"
      (fun () ->
        (* the loop never executes: b starts at 1 *)
        let src = "b = 1; while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a" in
        let tgt =
          "b = 1; c = X.load(na); while b == 0 { a = c; b = Y.load(rlx) }; return a"
        in
        let ctx = "X.store(na, 2); return 0" in
        let cf_src = Cf.explore (threads (src ^ " ||| " ^ ctx)) in
        let cf_tgt = Cf.explore (threads (tgt ^ " ||| " ^ ctx)) in
        check_bool "catch-fire refuses LICM" false
          (B.refines ~src:cf_src ~tgt:cf_tgt);
        let ps_src = M.explore (threads (src ^ " ||| " ^ ctx)) in
        let ps_tgt = M.explore (threads (tgt ^ " ||| " ^ ctx)) in
        check_bool "PS_na accepts LICM" true
          (M.refines ~src:ps_src.M.behaviors ~tgt:ps_tgt.M.behaviors));
    (* E7: DRF guarantees *)
    test "E7: DRF-PF holds on MP-rel-acq" (fun () ->
        let r =
          Baselines.Drf.check
            (threads
               "X.store(na,1); Y.store(rel,1); return 0 ||| \
                a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b")
        in
        check_bool "premise" true r.Baselines.Drf.pf_race_free;
        check_bool "conclusion" true r.Baselines.Drf.drf_pf_holds);
    test "E7: DRF-PF premise fails on LB-rlx (rlx race), so no claim"
      (fun () ->
        let r =
          Baselines.Drf.check
            (threads
               "a = Y.load(rlx); Z.store(rlx,1); return a ||| \
                b = Z.load(rlx); Y.store(rlx,1); return b")
        in
        check_bool "premise fails" false r.Baselines.Drf.pf_race_free;
        (* and indeed full ≠ promise-free: LB needs promises *)
        check_bool "full has more behaviors" false
          (M.Behavior_set.equal r.Baselines.Drf.full r.Baselines.Drf.promise_free));
    test "E7: DRF-LOCK holds on the lock program" (fun () ->
        (* the CAS/release traffic on L itself races under the strict
           notion — exactly why the applicable guarantee is DRF-LOCK, with
           the lock location exempted *)
        let r =
          Baselines.Drf.check
            ~params:{ Promising.Thread.default_params with promise_budget = 0 }
            ~lock_locs:(Lang.Loc.Set.singleton (Lang.Loc.make "L"))
            (threads
               "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
                L.store(rel, 0); return 0 ||| \
                b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
                L.store(rel, 0); return c")
        in
        check_bool "strict races confined to L" true
          r.Baselines.Drf.lock_race_free;
        check_bool "plain DRF-SC premise fails (locks race)" false
          r.Baselines.Drf.sc_race_free;
        check_bool "conclusion" true r.Baselines.Drf.drf_lock_holds);
    test "E7: DRF-SC premise fails on SB (no claim)" (fun () ->
        let r =
          Baselines.Drf.check
            (threads
               "Y.store(rel,1); a = Z.load(acq); return a ||| \
                Z.store(rel,1); b = Y.load(acq); return b")
        in
        check_bool "premise fails" false r.Baselines.Drf.sc_race_free);
  ]
