(** Weak-memory exploration: message passing, promises, and races.

    Run with: dune exec examples/message_passing.exe

    Explores the PS_na behaviors of classic concurrent idioms and the
    paper's Example 5.1, and contrasts them with the SC and catch-fire
    baselines. *)

open Promising_seq
open Lang

let show name text =
  let progs = Parser.threads_of_string text in
  let ps = Ps.Machine.explore progs in
  let sc = Backends.Sc.explore progs in
  Fmt.pr "== %s ==@." name;
  Fmt.pr "  PS_na (%4d states): %a@." ps.Ps.Machine.states
    Ps.Machine.pp_behaviors ps.Ps.Machine.behaviors;
  Fmt.pr "  SC    (%4d states): %a@." sc.Backends.Backend.states
    Ps.Machine.pp_behaviors sc.Backends.Backend.behaviors;
  Fmt.pr "  catch-fire: %s@.@."
    (if sc.Backends.Backend.races then "UB — the program races"
     else "race-free, SC behaviors");
  ps

let () =
  (* Properly synchronised message passing: the data read is never stale,
     never racy. *)
  ignore
    (show "message passing (rel/acq)"
       "X.store(na, 7); Y.store(rel, 1); return 0 ||| \
        a = Y.load(acq); if a == 1 { b = X.load(na) }; return b");
  (* Broken message passing: relaxed flag means the data race surfaces as
     an undef read in PS_na and as UB under catch-fire. *)
  ignore
    (show "message passing (rlx flag — racy)"
       "X.store(na, 7); Y.store(rlx, 1); return 0 ||| \
        a = Y.load(rlx); if a == 1 { b = X.load(na) }; return b");
  (* Load buffering: the promising machinery at work (a=b=1 requires a
     promise). *)
  ignore
    (show "load buffering (rlx)"
       "a = Y.load(rlx); Z.store(rlx, 1); return a ||| \
        b = Z.load(rlx); Y.store(rlx, 1); return b");
  (* Example 5.1: a promise certified through a racy non-atomic read. *)
  let r =
    show "Example 5.1 (promise + racy na read)"
      "a = X.load(na); Y.store(rlx, 1); return a ||| \
       b = Y.load(rlx); if b == 1 { X.store(na, 1) }; return b"
  in
  let witness =
    Ps.Machine.Ret [ (Value.Undef, []); (Value.Int 1, []) ]
  in
  assert (Ps.Machine.Behavior_set.mem witness r.Ps.Machine.behaviors);
  Fmt.pr "Example 5.1 witness ⟨undef ∥ 1⟩ found, as the paper predicts.@."
