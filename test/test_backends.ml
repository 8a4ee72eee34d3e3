(* The backend zoo (lib/backends): SC, catch-fire, x86-TSO store
   buffers, ARMv8-flavoured local reordering, the shared MACHINE
   signature and registry, the one explorer's budget contract and state
   counts, and the SC ⊆ TSO ⊆ ARMv8 inclusion chain the E15 grid asserts
   per row. *)

open Lang
module B = Backends.Backend
module Sc = Backends.Sc
module Tso = Backends.Tso
module Armv8 = Backends.Armv8
module Registry = Backends.Registry

let threads = Parser.threads_of_string
let test name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg
let check_int msg = Alcotest.(check int) msg
let ret vs = B.Ret (List.map (fun v -> (v, [])) vs)
let i n = Value.Int n
let mem b (r : B.result) = B.Behavior_set.mem b r.B.behaviors

let sb =
  "Y.store(rlx,1); a = Z.load(rlx); return a ||| \
   Z.store(rlx,1); b = Y.load(rlx); return b"

let sb_fence =
  "Y.store(rlx,1); fence(sc); a = Z.load(rlx); return a ||| \
   Z.store(rlx,1); fence(sc); b = Y.load(rlx); return b"

let mp_rlx =
  "X.store(rlx,1); Y.store(rlx,1); return 0 ||| \
   a = Y.load(rlx); if a == 1 { b = X.load(rlx) }; return 10*a+b"

let mp_rel_acq =
  "X.store(na,1); Y.store(rel,1); return 0 ||| \
   a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b"

let mp_fences =
  "X.store(na,1); fence(rel); Y.store(rlx,1); return 0 ||| \
   a = Y.load(rlx); fence(acq); if a == 1 { b = X.load(na) }; return 10*a+b"

(* The acceptance separations: SB separates TSO from SC, MP-rlx
   separates ARMv8 from TSO. *)

let separation_tests =
  [
    test "SB both-zero: allowed under TSO, forbidden under SC" (fun () ->
        let tso = Tso.explore (threads sb) in
        check_bool "TSO allows 0,0" true (mem (ret [ i 0; i 0 ]) tso);
        let sc = Sc.explore (threads sb) in
        check_bool "SC forbids 0,0" false (mem (ret [ i 0; i 0 ]) sc));
    test "SC fences restore SC on SB under TSO and ARMv8" (fun () ->
        let tso = Tso.explore (threads sb_fence) in
        check_bool "TSO forbids fenced 0,0" false (mem (ret [ i 0; i 0 ]) tso);
        let arm = Armv8.explore (threads sb_fence) in
        check_bool "ARMv8 forbids fenced 0,0" false
          (mem (ret [ i 0; i 0 ]) arm));
    test "MP-rlx stale read: allowed under ARMv8, forbidden under TSO"
      (fun () ->
        let arm = Armv8.explore (threads mp_rlx) in
        check_bool "ARMv8 allows a=1,b=0" true (mem (ret [ i 0; i 10 ]) arm);
        let tso = Tso.explore (threads mp_rlx) in
        check_bool "TSO forbids a=1,b=0" false (mem (ret [ i 0; i 10 ]) tso));
    test "MP-rel-acq: the release view forbids the stale read under ARMv8"
      (fun () ->
        let arm = Armv8.explore (threads mp_rel_acq) in
        check_bool "ARMv8 forbids a=1,b=0" false
          (mem (ret [ i 0; i 10 ]) arm);
        check_bool "ARMv8 allows a=1,b=1" true (mem (ret [ i 0; i 11 ]) arm));
    test "MP-fences: full barriers forbid the stale read under ARMv8"
      (fun () ->
        let arm = Armv8.explore (threads mp_fences) in
        check_bool "ARMv8 forbids a=1,b=0" false
          (mem (ret [ i 0; i 10 ]) arm));
  ]

let machine_tests =
  [
    test "TSO forwards its own buffered store" (fun () ->
        let r = Tso.explore (threads "X.store(rlx,1); a = X.load(rlx); return a") in
        check_bool "reads 1" true (mem (ret [ i 1 ]) r);
        check_int "exactly one behavior" 1 (B.Behavior_set.cardinal r.B.behaviors));
    test "ARMv8 per-location coherence: own writes are not reordered"
      (fun () ->
        let r =
          Armv8.explore
            (threads "X.store(rlx,1); X.store(rlx,2); return 0 ||| \
                      a = X.load(rlx); b = X.load(rlx); return 10*a+b")
        in
        (* reads of one location are coherent: never 2 then 1 *)
        check_bool "no 2,1" false (mem (ret [ i 0; i 21 ]) r));
    test "RMWs are SC points: a CAS lock still excludes under TSO/ARMv8"
      (fun () ->
        let lock =
          "a = 0; while a == 0 { a = cas(L, 0, 1) }; X.store(na, 1); \
           L.store(rel, 0) ||| \
           b = 0; while b == 0 { b = cas(L, 0, 1) }; c = X.load(na); \
           L.store(rel, 0); return c"
        in
        let tso = Tso.explore (threads lock) in
        check_bool "TSO race-free" false tso.B.races;
        let arm = Armv8.explore (threads lock) in
        check_bool "ARMv8 race-free" false arm.B.races);
    test "race verdicts agree with the SC baseline" (fun () ->
        let racy = "a = X.load(na); return a ||| X.store(na,1); return 0" in
        let tso = Tso.explore (threads racy) in
        let arm = Armv8.explore (threads racy) in
        check_bool "TSO races" true tso.B.races;
        check_bool "ARMv8 races" true arm.B.races;
        let sync = threads mp_rel_acq in
        check_bool "TSO rel-acq race-free" false (Tso.explore sync).B.races;
        check_bool "ARMv8 rel-acq race-free" false (Armv8.explore sync).B.races);
    test "UB is ⊥ under every backend" (fun () ->
        let progs = threads "abort ||| return 0" in
        List.iter
          (fun (module M : B.MACHINE) ->
            check_bool (M.name ^ " has ⊥") true
              (mem B.Bot (M.explore progs)))
          Registry.all);
    test "budget exhaustion escapes as Engine.Budget.Exhausted" (fun () ->
        let budget = Engine.Budget.make ~max_states:5 () in
        check_bool "raises" true
          (try
             ignore (Tso.explore ~budget (threads sb));
             false
           with Engine.Budget.Exhausted _ -> true));
  ]

let registry_tests =
  [
    test "registry: every name resolves, unknown names do not" (fun () ->
        check_bool "five machines" true (List.length Registry.all = 5);
        List.iter
          (fun name ->
            check_bool ("find " ^ name) true
              (Option.is_some (Registry.find name)))
          Registry.names;
        check_bool "unknown rejected" true (Option.is_none (Registry.find "sc2")));
    test "refines across backends: TSO target vs SC source refuted on SB"
      (fun () ->
        let progs = threads sb in
        let sc = Sc.explore progs in
        let tso = Tso.explore progs in
        check_bool "SC ⊑ TSO as sets" true (B.subset ~small:sc ~big:tso);
        check_bool "tgt TSO refines src TSO" true (B.refines ~src:tso ~tgt:tso);
        check_bool "tgt TSO does not refine src SC" false
          (B.refines ~src:sc ~tgt:tso));
  ]

(* The one explorer's budget contract, for every registered machine: a
   state budget stops the search as it is exceeded (not after the whole
   exploration has been charged), and a deadline that passes mid-run
   stops it with UNKNOWN rather than a result. *)

(* A program whose state space is cut only by [max_states]: thread 0
   spins on a flag, counting, until thread 1 sets it. *)
let spin =
  "a = 0; b = X.load(rlx); while b == 0 { a = a + 1; print(a); \
   b = X.load(rlx) }; d = Y.load(na); return a + 10*d ||| \
   c = choose(); X.store(rlx, 1); Y.store(na, c); return c"

let budget_tests =
  [
    test "every backend stops within a 10-state budget" (fun () ->
        List.iter
          (fun (module M : B.MACHINE) ->
            let budget = Engine.Budget.make ~max_states:10 () in
            match M.explore ~budget (threads sb) with
            | exception Engine.Budget.Exhausted Engine.Budget.States ->
              check_bool (M.name ^ " stopped during exploration") true
                (Engine.Budget.states_used budget <= 11)
            | _ -> Alcotest.failf "%s: no exhaustion within 10 states" M.name)
          Registry.all);
    test "every backend is UNKNOWN when its deadline passes mid-run"
      (fun () ->
        List.iter
          (fun (module M : B.MACHINE) ->
            let budget = Engine.Budget.make ~timeout_ms:1. () in
            match
              Engine.Verdict.capture (fun () -> M.explore ~budget (threads spin))
            with
            | Error (Engine.Verdict.Exhausted Engine.Budget.Deadline) -> ()
            | Error r ->
              Alcotest.failf "%s: %s" M.name (Engine.Verdict.reason_to_string r)
            | Ok _ -> Alcotest.failf "%s: a result past the deadline" M.name)
          Registry.all);
  ]

(* States, race flag, truncation, |behaviors| and a digest of the
   behavior set, pinned for the four interleaving machines on the
   catalog's concurrent programs and the E15 grid rows (full
   explorations), and on [spin] at a 500-state cap (a truncated
   exploration, whose behavior set depends on the order successors are
   pushed in).  For SC also the strict-race locations [Baselines.Drf]
   consumes.  The values were generated before the machines shared one
   explorer and must not move. *)
let pin_programs =
  List.map
    (fun (c : Litmus.Catalog.concurrent) ->
      (c.Litmus.Catalog.cname, c.Litmus.Catalog.threads))
    Litmus.Catalog.litmus_programs
  @ [ ("spin", spin) ]

let pinned =
  [
    ("SB-rlx", "sc", None, (28, false, false, 3, "e3d89791"));
    ("SB-rlx", "catchfire", None, (28, false, false, 3, "e3d89791"));
    ("SB-rlx", "tso", None, (77, false, false, 4, "d5228c46"));
    ("SB-rlx", "armv8", None, (77, false, false, 4, "d5228c46"));
    ("MP-rel-acq", "sc", None, (24, false, false, 2, "b72007eb"));
    ("MP-rel-acq", "catchfire", None, (24, false, false, 2, "b72007eb"));
    ("MP-rel-acq", "tso", None, (28, false, false, 2, "b72007eb"));
    ("MP-rel-acq", "armv8", None, (34, false, false, 2, "b72007eb"));
    ("LB-rlx", "sc", None, (28, false, false, 3, "25570cd1"));
    ("LB-rlx", "catchfire", None, (28, false, false, 3, "25570cd1"));
    ("LB-rlx", "tso", None, (56, false, false, 3, "25570cd1"));
    ("LB-rlx", "armv8", None, (56, false, false, 3, "25570cd1"));
    ("LB-data", "sc", None, (16, false, false, 1, "6c9c8c61"));
    ("LB-data", "catchfire", None, (16, false, false, 1, "6c9c8c61"));
    ("LB-data", "tso", None, (36, false, false, 1, "6c9c8c61"));
    ("LB-data", "armv8", None, (56, false, false, 1, "6c9c8c61"));
    ("Ex-5.1", "sc", None, (24, true, false, 2, "cb28bed0"));
    ("Ex-5.1", "catchfire", None, (24, true, false, 3, "570046c6"));
    ("Ex-5.1", "tso", None, (36, true, false, 2, "cb28bed0"));
    ("Ex-5.1", "armv8", None, (36, true, false, 2, "cb28bed0"));
    ("WW-race", "sc", None, (13, true, false, 1, "6c9c8c61"));
    ("WW-race", "catchfire", None, (13, true, false, 2, "11e8e875"));
    ("WW-race", "tso", None, (29, true, false, 1, "6c9c8c61"));
    ("WW-race", "armv8", None, (29, true, false, 1, "6c9c8c61"));
    ("RW-race", "sc", None, (13, true, false, 2, "4d4db3c6"));
    ("RW-race", "catchfire", None, (13, true, false, 3, "bb0033ff"));
    ("RW-race", "tso", None, (19, true, false, 2, "4d4db3c6"));
    ("RW-race", "armv8", None, (19, true, false, 2, "4d4db3c6"));
    ("2+2W-rlx", "sc", None, (404, false, false, 8, "19d73a96"));
    ("2+2W-rlx", "catchfire", None, (404, false, false, 8, "19d73a96"));
    ("2+2W-rlx", "tso", None, (1039, false, false, 8, "19d73a96"));
    ("2+2W-rlx", "armv8", None, (1831, false, false, 9, "6c452ece"));
    ("MP-fences", "sc", None, (44, false, false, 2, "b72007eb"));
    ("MP-fences", "catchfire", None, (44, false, false, 2, "b72007eb"));
    ("MP-fences", "tso", None, (65, false, false, 2, "b72007eb"));
    ("MP-fences", "armv8", None, (89, false, false, 2, "b72007eb"));
    ("SB-sc-fence", "sc", None, (50, false, false, 3, "e3d89791"));
    ("SB-sc-fence", "catchfire", None, (50, false, false, 3, "e3d89791"));
    ("SB-sc-fence", "tso", None, (61, false, false, 3, "e3d89791"));
    ("SB-sc-fence", "armv8", None, (69, false, false, 3, "e3d89791"));
    ("MP-rlx", "sc", None, (24, false, false, 2, "b72007eb"));
    ("MP-rlx", "catchfire", None, (24, false, false, 2, "b72007eb"));
    ("MP-rlx", "tso", None, (44, false, false, 2, "b72007eb"));
    ("MP-rlx", "armv8", None, (64, false, false, 3, "a9f61d80"));
    ("IRIW-rlx", "sc", None, (652, false, false, 15, "732b9d22"));
    ("IRIW-rlx", "catchfire", None, (652, false, false, 15, "732b9d22"));
    ("IRIW-rlx", "tso", None, (1116, false, false, 15, "732b9d22"));
    ("IRIW-rlx", "armv8", None, (1132, false, false, 16, "4ca45a70"));
    ("R-rlx", "sc", None, (354, false, false, 13, "2cb28baf"));
    ("R-rlx", "catchfire", None, (354, false, false, 13, "2cb28baf"));
    ("R-rlx", "tso", None, (807, false, false, 14, "f45f368a"));
    ("R-rlx", "armv8", None, (1071, false, false, 14, "f45f368a"));
    ("S-rlx", "sc", None, (354, false, false, 13, "2c4a719c"));
    ("S-rlx", "catchfire", None, (354, false, false, 13, "2c4a719c"));
    ("S-rlx", "tso", None, (754, false, false, 13, "2c4a719c"));
    ("S-rlx", "armv8", None, (946, false, false, 14, "f45f368a"));
    ("WRC-rlx", "sc", None, (138, false, false, 7, "dd1b997e"));
    ("WRC-rlx", "catchfire", None, (138, false, false, 7, "dd1b997e"));
    ("WRC-rlx", "tso", None, (254, false, false, 7, "dd1b997e"));
    ("WRC-rlx", "armv8", None, (262, false, false, 8, "956872ff"));
    ("CoRR-rlx", "sc", None, (22, false, false, 3, "458430ee"));
    ("CoRR-rlx", "catchfire", None, (22, false, false, 3, "458430ee"));
    ("CoRR-rlx", "tso", None, (30, false, false, 3, "458430ee"));
    ("CoRR-rlx", "armv8", None, (30, false, false, 3, "458430ee"));
    ("spin", "sc", Some 500, (500, true, true, 20, "b03865fe"));
    ("spin", "catchfire", Some 500, (500, true, true, 21, "75995830"));
    ("spin", "tso", Some 500, (500, true, true, 5, "9ad7c988"));
    ("spin", "armv8", Some 500, (500, true, true, 5, "9ad7c988"));
  ]

(* PS_na rows, with the DRF-PF race flag, the certification calls and
   the certification-memo hits of a fresh exploration; generated before
   PS_na states got their packed identity (Promising.State_id), and
   must not move either. *)
let pinned_ps =
  [
    ("SB-rlx", None, (136, false, false, 4, "d5228c46"), (true, 2576, 2220));
    ("MP-rel-acq", None, (200, false, false, 2, "b72007eb"), (false, 2154, 1800));
    ("LB-rlx", None, (157, false, false, 4, "d5228c46"), (true, 2638, 2302));
    ("LB-data", None, (157, false, false, 1, "6c9c8c61"), (true, 2638, 2302));
    ("Ex-5.1", None, (647, true, false, 5, "06fcbcef"), (true, 6547, 5329));
    ("WW-race", None, (1901, true, false, 2, "11e8e875"), (true, 43654, 29110));
    ("RW-race", None, (216, true, false, 4, "aa4cfbf2"), (true, 1431, 1215));
    ("2+2W-rlx", None, (3824, false, false, 9, "6c452ece"), (true, 163229, 160442));
    ("MP-fences", None, (290, false, false, 2, "b72007eb"), (true, 3088, 2636));
    ("SB-sc-fence", None, (208, false, false, 3, "e3d89791"), (true, 3968, 3158));
    ("MP-rlx", None, (74, false, false, 3, "a9f61d80"), (true, 1112, 967));
    ("IRIW-rlx", None, (3461, false, false, 16, "4ca45a70"), (true, 67690, 67446));
    ("R-rlx", None, (2414, false, false, 14, "f45f368a"), (true, 76842, 75690));
    ("S-rlx", None, (2698, false, false, 14, "f45f368a"), (true, 83314, 82193));
    ("WRC-rlx", None, (745, false, false, 8, "956872ff"), (true, 13744, 13454));
    ("CoRR-rlx", None, (49, false, false, 3, "458430ee"), (true, 479, 419));
    ("spin", Some 500, (500, false, true, 0, "99914b93"), (true, 5089, 4214));
  ]

let pinned_strict =
  [
    ("SB-rlx", None, [ "Y"; "Z" ]);
    ("MP-rel-acq", None, [ "Y" ]);
    ("LB-rlx", None, [ "Y"; "Z" ]);
    ("LB-data", None, [ "Y"; "Z" ]);
    ("Ex-5.1", None, [ "X"; "Y" ]);
    ("WW-race", None, [ "X" ]);
    ("RW-race", None, [ "X" ]);
    ("2+2W-rlx", None, [ "Y"; "Z" ]);
    ("MP-fences", None, [ "Y" ]);
    ("SB-sc-fence", None, [ "Y"; "Z" ]);
    ("MP-rlx", None, [ "Y"; "Z" ]);
    ("IRIW-rlx", None, [ "Y"; "Z" ]);
    ("R-rlx", None, [ "Y"; "Z" ]);
    ("S-rlx", None, [ "Y"; "Z" ]);
    ("WRC-rlx", None, [ "Y"; "Z" ]);
    ("CoRR-rlx", None, [ "Y" ]);
    ("spin", Some 500, [ "X"; "Y" ]);
  ]

let render (states, races, truncated, n, digest) =
  Printf.sprintf "%d states, races=%b, truncated=%b, %d behaviors, %s" states
    races truncated n digest

let pin_row (r : B.result) =
  let digest =
    Digest.string (Fmt.str "%a" Promising.Machine.pp_behaviors r.B.behaviors)
  in
  render
    ( r.B.states,
      r.B.races,
      r.B.truncated,
      B.Behavior_set.cardinal r.B.behaviors,
      String.sub (Digest.to_hex digest) 0 8 )

let render_ps expected (weak_races, cert_calls, memo_hits) =
  Printf.sprintf "%s, weak_races=%b, %d cert calls, %d memo hits" expected
    weak_races cert_calls memo_hits

let pin_row_ps (r : Promising.Machine.result) =
  let module M = Promising.Machine in
  render_ps
    (pin_row
       {
         B.behaviors = r.M.behaviors;
         races = r.M.races;
         truncated = r.M.truncated;
         states = r.M.states;
       })
    (r.M.weak_races, r.M.cert_calls, r.M.memo_hits)

let pin_tests =
  [
    test "state counts and behavior sets are pinned" (fun () ->
        List.iter
          (fun (prog, backend, max_states, expected) ->
            let (module M : B.MACHINE) = Option.get (Registry.find backend) in
            let r = M.explore ?max_states (threads (List.assoc prog pin_programs)) in
            Alcotest.(check string)
              (prog ^ " under " ^ backend)
              (render expected) (pin_row r))
          pinned);
    test
      "PS_na state counts, behavior sets, cert calls and memo hits are pinned"
      (fun () ->
        List.iter
          (fun (prog, max_states, expected, extra) ->
            let params =
              Option.map
                (fun m -> { Promising.Thread.default_params with max_states = m })
                max_states
            in
            let r =
              Promising.Machine.explore ?params
                (threads (List.assoc prog pin_programs))
            in
            Alcotest.(check string)
              (prog ^ " under ps")
              (render_ps (render expected) extra)
              (pin_row_ps r))
          pinned_ps);
    test "the registry's ps adapter reproduces the PS_na pins" (fun () ->
        let (module M : B.MACHINE) = Option.get (Registry.find "ps") in
        List.iter
          (fun (prog, max_states, expected, _) ->
            let r = M.explore ?max_states (threads (List.assoc prog pin_programs)) in
            Alcotest.(check string)
              (prog ^ " under the ps adapter")
              (render expected) (pin_row r))
          pinned_ps);
    test "SC strict-race locations are pinned" (fun () ->
        List.iter
          (fun (prog, max_states, locs) ->
            let _, strict =
              Sc.explore_strict ?max_states (threads (List.assoc prog pin_programs))
            in
            Alcotest.(check (list string)) prog locs
              (List.map Loc.name (Loc.Set.elements strict)))
          pinned_strict);
  ]

(* The inclusion chain on the whole litmus catalog. *)
let chain_on_catalog =
  test "SC ⊆ TSO ⊆ ARMv8 on the litmus catalog" (fun () ->
      List.iter
        (fun (c : Litmus.Catalog.concurrent) ->
          let progs = threads c.Litmus.Catalog.threads in
          let sc = Sc.explore ~max_states:50_000 progs in
          let tso = Tso.explore ~max_states:50_000 progs in
          let arm = Armv8.explore ~max_states:50_000 progs in
          if not (sc.B.truncated || tso.B.truncated || arm.B.truncated) then begin
            check_bool (c.Litmus.Catalog.cname ^ ": SC ⊆ TSO") true
              (B.subset ~small:sc ~big:tso);
            check_bool (c.Litmus.Catalog.cname ^ ": TSO ⊆ ARMv8") true
              (B.subset ~small:tso ~big:arm)
          end)
        Litmus.Catalog.concurrent_programs)

(* The qcheck inclusion property on generated two-thread programs:
   budget-bounded, truncated explorations skipped. *)
let gen_cfg =
  {
    Gen.default_config with
    Gen.na_locs = [ Loc.make "X" ];
    at_locs = [ Loc.make "Y"; Loc.make "Z" ];
    regs = [ Reg.make "a"; Reg.make "b" ];
    values = [ 0; 1 ];
    allow_loops = false;
  }

let pair_gen : (Stmt.t * Stmt.t) QCheck.Gen.t =
 fun rand ->
  (Gen.gen_program gen_cfg rand ~size:3, Gen.gen_program gen_cfg rand ~size:3)

let chain_qcheck =
  QCheck.Test.make ~name:"SC ⊆ TSO ⊆ ARMv8 on generated programs" ~count:30
    (QCheck.make
       ~print:(fun (s, t) -> Stmt.to_string s ^ " ||| " ^ Stmt.to_string t)
       pair_gen)
    (fun (s, t) ->
      let progs = [ s; t ] in
      let max_states = 30_000 in
      let sc = Sc.explore ~max_states progs in
      let tso = Tso.explore ~max_states progs in
      let arm = Armv8.explore ~max_states progs in
      sc.B.truncated || tso.B.truncated || arm.B.truncated
      || (B.subset ~small:sc ~big:tso && B.subset ~small:tso ~big:arm))

let suite =
  separation_tests @ machine_tests @ registry_tests @ budget_tests @ pin_tests
  @ [ chain_on_catalog; QCheck_alcotest.to_alcotest chain_qcheck ]
