(** The paper's examples as a machine-readable corpus.

    Conventions: [X], [W] are non-atomic locations; [Y], [Z] are atomic
    locations; [a]..[d] are registers.  Transformation snippets are closed
    with an observer [return] so register results are behaviors (mirroring
    the paper's contexts [C = ·; return(a)]). *)

open Lang

type verdict = Sound | Unsound

let verdict_to_string = function Sound -> "sound" | Unsound -> "unsound"

type transformation = {
  name : string;
  paper_ref : string;  (** example / section number in the paper *)
  src : string;
  tgt : string;
  simple : verdict;  (** expected under simple refinement (Def 2.4) *)
  advanced : verdict;  (** expected under advanced refinement (Def 3.3) *)
}

let t name paper_ref ~src ~tgt ~simple ~advanced =
  { name; paper_ref; src; tgt; simple; advanced }

let transformations =
  [
    (* --- §1 motivating examples ------------------------------------ *)
    t "slf-basic" "Ex 1.1"
      ~src:"X.store(na, 1); b = X.load(na); return b"
      ~tgt:"X.store(na, 1); b = 1; return b"
      ~simple:Sound ~advanced:Sound;
    t "licm-pattern" "Ex 1.3"
      ~src:"while b == 0 { a = X.load(na); b = Y.load(rlx) }; return a"
      ~tgt:"c = X.load(na); while b == 0 { a = c; b = Y.load(rlx) }; return a"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.5: reordering non-atomics ----------------------- *)
    t "reorder-na-rw-diff" "Ex 2.5"
      ~src:"a = X.load(na); W.store(na, 1); return a"
      ~tgt:"W.store(na, 1); a = X.load(na); return a"
      ~simple:Sound ~advanced:Sound;
    t "reorder-na-rw-same" "Ex 2.5"
      ~src:"a = X.load(na); X.store(na, 1); return a"
      ~tgt:"X.store(na, 1); a = X.load(na); return a"
      ~simple:Unsound ~advanced:Unsound;
    t "reorder-na-ww-diff" "Ex 2.5 (variant)"
      ~src:"X.store(na, 1); W.store(na, 2)"
      ~tgt:"W.store(na, 2); X.store(na, 1)"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.6: eliminations/introductions ------------------- *)
    t "overwritten-store-elim" "Ex 2.6(i)"
      ~src:"X.store(na, 1); X.store(na, 2)"
      ~tgt:"X.store(na, 2)"
      ~simple:Sound ~advanced:Sound;
    t "store-to-load-fwd" "Ex 2.6(ii)"
      ~src:"X.store(na, 1); a = X.load(na); return a"
      ~tgt:"X.store(na, 1); a = 1; return a"
      ~simple:Sound ~advanced:Sound;
    t "load-to-load-fwd" "Ex 2.6(iii)"
      ~src:"a = X.load(na); b = X.load(na); return a + 3*b"
      ~tgt:"a = X.load(na); b = a; return a + 3*b"
      ~simple:Sound ~advanced:Sound;
    t "read-before-write-elim" "Ex 2.6(iv)"
      ~src:"a = X.load(na); X.store(na, a); return a"
      ~tgt:"a = X.load(na); return a"
      ~simple:Sound ~advanced:Sound;
    t "write-after-read-intro" "Ex 2.6 (converse of iv)"
      ~src:"a = X.load(na); if a != 1 { X.store(na, 1) }; return a"
      ~tgt:"a = X.load(na); X.store(na, 1); return a"
      ~simple:Unsound ~advanced:Unsound;
    t "redundant-store-intro" "Ex 2.6(i')"
      ~src:"X.store(na, 2)"
      ~tgt:"X.store(na, 1); X.store(na, 2)"
      ~simple:Sound ~advanced:Sound;
    t "copy-to-load-intro" "Ex 2.6(iii')"
      (* the converse of load-to-load forwarding: replacing a register
         copy by a re-load — load introduction, sound in SEQ *)
      ~src:"a = X.load(na); b = a; return a + 3*b"
      ~tgt:"a = X.load(na); b = X.load(na); return a + 3*b"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.7: reordering across loops ---------------------- *)
    t "write-before-loop" "Ex 2.7"
      ~src:"while b == 0 { skip }; X.store(na, 1)"
      ~tgt:"X.store(na, 1); while b == 0 { skip }"
      ~simple:Unsound ~advanced:Unsound;
    t "write-before-loop-after-write" "Ex 2.7 (variant)"
      ~src:"a = X.load(na); if a != 1 { X.store(na, 1) }; \
            while b == 0 { skip }; X.store(na, 2)"
      ~tgt:"a = X.load(na); if a != 1 { X.store(na, 1) }; \
            X.store(na, 2); while b == 0 { skip }"
      ~simple:Unsound ~advanced:Unsound;
    t "read-before-loop" "Ex 2.7"
      ~src:"while b == 0 { skip }; a = X.load(na); return a"
      ~tgt:"a = X.load(na); while b == 0 { skip }; return a"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.8: unused loads ---------------------------------- *)
    t "unused-load-elim" "Ex 2.8"
      ~src:"a = X.load(na); return 0"
      ~tgt:"return 0"
      ~simple:Sound ~advanced:Sound;
    t "irrelevant-load-intro" "Ex 2.8"
      ~src:"return 0"
      ~tgt:"a = X.load(na); return 0"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.9: roach motel ----------------------------------- *)
    t "acq-then-na-write" "Ex 2.9(i)"
      ~src:"a = Y.load(acq); X.store(na, 1); return a"
      ~tgt:"X.store(na, 1); a = Y.load(acq); return a"
      ~simple:Unsound ~advanced:Unsound;
    t "na-write-then-rel" "Ex 2.9(ii)"
      ~src:"X.store(na, 1); Y.store(rel, 1)"
      ~tgt:"Y.store(rel, 1); X.store(na, 1)"
      ~simple:Unsound ~advanced:Unsound;
    t "acq-then-na-read" "Ex 2.9(iii)"
      ~src:"a = Y.load(acq); b = X.load(na); return b"
      ~tgt:"b = X.load(na); a = Y.load(acq); return b"
      ~simple:Unsound ~advanced:Unsound;
    t "na-read-then-rel" "Ex 2.9(iv)"
      ~src:"a = X.load(na); Y.store(rel, 1); return a"
      ~tgt:"Y.store(rel, 1); a = X.load(na); return a"
      ~simple:Unsound ~advanced:Unsound;
    t "na-write-into-acq" "Ex 2.9(i')"
      ~src:"X.store(na, 1); a = Y.load(acq); return a"
      ~tgt:"a = Y.load(acq); X.store(na, 1); return a"
      ~simple:Sound ~advanced:Sound;
    t "na-read-into-acq" "Ex 2.9(iii')"
      ~src:"b = X.load(na); a = Y.load(acq); return b"
      ~tgt:"a = Y.load(acq); b = X.load(na); return b"
      ~simple:Sound ~advanced:Sound;
    t "na-read-into-rel" "Ex 2.9(iv')"
      ~src:"Y.store(rel, 1); a = X.load(na); return a"
      ~tgt:"a = X.load(na); Y.store(rel, 1); return a"
      ~simple:Sound ~advanced:Sound;
    t "na-write-into-rel" "Ex 2.9(ii')"
      ~src:"Y.store(rel, 1); X.store(na, 2)"
      ~tgt:"X.store(na, 2); Y.store(rel, 1)"
      ~simple:Unsound ~advanced:Sound;
    (* --- Example 2.10: store introduction after release ------------- *)
    t "store-intro-after-rel" "Ex 2.10"
      ~src:"X.store(na, 1); Y.store(rel, 1)"
      ~tgt:"X.store(na, 1); Y.store(rel, 1); X.store(na, 1)"
      ~simple:Unsound ~advanced:Unsound;
    t "store-intro-after-rlx" "Ex 2.10"
      ~src:"X.store(na, 1); Y.store(rlx, 1)"
      ~tgt:"X.store(na, 1); Y.store(rlx, 1); X.store(na, 1)"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.11: SLF across atomics --------------------------- *)
    t "slf-across-rlx-read" "Ex 2.11"
      ~src:"X.store(na, 1); a = Y.load(rlx); b = X.load(na); return 3*a + b"
      ~tgt:"X.store(na, 1); a = Y.load(rlx); b = 1; return 3*a + b"
      ~simple:Sound ~advanced:Sound;
    t "slf-across-rlx-write" "Ex 2.11"
      ~src:"X.store(na, 1); Y.store(rlx, 2); b = X.load(na); return b"
      ~tgt:"X.store(na, 1); Y.store(rlx, 2); b = 1; return b"
      ~simple:Sound ~advanced:Sound;
    t "slf-across-acq-read" "Ex 2.11"
      ~src:"X.store(na, 1); a = Y.load(acq); b = X.load(na); return 3*a + b"
      ~tgt:"X.store(na, 1); a = Y.load(acq); b = 1; return 3*a + b"
      ~simple:Sound ~advanced:Sound;
    t "slf-across-rel-write" "Ex 2.11"
      ~src:"X.store(na, 1); Y.store(rel, 2); b = X.load(na); return b"
      ~tgt:"X.store(na, 1); Y.store(rel, 2); b = 1; return b"
      ~simple:Sound ~advanced:Sound;
    (* --- Example 2.12: no SLF across rel-acq pairs ------------------ *)
    t "slf-across-rel-acq" "Ex 2.12"
      ~src:"X.store(na, 1); Y.store(rel, 2); a = Z.load(acq); \
            b = X.load(na); return b"
      ~tgt:"X.store(na, 1); Y.store(rel, 2); a = Z.load(acq); \
            b = 1; return b"
      ~simple:Unsound ~advanced:Unsound;
    (* --- §3: late UB ------------------------------------------------ *)
    t "rlx-read-then-na-write" "§3 (late UB)"
      ~src:"a = Y.load(rlx); X.store(na, 1); return a"
      ~tgt:"X.store(na, 1); a = Y.load(rlx); return a"
      ~simple:Unsound ~advanced:Sound;
    t "acq-then-div0" "Ex 3.1"
      ~src:"a = Y.load(acq); b = 1/0; return b"
      ~tgt:"b = 1/0; a = Y.load(acq); return b"
      ~simple:Unsound ~advanced:Unsound;
    t "ex3.1-end-to-end" "Ex 3.1 (whole chain)"
      (* the end-to-end composition of Ex 3.1's chain: hoisting y^rlx := 1
         above the conditional and the relaxed read; refuted because the
         first link (acquire past UB) is unsound *)
      ~src:"a = Z.load(rlx);             if a == 1 { a = Z.load(acq); b = 1/0 } else { Y.store(rlx, 1) };             return a"
      ~tgt:"Y.store(rlx, 1); a = Z.load(rlx);             if a == 1 { b = 1/0; a = Z.load(acq) };             return a"
      ~simple:Unsound ~advanced:Unsound;
    t "conditional-ub-hoist" "§3 (oracle counterexample)"
      ~src:"a = Y.load(rlx); if a == 1 { b = 1/0 }; \
            while c == 0 { skip }; return a"
      ~tgt:"b = 1/0; a = Y.load(rlx); while c == 0 { skip }; return a"
      ~simple:Unsound ~advanced:Unsound;
    t "unconditional-ub-hoist" "§3"
      ~src:"a = Y.load(rlx); b = 1/0; return b"
      ~tgt:"b = 1/0; a = Y.load(rlx); return b"
      ~simple:Unsound ~advanced:Sound;
    (* --- Example 3.5: DSE across atomics ---------------------------- *)
    t "dse-across-rlx-read" "Ex 3.5"
      ~src:"X.store(na, 1); b = Y.load(rlx); X.store(na, 2); return b"
      ~tgt:"b = Y.load(rlx); X.store(na, 2); return b"
      ~simple:Sound ~advanced:Sound;
    t "dse-across-acq-read" "Ex 3.5"
      ~src:"X.store(na, 1); b = Y.load(acq); X.store(na, 2); return b"
      ~tgt:"b = Y.load(acq); X.store(na, 2); return b"
      ~simple:Sound ~advanced:Sound;
    t "dse-across-rel-write" "Ex 3.5"
      ~src:"X.store(na, 1); Y.store(rel, 0); X.store(na, 2)"
      ~tgt:"Y.store(rel, 0); X.store(na, 2)"
      ~simple:Unsound ~advanced:Sound;
    t "dse-across-rel-acq" "Ex 3.5 (boundary)"
      ~src:"X.store(na, 1); Y.store(rel, 0); a = Z.load(acq); \
            X.store(na, 2); return a"
      ~tgt:"Y.store(rel, 0); a = Z.load(acq); X.store(na, 2); return a"
      ~simple:Unsound ~advanced:Unsound;
    (* --- Remark 3 / App C: non-determinism vs release --------------- *)
    t "choose-then-rel" "Remark 3 / App C"
      ~src:"a = choose(); Y.store(rel, 1); return a"
      ~tgt:"Y.store(rel, 1); a = choose(); return a"
      ~simple:Unsound ~advanced:Unsound;
    t "choose-then-na-write" "Remark 3 (allowed by ⊑w)"
      (* simple refinement refuses: if X ∉ P the target is ⊥ with an empty
         trace while the source must first emit its choose label; the
         late-UB rule of the advanced notion accepts. *)
      ~src:"a = choose(); X.store(na, 1); return a"
      ~tgt:"X.store(na, 1); a = choose(); return a"
      ~simple:Unsound ~advanced:Sound;
    t "freeze-then-rel" "App C (freeze form)"
      ~src:"a = freeze(undef); Y.store(rel, 1); return a"
      ~tgt:"Y.store(rel, 1); a = freeze(undef); return a"
      ~simple:Unsound ~advanced:Unsound;
    (* --- extensions: fences and RMW in SEQ -------------------------- *)
    t "na-write-into-acq-fence" "extension (fence roach motel)"
      ~src:"X.store(na, 1); fence(acq)"
      ~tgt:"fence(acq); X.store(na, 1)"
      ~simple:Sound ~advanced:Sound;
    t "acq-fence-then-na-write" "extension (fence roach motel)"
      ~src:"fence(acq); X.store(na, 1)"
      ~tgt:"X.store(na, 1); fence(acq)"
      ~simple:Unsound ~advanced:Unsound;
    t "slf-across-cas" "extension (SLF across a single RMW)"
      (* an RMW is acquire-then-release in program order — never a
         release-acquire *pair* — so forwarding remains sound (the token
         goes ◦(v) → •(v), not ⊤) *)
      ~src:"X.store(na, 1); a = cas(Y, 0, 1); b = X.load(na); return 3*a + b"
      ~tgt:"X.store(na, 1); a = cas(Y, 0, 1); b = 1; return 3*a + b"
      ~simple:Sound ~advanced:Sound;
    t "no-slf-across-rel-then-cas" "extension (rel;RMW is a rel-acq pair)"
      ~src:"X.store(na, 1); Y.store(rel, 1); a = cas(Z, 0, 1); \
            b = X.load(na); return 3*a + b"
      ~tgt:"X.store(na, 1); Y.store(rel, 1); a = cas(Z, 0, 1); \
            b = 1; return 3*a + b"
      ~simple:Unsound ~advanced:Unsound;
    t "rmw-identity" "extension (RMW matches itself)"
      ~src:"a = fadd(Y, 1); return a"
      ~tgt:"a = fadd(Y, 1); return a"
      ~simple:Sound ~advanced:Sound;
    t "no-slf-across-sc-fence" "extension (SC fence is a rel-acq pair)"
      ~src:"X.store(na, 1); fence(sc); b = X.load(na); return b"
      ~tgt:"X.store(na, 1); fence(sc); b = 1; return b"
      ~simple:Unsound ~advanced:Unsound;
    t "slf-across-rel-fence" "extension (Ex 2.11 analogue for fences)"
      ~src:"X.store(na, 1); fence(rel); b = X.load(na); return b"
      ~tgt:"X.store(na, 1); fence(rel); b = 1; return b"
      ~simple:Sound ~advanced:Sound;
    t "no-sc-fence-weakening" "extension (sc fence ≠ acq-rel fence)"
      ~src:"fence(sc); return 0"
      ~tgt:"fence(acqrel); return 0"
      ~simple:Unsound ~advanced:Unsound;
    t "sc-fence-identity" "extension"
      ~src:"fence(sc); return 0"
      ~tgt:"fence(sc); return 0"
      ~simple:Sound ~advanced:Sound;
    (* --- §2 non-goal: no optimizations on atomics -------------------- *)
    t "no-acq-load-to-load-fwd" "§2 (atomics are not optimized)"
      ~src:"a = Y.load(acq); b = Y.load(acq); return 3*a + b"
      ~tgt:"a = Y.load(acq); b = a; return 3*a + b"
      ~simple:Unsound ~advanced:Unsound;
    t "no-rlx-store-elim" "§2 (atomics are not optimized)"
      ~src:"Y.store(rlx, 1); Y.store(rlx, 2)"
      ~tgt:"Y.store(rlx, 2)"
      ~simple:Unsound ~advanced:Unsound;
    t "no-rlx-slf" "§2 (atomics are not optimized)"
      ~src:"Y.store(rlx, 1); a = Y.load(rlx); return a"
      ~tgt:"Y.store(rlx, 1); a = 1; return a"
      ~simple:Unsound ~advanced:Unsound;
    t "no-na-to-rlx-strengthening" "§5 (a mapping theorem, not a SEQ one)"
      (* sound in PS_na as a compilation-scheme fact (tested in the
         promising suite), but not derivable by sequential reasoning: the
         target emits atomic labels the source does not have *)
      ~src:"X.store(na, 1); return 0"
      ~tgt:"X.store(rlx, 1); return 0"
      ~simple:Unsound ~advanced:Unsound;
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent litmus programs (for E4)                                  *)
(* ------------------------------------------------------------------ *)

type concurrent = {
  cname : string;
  cref : string;
  threads : string;  (** [|||]-separated program text *)
}

let concurrent_programs =
  [
    {
      cname = "SB-rlx";
      cref = "classic";
      threads =
        "Y.store(rlx,1); a = Z.load(rlx); return a ||| \
         Z.store(rlx,1); b = Y.load(rlx); return b";
    };
    {
      cname = "MP-rel-acq";
      cref = "classic";
      threads =
        "X.store(na,1); Y.store(rel,1); return 0 ||| \
         a = Y.load(acq); if a == 1 { b = X.load(na) }; return 10*a+b";
    };
    {
      cname = "LB-rlx";
      cref = "classic";
      threads =
        "a = Y.load(rlx); Z.store(rlx,1); return a ||| \
         b = Z.load(rlx); Y.store(rlx,1); return b";
    };
    {
      cname = "LB-data";
      cref = "out-of-thin-air";
      threads =
        "a = Y.load(rlx); Z.store(rlx,a); return a ||| \
         b = Z.load(rlx); Y.store(rlx,b); return b";
    };
    {
      cname = "Ex-5.1";
      cref = "Ex 5.1";
      threads =
        "a = X.load(na); Y.store(rlx,1); return a ||| \
         b = Y.load(rlx); if b == 1 { X.store(na,1) }; return b";
    };
    {
      cname = "WW-race";
      cref = "§5";
      threads = "X.store(na,1); return 0 ||| X.store(na,2); return 0";
    };
    {
      cname = "RW-race";
      cref = "§5";
      threads = "a = X.load(na); return a ||| X.store(na,1); return 0";
    };
    {
      cname = "2+2W-rlx";
      cref = "classic";
      threads =
        "Y.store(rlx,1); Z.store(rlx,2); return 0 ||| \
         Z.store(rlx,1); Y.store(rlx,2); return 0 ||| \
         a = Y.load(rlx); b = Z.load(rlx); return 10*a+b";
    };
    {
      cname = "MP-fences";
      cref = "extension (fences)";
      threads =
        "X.store(na,1); fence(rel); Y.store(rlx,1); return 0 ||| \
         a = Y.load(rlx); fence(acq); if a == 1 { b = X.load(na) }; return 10*a+b";
    };
    {
      cname = "SB-sc-fence";
      cref = "extension (SC fences)";
      threads =
        "Y.store(rlx,1); fence(sc); a = Z.load(rlx); return a ||| \
         Z.store(rlx,1); fence(sc); b = Y.load(rlx); return b";
    };
  ]

(* ------------------------------------------------------------------ *)
(* The E15 differential backend grid                                    *)
(* ------------------------------------------------------------------ *)

type grid_entry = {
  g : concurrent;
  weak : int list;
  allowed : (string * bool) list;
}

let conc cname = List.find (fun c -> c.cname = cname) concurrent_programs

(** The grid corpus: each row is a litmus program with a designated weak
    outcome (one return value per thread) and the expected per-backend
    allowed/forbidden verdicts.  The classic separations live here: SB
    separates TSO from SC, MP-rlx separates ARMv8 from TSO, LB separates
    PS_na from ARMv8 (promise steps exhibit load buffering, which the
    speculation-free ARMv8 machine does not), and IRIW shows the ARMv8
    machine's non-multi-copy-atomic reads. *)
let grid_programs =
  [
    {
      g = conc "SB-rlx";
      weak = [ 0; 0 ];
      allowed =
        [ ("sc", false); ("tso", true); ("armv8", true); ("ps", true) ];
    };
    {
      g = conc "SB-sc-fence";
      weak = [ 0; 0 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", false); ("ps", false) ];
    };
    {
      g = conc "MP-rel-acq";
      weak = [ 0; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", false); ("ps", false) ];
    };
    {
      g =
        {
          cname = "MP-rlx";
          cref = "classic";
          threads =
            "Y.store(rlx,1); Z.store(rlx,1); return 0 ||| \
             a = Z.load(rlx); if a == 1 { b = Y.load(rlx) }; return 10*a+b";
        };
      weak = [ 0; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", true); ("ps", true) ];
    };
    {
      g = conc "MP-fences";
      weak = [ 0; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", false); ("ps", false) ];
    };
    {
      g = conc "LB-rlx";
      weak = [ 1; 1 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", false); ("ps", true) ];
    };
    {
      g =
        {
          cname = "IRIW-rlx";
          cref = "classic";
          threads =
            "Y.store(rlx,1); return 0 ||| Z.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); b = Z.load(rlx); return 10*a+b ||| \
             c = Z.load(rlx); d = Y.load(rlx); return 10*c+d";
        };
      weak = [ 0; 0; 10; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", true); ("ps", true) ];
    };
    (* R: like SB but the second thread's store and the first thread's
       pair race through a third observer fixing Z's coherence order
       1 -> 2.  A TSO store buffer lets T2 read Y=0 while its Z=2 is
       still buffered — the classic write-to-read separation again, but
       witnessed through coherence rather than two reads. *)
    {
      g =
        {
          cname = "R-rlx";
          cref = "classic";
          threads =
            "Y.store(rlx,1); Z.store(rlx,1); return 0 ||| \
             Z.store(rlx,2); a = Y.load(rlx); return a ||| \
             c = Z.load(rlx); d = Z.load(rlx); return 10*c+d";
        };
      weak = [ 0; 0; 12 ];
      allowed =
        [ ("sc", false); ("tso", true); ("armv8", true); ("ps", true) ];
    };
    (* S: needs T1's Z=2;Y=1 to become visible out of order (Y=1 read
       before Z=2 lands), which FIFO TSO buffers cannot do — only the
       ARMv8 machine's cross-location store-store reordering (and PS_na
       promises) exhibit it. *)
    {
      g =
        {
          cname = "S-rlx";
          cref = "classic";
          threads =
            "Z.store(rlx,2); Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); Z.store(rlx,1); return a ||| \
             c = Z.load(rlx); d = Z.load(rlx); return 10*c+d";
        };
      weak = [ 0; 1; 12 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", true); ("ps", true) ];
    };
    (* WRC: write-read causality.  T3 observing Z=1 but Y=0 needs its
       two loads reordered (or non-multi-copy-atomic stores); TSO has
       neither, the ARMv8 machine's per-location read floors allow the
       stale Y read after the fresh Z read. *)
    {
      g =
        {
          cname = "WRC-rlx";
          cref = "classic";
          threads =
            "Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); Z.store(rlx,1); return a ||| \
             b = Z.load(rlx); c = Y.load(rlx); return 10*b+c";
        };
      weak = [ 0; 1; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", true); ("ps", true) ];
    };
    (* CoRR: coherence of read-read.  Reading Y=1 then Y=0 violates
       per-location coherence, which every model in the zoo enforces
       (the ARMv8 machine's reads raise their own location's floor; PS
       views only rise) — an all-forbid row keeping the weak side of the
       grid honest. *)
    {
      g =
        {
          cname = "CoRR-rlx";
          cref = "classic";
          threads =
            "Y.store(rlx,1); return 0 ||| \
             a = Y.load(rlx); b = Y.load(rlx); return 10*a+b";
        };
      weak = [ 0; 10 ];
      allowed =
        [ ("sc", false); ("tso", false); ("armv8", false); ("ps", false) ];
    };
  ]

let litmus_programs =
  List.fold_left
    (fun acc c ->
      if List.exists (fun c' -> c'.cname = c.cname) acc then acc
      else acc @ [ c ])
    [] (concurrent_programs @ List.map (fun g -> g.g) grid_programs)

(** The E15 pass-soundness grid: SEQ-validated transformations plugged
    into a concurrent context (from {!contexts}) and re-checked as
    behavior-set refinement under every backend — where a pass sound on
    SEQ/PS_na over- or under-approximates a hardware model, the cell
    shows it (e.g. load introduction fails only under catch-fire, E6). *)
let grid_passes : (string * string) list =
  [
    ("store-to-load-fwd", "na-writer");
    ("reorder-na-rw-diff", "na-writer");
    ("irrelevant-load-intro", "na-writer");
    ("unused-load-elim", "na-writer");
    ("overwritten-store-elim", "na-reader");
    ("read-before-write-elim", "na-writer");
  ]

(* ------------------------------------------------------------------ *)
(* Context library for the adequacy experiment (E5)                     *)
(* ------------------------------------------------------------------ *)

(** Concurrent contexts to plug transformations into (Thm 6.2 quantifies
    over arbitrary parallel compositions).  Contexts follow the corpus
    conventions: [X]/[W] non-atomic, [Y]/[Z] atomic. *)
let contexts : (string * string) list =
  [
    ("idle", "return 0");
    ("na-reader", "a = X.load(na); return a");
    ("na-writer", "X.store(na, 2); return 0");
    ("rel-acq-flagger", "Y.store(rel, 1); a = Z.load(acq); return a");
    ("acq-guarded-writer", "a = Y.load(acq); if a == 1 { X.store(na, 2) }; return a");
    ("handover",
     "a = Y.load(acq); if a == 1 { b = X.load(na); X.store(na, b + 1); \
      Z.store(rel, 1) }; return b");
    ("rlx-mixer", "Y.store(rlx, 2); a = Z.load(rlx); return a");
    ("two-threads",
     "Y.store(rel, 1); return 0 ||| a = Z.load(acq); X.store(na, a); return a");
  ]

let find_transformation name =
  List.find_opt (fun tr -> tr.name = name) transformations
