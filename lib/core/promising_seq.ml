(** Promising_seq — umbrella library for the PLDI 2022 reproduction
    "Sequential Reasoning for Optimizing Compilers under Weak Memory
    Concurrency" (Cho, Lee, Lee, Hur, Lahav).

    The library is organised like the paper:

    - {!Lang}: the WHILE language and its labeled transition system
      (values with [undef], access modes, expressions, statements, parser,
      finite checking domains, random generators);
    - {!Seq}: the sequential permission machine SEQ (§2), behaviors and
      simple refinement (Def 2.1–2.4), oracles and advanced refinement up
      to commitment sets (§3, Fig 2/Fig 6);
    - {!Ps}: PS_na — the promising semantics with non-atomic accesses
      (§5, Fig 5): views, messages, promises, certification, behavioral
      refinement (Def 5.2/5.3), and the one bounded explorer
      ([Ps.Explore]) that PS_na and every other machine run on;
    - {!Backends}: the memory-model zoo behind one signature — SC
      interleaving, the C/C++11-style catch-fire semantics, x86-TSO and
      ARMv8 machines (each a step relation for [Ps.Explore], one
      happens-before race detector), plus the PS_na adapter
      (docs/BACKENDS.md);
    - {!Baselines}: the DRF-guarantee checks (E7);
    - {!Opt}: the certified optimizer (§4, App D): SLF, LLF, DSE, LICM,
      and per-run translation validation in SEQ;
    - {!Litmus}: the paper's examples as a machine-readable corpus, and
      the empirical adequacy experiment (Thm 6.2);
    - {!Engine}: the multicore sweep engine the experiment matrices run
      on, with a parallel = sequential determinism contract
      (docs/ENGINE.md);
    - {!Service}: the seqd refinement-check service — wire protocol,
      two-tier content-addressed result cache, request handler, server
      accept loop and client (docs/SERVICE.md).

    Quickstart:
    {[
      open Promising_seq
      let src = Lang.Parser.stmt_of_string "X.store(na,1); a = X.load(na); return a"
      let tgt = Lang.Parser.stmt_of_string "X.store(na,1); a = 1; return a"
      let d = Lang.Domain.of_stmts [src; tgt]
      let sound = Seq.Refine.check d ~src ~tgt   (* = true *)
    ]} *)

module Lang = Lang
module Seq = Seq_model
module Ps = Promising
module Backends = Backends
module Baselines = Baselines
module Opt = Optimizer
module Litmus = Litmus
module Engine = Engine
module Service = Service
