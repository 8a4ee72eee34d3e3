(** Pluggable differential oracles.

    Every oracle checks one cross-layer agreement contract on a single
    generated program; a [Some detail] result is a {e finding} — evidence
    that two layers of the system disagree.  All oracles are
    deterministic given the program (no RNG, no wall-clock-dependent
    output) and charge their exploration to the task budget
    ({!Engine.Budget.Exhausted} escapes and is trapped by the campaign's
    supervised sweep into an [Unknown]). *)

open Lang
module B = Backends.Backend

type kind =
  | Pass_correct  (** each optimizer pass's output refines its input *)
  | Analysis_sound  (** static racy-access set covers SEQ's dynamic races *)
  | Lint_agree  (** a lint-clean program has no dynamic racy access *)
  | Baseline_env  (** single-thread SC behaviors ⊆ SEQ; DRF ⇒ catchfire=SC *)
  | Baseline_hw of string
      (** SC behaviors ⊆ the named hardware backend's (default tso) *)

let default_hw = "tso"

let all =
  [ Pass_correct; Analysis_sound; Lint_agree; Baseline_env;
    Baseline_hw default_hw ]

let name = function
  | Pass_correct -> "pass-correct"
  | Analysis_sound -> "analysis-sound"
  | Lint_agree -> "lint-agree"
  | Baseline_env -> "baseline-env"
  | Baseline_hw m -> if m = default_hw then "baseline-hw" else "baseline-hw:" ^ m

let of_string s =
  match List.find_opt (fun k -> name k = s) all with
  | Some _ as k -> k
  | None ->
    (* a non-default machine renders as "baseline-hw:<machine>" *)
    (match String.split_on_char ':' s with
     | [ "baseline-hw"; m ] when Backends.Registry.find m <> None ->
       Some (Baseline_hw m)
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Advanced-only refinement, the workhorse of pass checking: a static
   certificate when the pipeline replay reaches [tgt] or the abstract
   certifier bridges the gap, the Fig 6 enumeration otherwise.
   ({!Optimizer.Validate.validate} also decides the simple Def 2.4
   notion by enumeration, which fuzzing throughput cannot afford;
   soundness of a pass is the advanced notion.)  Routing fuzz traffic
   through both certifiers is deliberate: an unsound certificate would
   stop the campaign from refuting a planted bug, which the fixed-seed
   smoke test would flag. *)
let refines ~budget ~(src : Stmt.t) ~(tgt : Stmt.t) : bool =
  match Optimizer.Certify.attempt ~src ~tgt () with
  | Some _ -> true
  | None -> (
    match Optimizer.Certabs.attempt ~src ~tgt () with
    | Some _ -> true
    | None ->
      let d = Domain.of_stmts [ src; tgt ] in
      Seq_model.Advanced.check ~budget d ~src ~tgt)

let check_pass_correct ~budget (p : Stmt.t) : string option =
  let rec go = function
    | [] -> None
    | pass :: rest ->
      let tgt, rewrites, _, _ = Optimizer.Driver.run_pass pass p in
      if rewrites = 0 || Stmt.normalize tgt = Stmt.normalize p then go rest
      else if refines ~budget ~src:p ~tgt then go rest
      else
        Some
          (Printf.sprintf "%s output does not refine its input"
             (Optimizer.Driver.pass_name pass))
  in
  go Optimizer.Driver.all_passes

(* ------------------------------------------------------------------ *)
(* Exhaustive dynamic racy accesses: all (kind, loc) pairs of non-atomic
   accesses SEQ can perform without holding the permission, over every
   initial permission set and memory of the (2-valued, for tractability)
   domain.  Mirrors the qcheck harness in test/test_analysis.ml, but
   budget-charged so the campaign can bound it. *)
let dynamic_racy ~budget (p : Stmt.t) : ([ `Read | `Write ] * Loc.t) list =
  let module CSet = Set.Make (Seq_model.Config) in
  let d = Domain.of_stmts ~values:[ Value.Int 0; Value.Int 1 ] [ p ] in
  let seen = ref CSet.empty in
  let acc = ref [] in
  let rec visit cfg =
    if not (CSet.mem cfg !seen) then begin
      Engine.Budget.spend_state budget;
      seen := CSet.add cfg !seen;
      (match Prog.step cfg.Seq_model.Config.prog with
       | Prog.Do_read (Mode.Rna, x, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Read, x) :: !acc
       | Prog.Do_write (Mode.Wna, x, _, _)
         when not (Loc.Set.mem x cfg.Seq_model.Config.perm) ->
         acc := (`Write, x) :: !acc
       | _ -> ());
      List.iter
        (fun (_, next) ->
          match next with
          | Seq_model.Config.Cont c -> visit c
          | Seq_model.Config.Bot -> ())
        (Seq_model.Config.moves d cfg)
    end
  in
  List.iter
    (fun perm ->
      List.iter
        (fun mem -> visit (Seq_model.Config.make ~perm ~mem (Prog.init p)))
        (Domain.memories d))
    (Domain.subsets d.Domain.na_locs);
  List.sort_uniq compare !acc

let kind_name = function `Read -> "read" | `Write -> "write"

let check_analysis_sound ~budget (p : Stmt.t) : string option =
  let static =
    List.map
      (fun a -> (a.Analysis.Perm.kind, a.Analysis.Perm.loc))
      (Analysis.Perm.racy_accesses p)
  in
  let dynamic = dynamic_racy ~budget p in
  match List.find_opt (fun pr -> not (List.mem pr static)) dynamic with
  | None -> None
  | Some (k, x) ->
    Some
      (Printf.sprintf "dynamic racy %s of %s not statically flagged"
         (kind_name k) (Loc.name x))

let check_lint_agree ~budget (p : Stmt.t) : string option =
  let diags = Optimizer.Lint.lint ~hints:false [ p ] in
  let race_flagged =
    List.exists
      (fun d ->
        match d.Optimizer.Lint.rule with
        | Optimizer.Lint.Racy_read | Optimizer.Lint.Racy_write
        | Optimizer.Lint.Mixed_access | Optimizer.Lint.Unordered_race -> true
        | _ -> false)
      diags
  in
  if race_flagged then None
  else
    match dynamic_racy ~budget p with
    | [] -> None
    | (k, x) :: _ ->
      Some
        (Printf.sprintf "lint-clean program has a dynamic racy %s of %s"
           (kind_name k) (Loc.name x))

(* ------------------------------------------------------------------ *)
(* Baseline envelope.  Single-thread SC executions are SEQ executions
   under the identity environment from the full-permission, zero-memory
   initial configuration, so every SC (return value, prints) behavior
   must appear among SEQ's enumerated terminal behaviors; and on
   race-free programs the catch-fire semantics must agree with SC
   exactly (the DRF guarantee).

   The SEQ enumeration branches over environment choices at every
   acquire, so this oracle is exhaustive only on small programs: ones
   above [baseline_env_max_size] are skipped, like SC-truncated ones —
   the envelope property is about behavior sets, and on the campaign's
   deep mutants the enumeration would spend the entire state budget
   without covering either set (docs/FUZZING.md).

   The gate sits at 20 statements (12 at PR 5, 16 once the packed-table
   enumeration core landed): the hash-consed Seq_model.Core transitions
   keep the per-acquire branching cheap enough to afford the deeper
   programs within the same campaign budgets, with the 200k-state local
   cap below still bounding the worst loop-heavy mutants. *)
let baseline_env_max_size = 20

(* The SC side below is hard-capped (Sc.explore ~max_states), and the
   catch-fire side is derived from that one SC result; the SEQ
   enumeration needs the same protection when the campaign budget is
   unlimited — a loop-heavy mutant near the size gate can otherwise
   enumerate behavior sets without bound.  Any explicit budget wins. *)
let baseline_env_default_states = 200_000

let check_baseline_env ~budget (p : Stmt.t) : string option =
  if Stmt.size p > baseline_env_max_size then None
  else
  let budget =
    if Engine.Budget.is_unlimited budget then
      Engine.Budget.make ~max_states:baseline_env_default_states ()
    else budget
  in
  let sc = Backends.Sc.explore ~max_states:20_000 [ p ] in
  if sc.B.truncated then None
  else begin
    let cf = Backends.Catchfire.of_sc sc in
    if
      (not sc.B.races)
      && not (B.Behavior_set.equal cf.B.behaviors sc.B.behaviors)
    then Some "catch-fire disagrees with SC on a race-free program"
    else begin
      let d = Domain.of_stmts [ p ] in
      let cfg =
        Seq_model.Config.make ~perm:(Domain.na_set d) (Prog.init p)
      in
      let fuel = (16 * Stmt.size p) + 64 in
      let tables = Seq_model.Config.make_tables d in
      let behs = Seq_model.Behavior.enumerate ~budget ?tables d ~fuel cfg in
      let seq_terms =
        Seq_model.Behavior.Set.fold
          (fun (evs, r) acc ->
            match r with
            | Seq_model.Behavior.Trm (v, _, _) ->
              ( v,
                List.filter_map
                  (function Seq_model.Event.Out v -> Some v | _ -> None)
                  evs )
              :: acc
            | _ -> acc)
          behs []
      in
      let seq_bot =
        Seq_model.Behavior.Set.exists
          (fun (_, r) -> r = Seq_model.Behavior.Bot)
          behs
      in
      let missing = ref None in
      B.Behavior_set.iter
        (fun b ->
          if !missing = None then
            match b with
            | B.Bot ->
              if not seq_bot then missing := Some "an erroneous (Bot) behavior"
            | B.Ret [ (v, prints) ] ->
              if not (List.mem (v, prints) seq_terms) then
                missing :=
                  Some
                    (Fmt.str "return %a with %d print(s)" Value.pp v
                       (List.length prints))
            | B.Ret _ -> ())
        sc.B.behaviors;
      match !missing with
      | None -> None
      | Some what -> Some ("SC behavior missing from SEQ enumeration: " ^ what)
    end
  end

(* ------------------------------------------------------------------ *)
(* Hardware envelope.  Every hardware backend only ever relaxes SC —
   store buffering and local reordering add interleavings, they never
   remove one — so the SC behavior set of a generated program must be
   included in the hardware machine's (the first link of the
   SC ⊆ TSO ⊆ ARMv8 chain the E15 grid pins on the catalog, here
   cross-checked on arbitrary generated programs).  Size-gated and
   truncation-skipped like {!check_baseline_env}: inclusion is a
   statement about complete behavior sets. *)
let hw_max_states = 20_000

let check_baseline_hw ~budget machine (p : Stmt.t) : string option =
  if Stmt.size p > baseline_env_max_size then None
  else
    let (module M : B.MACHINE) =
      match Backends.Registry.find machine with
      | Some m -> m
      | None -> invalid_arg ("Oracle.baseline-hw: unknown backend " ^ machine)
    in
    let sc = Backends.Sc.explore ~max_states:hw_max_states ~budget [ p ] in
    if sc.B.truncated then None
    else
      let hw = M.explore ~max_states:hw_max_states ~budget [ p ] in
      if hw.B.truncated then None
      else if B.subset ~small:sc ~big:hw then None
      else Some ("SC behavior missing under " ^ M.name)

let check (k : kind) ~budget (p : Stmt.t) : string option =
  match k with
  | Pass_correct -> check_pass_correct ~budget p
  | Analysis_sound -> check_analysis_sound ~budget p
  | Lint_agree -> check_lint_agree ~budget p
  | Baseline_env -> check_baseline_env ~budget p
  | Baseline_hw m -> check_baseline_hw ~budget m p
