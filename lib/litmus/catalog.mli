(** The paper's examples as a machine-readable corpus.

    Conventions: [X], [W] are non-atomic locations; [Y], [Z] atomic;
    [a]..[d] registers.  Transformation snippets end with an observer
    [return] so register results are behaviors. *)

type verdict = Sound | Unsound

val verdict_to_string : verdict -> string

type transformation = {
  name : string;
  paper_ref : string;  (** example / section number in the paper *)
  src : string;
  tgt : string;
  simple : verdict;  (** expected under simple refinement (Def 2.4) *)
  advanced : verdict;  (** expected under advanced refinement (Def 3.3) *)
}

val transformations : transformation list
val find_transformation : string -> transformation option

(** Concurrent litmus programs (for E4). *)
type concurrent = {
  cname : string;
  cref : string;
  threads : string;  (** [|||]-separated program text *)
}

val concurrent_programs : concurrent list

(** One row of the E15 differential backend grid: a litmus program, its
    designated weak outcome (one return value per thread), and the
    expected allowed/forbidden verdict per backend name. *)
type grid_entry = {
  g : concurrent;
  weak : int list;
  allowed : (string * bool) list;
}

(** The grid corpus (SB, MP, LB and IRIW-style rows): the classic
    separations — SB separates TSO from SC, MP-rlx separates ARMv8 from
    TSO, LB separates PS_na from ARMv8. *)
val grid_programs : grid_entry list

(** Every distinct litmus program: the E4 programs, then the grid rows'
    programs that are not among them, in catalog order. *)
val litmus_programs : concurrent list

(** The E15 pass-soundness grid: (transformation name, context name)
    pairs — each SEQ-validated pass is plugged into the context and
    re-checked as behavior-set refinement under every backend. *)
val grid_passes : (string * string) list

(** Concurrent contexts for the adequacy experiment (E5), following the
    corpus location conventions. *)
val contexts : (string * string) list
