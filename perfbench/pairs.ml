(* The validate-pairs item set, shared with seqd-cache-mix: the 57
   catalog transformations with their hand-written verdicts, plus a
   seeded draw of generated programs for the certified optimizer.  Items
   are program text; the program under test parses them itself. *)

open Lang
module C = Litmus.Catalog

type expect =
  | Verdicts of { simple : bool; advanced : bool }
      (** a catalog pair: both refinement notions are known *)
  | Must_validate
      (** a generated program: the optimizer's output must refine it *)

type t = {
  id : int;
  label : string;
  src : string;
  tgt : string option;  (** [None]: the optimizer produces the target *)
  expect : expect;
  recheck : bool;
      (** in the seeded sample re-checked by enumeration alone *)
}

(* Generated programs: sizes 6-15, about half with bounded loops. *)
let gen_config loops = { Gen.default_config with allow_loops = loops }

let catalog () =
  List.mapi
    (fun i (tr : C.transformation) ->
      {
        id = i;
        label = tr.C.name;
        src = tr.C.src;
        tgt = Some tr.C.tgt;
        expect =
          Verdicts
            { simple = tr.C.simple = C.Sound; advanced = tr.C.advanced = C.Sound };
        recheck = false;
      })
    C.transformations

(* The generated programs are one fixed draw (generator seed
   [program_seed]); the benchmark seed only picks the re-checked sample.
   Their cost is heavy-tailed — a few programs take seconds — so fresh
   draws per seed moved items_per_s by a third and item_ms_p99 by most
   of its value between seeds, and a seeded order still moved peak
   memory and item_ms_p99 by a fifth (the heap a heavy item meets
   depends on what ran before it).  The draw was not screened: seed 1
   was the first one used. *)
let program_seed = 1

(* One in [recheck_every] generated items is re-validated with
   [fast_path:false]. *)
let recheck_every = 8

let generated ~seed ~count =
  let st = Random.State.make [| program_seed; 0x5eed |] in
  let pick = Random.State.make [| seed; 0x5eed |] in
  let base = List.length C.transformations in
  List.init count (fun k ->
      let loops = Random.State.bool st in
      let size = 6 + Random.State.int st 10 in
      let p = Gen.gen_program (gen_config loops) st ~size in
      {
        id = base + k;
        label = Printf.sprintf "gen-%d" k;
        src = Stmt.to_string p;
        tgt = None;
        expect = Must_validate;
        recheck = Random.State.int pick recheck_every = 0;
      })

let make ~seed ~generated:count = catalog () @ generated ~seed ~count
