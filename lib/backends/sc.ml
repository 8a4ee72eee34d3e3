(** The sequentially consistent interleaving machine (see sc.mli).

    Memory is a flat map.  Race detection is {!Hb}'s: release/acquire
    (and RMW) accesses synchronize via per-location release clocks;
    relaxed accesses do not synchronize but also do not race (only
    conflicting pairs with at least one non-atomic access race, §5).
    The search is {!Promising.Explore}'s. *)

open Lang

type state = {
  progs : Prog.state list;
  mem : Value.t Loc.Map.t;
  outs : Value.t list list;  (* per thread, most recent first *)
  hb : Hb.t;
}

let set_nth = Promising.Explore.set_nth
let read_mem st x = Loc.Map.find_default ~default:Value.zero x st.mem

let init progs =
  {
    progs = List.map Prog.init progs;
    mem = Loc.Map.empty;
    outs = List.map (fun _ -> []) progs;
    hb = Hb.make (List.length progs);
  }

let successors (values : Value.t list) (st : state) (tid : int) =
  let with_prog st p = { st with progs = set_nth st.progs tid p } in
  match Prog.step (List.nth st.progs tid) with
  | Prog.Terminated _ -> []
  | Prog.Undefined -> [ `Ub ]
  | Prog.Silent p -> [ `Next (with_prog st p) ]
  | Prog.Do_out (v, p) ->
    let outs = set_nth st.outs tid (v :: List.nth st.outs tid) in
    [ `Next (with_prog { st with outs } p) ]
  | Prog.Choice f -> List.map (fun v -> `Next (with_prog st (f v))) values
  | Prog.Do_read (o, x, f) ->
    let atomic = Mode.read_is_atomic o in
    let hb = Hb.read st.hb ~tid x ~atomic ~acq:(o = Mode.Racq) in
    [ `Next (with_prog { st with hb } (f (read_mem st x))) ]
  | Prog.Do_write (o, x, v, p) ->
    let atomic = Mode.write_is_atomic o in
    let hb = Hb.write st.hb ~tid x ~atomic ~rel:(o = Mode.Wrel) in
    [ `Next (with_prog { st with hb; mem = Loc.Map.add x v st.mem } p) ]
  | Prog.Do_update (x, f) ->
    (match f (read_mem st x) with
     | Prog.Upd_fault -> [ `Ub ]
     | Prog.Upd_read_only p ->
       let hb = Hb.update st.hb ~tid x ~write:false in
       [ `Next (with_prog { st with hb } p) ]
     | Prog.Upd_write (v, p) ->
       let hb = Hb.update st.hb ~tid x ~write:true in
       [ `Next (with_prog { st with hb; mem = Loc.Map.add x v st.mem } p) ])
  | Prog.Do_fence (m, p) ->
    [ `Next (with_prog { st with hb = Hb.fence st.hb ~tid m } p) ]

(* The key keeps the strict-race locations, so that their union over
   the explored states is exact. *)
module State_key = struct
  type t = state

  let compare s1 s2 =
    let c = List.compare Prog.compare_state s1.progs s2.progs in
    if c <> 0 then c
    else
      let c = Loc.Map.compare Value.compare s1.mem s2.mem in
      if c <> 0 then c
      else
        let c = List.compare (List.compare Value.compare) s1.outs s2.outs in
        if c <> 0 then c else Hb.compare_strict s1.hb s2.hb
end

include Promising.Explore.Make (struct
  let name = "sc"

  type nonrec state = state

  let init = init
  let successors = successors
  let terminal st = Promising.Explore.returned st.progs st.outs
  let raced st = Hb.raced st.hb

  type key = state

  let key st = st
  let compare = State_key.compare
end)

let explore_strict ?values ?max_states ?budget progs =
  fold ?values ?max_states ?budget progs ~init:Loc.Set.empty
    ~f:(fun locs st -> Loc.Set.union locs (Hb.strict_races st.hb))
