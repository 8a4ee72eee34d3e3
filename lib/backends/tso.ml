(** An x86-TSO operational machine: per-thread FIFO store buffers over a
    single flat memory (see tso.mli and docs/BACKENDS.md).

    The step relation, per thread:
    - a buffered write ([na]/[rlx]) appends to the thread's FIFO buffer;
    - an asynchronous {e drain} step commits the oldest buffered entry
      to memory (drains of different threads interleave freely — this
      is the store-buffering relaxation);
    - a load forwards the newest own-buffer entry for its location, and
      reads memory otherwise (x86 store-to-load forwarding);
    - acquire loads, release stores, RMWs and every fence first drain
      the whole buffer (the mfence discipline), so they are
      sequentially consistent points — release stores then write
      through to memory directly.

    Terminal behaviors require every buffer to be empty: a run ends
    only once all its stores have committed.  Race detection is {!Hb}'s,
    the search {!Promising.Explore}'s. *)

open Lang

type state = {
  progs : Prog.state list;
  bufs : (Loc.t * Value.t) list list;  (* per thread, oldest first *)
  mem : Value.t Loc.Map.t;
  outs : Value.t list list;  (* per thread, most recent first *)
  hb : Hb.t;
}

let set_nth = Promising.Explore.set_nth
let read_mem st x = Loc.Map.find_default ~default:Value.zero x st.mem

(* Newest own-buffer entry for [x], if any. *)
let forwarded buf x =
  List.fold_left
    (fun acc (y, v) -> if Loc.compare y x = 0 then Some v else acc)
    None buf

let drain_all st tid =
  let buf = List.nth st.bufs tid in
  let mem = List.fold_left (fun m (x, v) -> Loc.Map.add x v m) st.mem buf in
  { st with mem; bufs = set_nth st.bufs tid [] }

let init progs =
  {
    progs = List.map Prog.init progs;
    bufs = List.map (fun _ -> []) progs;
    mem = Loc.Map.empty;
    outs = List.map (fun _ -> []) progs;
    hb = Hb.make (List.length progs);
  }

(* The steps of thread [tid]: an optional drain of its oldest buffered
   store, then its program step (if any). *)
let successors (values : Value.t list) (st : state) (tid : int) =
  let prog = List.nth st.progs tid in
  let buf = List.nth st.bufs tid in
  let with_prog st p = { st with progs = set_nth st.progs tid p } in
  let drains =
    match buf with
    | [] -> []
    | (x, v) :: rest ->
      [ `Next
          { st with bufs = set_nth st.bufs tid rest; mem = Loc.Map.add x v st.mem }
      ]
  in
  let prog_steps =
    match Prog.step prog with
    | Prog.Terminated _ -> []
    | Prog.Undefined -> [ `Ub ]
    | Prog.Silent p -> [ `Next (with_prog st p) ]
    | Prog.Do_out (v, p) ->
      let outs = set_nth st.outs tid (v :: List.nth st.outs tid) in
      [ `Next (with_prog { st with outs } p) ]
    | Prog.Choice f -> List.map (fun v -> `Next (with_prog st (f v))) values
    | Prog.Do_read (o, x, f) ->
      let atomic = Mode.read_is_atomic o in
      if o = Mode.Racq then begin
        (* mfence-on-acquire: drain, then read memory. *)
        let st = drain_all st tid in
        let st = { st with hb = Hb.read st.hb ~tid x ~atomic ~acq:true } in
        [ `Next (with_prog st (f (read_mem st x))) ]
      end
      else begin
        let st = { st with hb = Hb.read st.hb ~tid x ~atomic ~acq:false } in
        let v =
          match forwarded buf x with Some v -> v | None -> read_mem st x
        in
        [ `Next (with_prog st (f v)) ]
      end
    | Prog.Do_write (o, x, v, p) ->
      let atomic = Mode.write_is_atomic o in
      if o = Mode.Wrel then begin
        (* mfence-on-release: drain, then write through. *)
        let st = drain_all st tid in
        let st = { st with hb = Hb.write st.hb ~tid x ~atomic ~rel:true } in
        [ `Next (with_prog { st with mem = Loc.Map.add x v st.mem } p) ]
      end
      else begin
        let st = { st with hb = Hb.write st.hb ~tid x ~atomic ~rel:false } in
        let bufs = set_nth st.bufs tid (buf @ [ (x, v) ]) in
        [ `Next (with_prog { st with bufs } p) ]
      end
    | Prog.Do_update (x, f) ->
      (* RMWs are locked instructions: drain, then read-modify-write
         memory atomically. *)
      let st = drain_all st tid in
      (match f (read_mem st x) with
       | Prog.Upd_fault -> [ `Ub ]
       | Prog.Upd_read_only p ->
         let st = { st with hb = Hb.update st.hb ~tid x ~write:false } in
         [ `Next (with_prog st p) ]
       | Prog.Upd_write (v_new, p) ->
         let st = { st with hb = Hb.update st.hb ~tid x ~write:true } in
         [ `Next (with_prog { st with mem = Loc.Map.add x v_new st.mem } p) ])
    | Prog.Do_fence (m, p) ->
      let st = drain_all st tid in
      let st = { st with hb = Hb.fence st.hb ~tid m } in
      [ `Next (with_prog st p) ]
  in
  drains @ prog_steps

(* A run terminates only once every buffer has committed. *)
let terminal st =
  if List.for_all (fun b -> b = []) st.bufs then
    Promising.Explore.returned st.progs st.outs
  else None

module State_key = struct
  type t = state

  let compare_buf = List.compare (fun (x1, v1) (x2, v2) ->
      let c = Loc.compare x1 x2 in
      if c <> 0 then c else Value.compare v1 v2)

  let compare s1 s2 =
    let c = List.compare Prog.compare_state s1.progs s2.progs in
    if c <> 0 then c
    else
      let c = List.compare compare_buf s1.bufs s2.bufs in
      if c <> 0 then c
      else
        let c = Loc.Map.compare Value.compare s1.mem s2.mem in
        if c <> 0 then c
        else
          let c =
            List.compare (List.compare Value.compare) s1.outs s2.outs
          in
          if c <> 0 then c else Hb.compare s1.hb s2.hb
end

include Promising.Explore.Make (struct
  let name = "tso"

  type nonrec state = state

  let init = init
  let successors = successors
  let terminal = terminal
  let raced st = Hb.raced st.hb

  type key = state

  let key st = st
  let compare = State_key.compare
end)
