(** PS_na machine states, certification, exhaustive bounded exploration,
    and behavioral refinement (Def 5.2/5.3).

    Machine steps follow Fig 5: a thread takes a step (here: one step at a
    time, with promise/lower steps enumerated separately and bounded) and
    must then {e certify} — running alone, it must be able to fulfill all
    its outstanding promises (reaching ⊥ also empties the promise set, per
    the (fail)/(racy-write) rules).

    Explored states are deduplicated up to order-isomorphism of the
    per-location timestamp orders (timestamp values never matter beyond
    their relative order and attachment structure), which keeps litmus
    explorations finite.  The search is {!Explore}'s, shared with every
    other machine. *)

open Lang

type state = { threads : Thread.t list; memory : Memory.t }

(** A PS_na behavior: per-thread return value and output (system-call)
    sequence, or ⊥ for a UB run (Def 5.2 + footnote 10). *)
type behavior = Explore.behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

let compare_behavior = Explore.compare_behavior

module Behavior_set = Explore.Behavior_set

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)
(* ------------------------------------------------------------------ *)

(* Certification verdicts depend on the exploration parameters as well
   as the canonical state; a memo table shared across explorations with
   differing params must keep their entries apart. *)
let params_fingerprint (p : Thread.params) : string =
  Printf.sprintf "%s;%d;%b;%d;%d;%b|"
    (String.concat "," (List.map Value.to_string p.Thread.values))
    p.Thread.batch_bound p.Thread.batch_concrete p.Thread.promise_budget
    p.Thread.cert_fuel p.Thread.track_fence_views

(* One exploration's certification context.  [verdicts] caches verdicts
   across the exploration, keyed by the single-thread state (sound:
   certification only depends on it and the params, which select the
   table). *)
type cert = {
  params : Thread.params;
  ids : State_id.t;
  verdicts : (int, bool) Hashtbl.t;
  budget : Engine.Budget.t;
  mutable calls : int;
  mutable hits : int;  (** top-level memo hits *)
}

(* Thread-alone search for a promise-free point (new promises excluded;
   failure steps empty the promise set and therefore certify).  [m] and
   [tid] are the interned [mem] and [th]. *)
let certify (c : cert) (mem : Memory.t) (m : State_id.memory) (th : Thread.t)
    (tid : int) : bool =
  c.calls <- c.calls + 1;
  let top = State_id.single_key m tid in
  match Hashtbl.find_opt c.verdicts top with
  | Some b ->
    c.hits <- c.hits + 1;
    b
  | None ->
    let visited = Hashtbl.create 64 in
    (* [(pmem, pm)] is the previous memory and its interned form: steps
       that leave the memory alone return it physically unchanged *)
    let rec go fuel (pmem, pm) mem th =
      Engine.Budget.check c.budget;
      if th.Thread.promises = [] then true
      else if fuel = 0 then false
      else
        let m = if mem == pmem then pm else State_id.memory c.ids mem in
        let k = State_id.single_key m (State_id.thread c.ids m th) in
        if Hashtbl.mem visited k then false
        else begin
          Hashtbl.add visited k ();
          let outcomes =
            Thread.steps c.params mem th @ Thread.lower_steps mem th
          in
          List.exists
            (function
              | Thread.Failure -> Thread.may_fail th
              | Thread.Step (th', mem', _) -> go (fuel - 1) (mem, m) mem' th')
            outcomes
        end
    in
    let result = go c.params.Thread.cert_fuel (mem, m) mem th in
    Hashtbl.replace c.verdicts top result;
    result

(* ------------------------------------------------------------------ *)
(* Shareable memoization context                                        *)
(* ------------------------------------------------------------------ *)

(** A certification-memo context that can be threaded through several
    {!explore} calls (e.g. every context of one adequacy row, or all
    tasks a sweep worker domain executes).  Never share one across
    domains: the tables are plain [Hashtbl]s.  Sharing is sound across
    differing params (each params fingerprint has its own verdict table)
    and only ever changes {e timing} and hit counts, never verdicts or
    state counts. *)
type memo = {
  ids : State_id.t;
  tables : (string, (int, bool) Hashtbl.t) Hashtbl.t;
      (** params fingerprint -> verdicts *)
  mutable hits : int;  (** cumulative hits across all uses *)
}

let make_memo () =
  { ids = State_id.create (); tables = Hashtbl.create 4; hits = 0 }

let memo_hits (m : memo) = m.hits

(* ------------------------------------------------------------------ *)
(* Exploration                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  behaviors : Behavior_set.t;
  truncated : bool;  (** state budget exhausted: the set may be partial *)
  states : int;  (** distinct canonical states explored *)
  races : bool;  (** some explored state had an enabled racy access *)
  weak_races : bool;
      (** some state had a conflicting unseen message at an access of mode
          rlx or weaker — the premise of the DRF-PF guarantee counts races
          involving any non-acquire/release access *)
  memo_hits : int;
      (** certification-memo hits during this exploration — deterministic
          iff the memo was not pre-warmed by other explorations *)
  cert_calls : int;  (** certification calls, memo hits included *)
}

let state_has_race (s : state) : bool =
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read (o, x, _) ->
        Thread.is_racy s.memory th x ~atomic:(Mode.read_is_atomic o)
      | Prog.Do_write (o, x, _, _) ->
        Thread.is_racy s.memory th x ~atomic:(Mode.write_is_atomic o)
      | Prog.Do_update (x, _) -> Thread.is_racy s.memory th x ~atomic:true
      | _ -> false)
    s.threads

(* An unseen message of another thread at an access of mode rlx or weaker
   (reads: na/rlx; writes: na/rlx). *)
let state_has_weak_race (s : state) : bool =
  let unseen (th : Thread.t) x =
    List.exists
      (fun m ->
        (not (Thread.has_promise th m))
        && Time.lt (View.find x (Thread.cur th)) m.Message.ts)
      (Memory.messages_at s.memory x)
  in
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read ((Mode.Rna | Mode.Rrlx), x, _) -> unseen th x
      | Prog.Do_write ((Mode.Wna | Mode.Wrlx), x, _, _) -> unseen th x
      | _ -> false)
    s.threads

let rec stmt_has_fence = function
  | Stmt.Fence _ -> true
  | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> stmt_has_fence a || stmt_has_fence b
  | Stmt.While (_, a) -> stmt_has_fence a
  | Stmt.Skip | Stmt.Assign _ | Stmt.Load _ | Stmt.Store _ | Stmt.Cas _
  | Stmt.Fadd _ | Stmt.Choose _ | Stmt.Freeze _ | Stmt.Print _ | Stmt.Abort
  | Stmt.Return _ -> false

(* A queued state with its interned memory and thread ids. *)
type node = { s : state; m : State_id.memory; tids : int array }

(** Exhaustive bounded exploration of all PS_na behaviors of a concurrent
    program, as a {!Explore.STEP}.  [until_bot] stops once the state whose
    step reached ⊥ has been expanded — sound when the caller only needs the
    behaviors of a refinement {e source} (⊥ subsumes everything). *)
let explore ?(params = Thread.default_params) ?(until_bot = false) ?memo
    ?(budget = Engine.Budget.unlimited) (progs : Stmt.t list) : result =
  let params =
    if List.exists stmt_has_fence progs then params
    else { params with Thread.track_fence_views = false }
  in
  let ids, verdicts =
    match memo with
    | Some m ->
      let fp = params_fingerprint params in
      let verdicts =
        match Hashtbl.find_opt m.tables fp with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 1024 in
          Hashtbl.add m.tables fp t;
          t
      in
      (m.ids, verdicts)
    | None -> (State_id.create (), Hashtbl.create 1024)
  in
  let cert = { params; ids; verdicts; budget; calls = 0; hits = 0 } in
  (* promises only make sense at locations the promising thread writes *)
  let writable =
    List.map
      (fun s -> Loc.Set.elements (Thread.writable_locs Loc.Set.empty s))
      progs
  in
  let module E = Explore.Make (struct
    let name = "ps"

    type state = node

    let init progs =
      let locs =
        List.fold_left
          (fun acc s ->
            let fp = Stmt.footprint s in
            Loc.Set.union acc (Loc.Set.union fp.Stmt.na fp.Stmt.at))
          Loc.Set.empty progs
      in
      let s =
        {
          threads = List.map (fun s -> Thread.init (Prog.init s)) progs;
          memory = Memory.init (Loc.Set.elements locs);
        }
      in
      let m = State_id.memory ids s.memory in
      { s; m; tids = Array.of_list (List.map (State_id.thread ids m) s.threads) }

    (* Fig 5's machine step: a thread step, kept only if the thread
       certifies afterwards. *)
    let successors _ { s; m; tids } tid =
      let th = List.nth s.threads tid in
      List.filter_map
        (function
          | Thread.Failure -> Some `Ub
          | Thread.Step (th', mem', _) ->
            let m' = if mem' == s.memory then m else State_id.memory ids mem' in
            let id' = State_id.thread ids m' th' in
            if not (certify cert mem' m' th' id') then None
            else begin
              let threads = Explore.set_nth s.threads tid th' in
              let tids' =
                if m' == m then Array.copy tids
                else Array.of_list (List.map (State_id.thread ids m') threads)
              in
              tids'.(tid) <- id';
              Some (`Next { s = { threads; memory = mem' }; m = m'; tids = tids' })
            end)
        (Thread.steps params s.memory th
        @ Thread.promise_steps params (List.nth writable tid) s.memory th
        @ Thread.lower_steps s.memory th)

    (* a thread with outstanding promises has not finished *)
    let terminal { s; _ } =
      if List.for_all (fun (th : Thread.t) -> th.Thread.promises = []) s.threads
      then
        Explore.returned
          (List.map (fun (th : Thread.t) -> th.Thread.prog) s.threads)
          (List.map (fun (th : Thread.t) -> th.Thread.outs) s.threads)
      else None

    let raced n = state_has_race n.s

    type key = string

    let key n = State_id.state_key n.m n.tids
    let compare = String.compare
  end) in
  let r, weak_races =
    E.fold ~max_states:params.Thread.max_states ~budget ~until_ub:until_bot
      ~init:false
      ~f:(fun w n -> w || state_has_weak_race n.s)
      progs
  in
  Option.iter (fun m -> m.hits <- m.hits + cert.hits) memo;
  {
    behaviors = r.Explore.behaviors;
    truncated = r.Explore.truncated;
    states = r.Explore.states;
    races = r.Explore.races;
    weak_races;
    memo_hits = cert.hits;
    cert_calls = cert.calls;
  }

(** Budgeted exploration that never raises: [Error reason] on budget
    exhaustion or any trapped exception (e.g. [Stack_overflow]). *)
let explore_v ?params ?until_bot ?memo ?budget (progs : Stmt.t list) :
    (result, Engine.Verdict.reason) Stdlib.result =
  Engine.Verdict.capture (fun () ->
      explore ?params ?until_bot ?memo ?budget progs)

(* ------------------------------------------------------------------ *)
(* Behavioral refinement (Def 5.2 / 5.3)                                *)
(* ------------------------------------------------------------------ *)

let behavior_le (bt : behavior) (bs : behavior) : bool =
  match bt, bs with
  | _, Bot -> true
  | Bot, Ret _ -> false
  | Ret lt, Ret ls ->
    List.length lt = List.length ls
    && List.for_all2
         (fun (vt, ot) (vs, os) ->
           Value.le vt vs
           && List.length ot = List.length os
           && List.for_all2 Value.le ot os)
         lt ls

(** [refines ~src ~tgt]: every target behavior is ⊑-matched by a source
    behavior (a source ⊥ matches everything). *)
let refines ~(src : Behavior_set.t) ~(tgt : Behavior_set.t) : bool =
  Behavior_set.mem Bot src
  || Behavior_set.for_all
       (fun bt -> Behavior_set.exists (fun bs -> behavior_le bt bs) src)
       tgt

let pp_behavior ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Ret l ->
    let pp_one ppf (v, outs) =
      match outs with
      | [] -> Value.pp ppf v
      | _ -> Fmt.pf ppf "%a(out:%a)" Value.pp v Fmt.(list ~sep:comma Value.pp) outs
    in
    Fmt.pf ppf "⟨%a⟩" Fmt.(list ~sep:(any " ∥ ") pp_one) l

let pp_behaviors ppf set =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any "; ") pp_behavior)
    (Behavior_set.elements set)
