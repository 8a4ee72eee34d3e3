(* Differential harness for PS_na's packed state identity
   (Promising.State_id): the reference here is the string key PS_na
   exploration used to be keyed on — timestamps replaced by their rank
   in a sprintf-built string — together with the exploration and
   certification loops built on it.  On the E4 programs, the E15 grid
   and random two-thread programs, the packed identity must split states
   exactly as the string key does, and the packed explorer must report
   the same behavior sets, state counts, race flags, truncation,
   certification calls and memo hits. *)

open Lang
open Promising
module M = Machine

(* --------------------------------------------------------------- *)
(* The reference: the string key and the explorer keyed on it       *)
(* --------------------------------------------------------------- *)

module Prog_map = Map.Make (struct
  type t = Prog.state
  let compare = Prog.compare_state
end)

type interner = { mutable next : int; mutable ids : int Prog_map.t }

let intern (i : interner) (p : Prog.state) : int =
  match Prog_map.find_opt p i.ids with
  | Some id -> id
  | None ->
    let id = i.next in
    i.next <- id + 1;
    i.ids <- Prog_map.add p id i.ids;
    id

(* Rank of a timestamp within its location's message list (0 = the init
   message). *)
let canon_key (i : interner) (s : M.state) : string =
  let buf = Buffer.create 256 in
  let ranks : (Loc.t * (Time.t * int) list) list =
    Loc.Map.fold
      (fun x ms acc ->
        (x, List.mapi (fun i m -> (m.Message.ts, i)) ms) :: acc)
      s.M.memory.Memory.msgs []
  in
  let rank x ts =
    match List.assoc_opt x ranks with
    | None -> -1
    | Some l ->
      (match List.find_opt (fun (t, _) -> Time.equal t ts) l with
       | Some (_, i) -> i
       | None -> -2)
  in
  let add_view v =
    Loc.Map.iter
      (fun x t ->
        if not (Time.equal t Time.zero) then
          Buffer.add_string buf (Printf.sprintf "%s@%d;" x (rank x t)))
      v
  in
  let add_msg m =
    Buffer.add_string buf
      (Printf.sprintf "%s@%d%s:" m.Message.loc
         (rank m.Message.loc m.Message.ts)
         (if m.Message.attached then "!" else ""));
    (match m.Message.payload with
     | Message.Reserved -> Buffer.add_string buf "res"
     | Message.Concrete { value; view } ->
       Buffer.add_string buf (Value.to_string value);
       Buffer.add_char buf '[';
       add_view view;
       Buffer.add_char buf ']');
    Buffer.add_char buf ' '
  in
  Loc.Map.iter
    (fun x ms ->
      Buffer.add_string buf x;
      Buffer.add_string buf "::";
      List.iter add_msg ms;
      Buffer.add_char buf '\n')
    s.M.memory.Memory.msgs;
  Buffer.add_string buf "S:";
  add_view s.M.memory.Memory.scv;
  Buffer.add_char buf '\n';
  List.iter
    (fun (th : Thread.t) ->
      Buffer.add_string buf "T:";
      Buffer.add_string buf (string_of_int (intern i th.Thread.prog));
      Buffer.add_char buf '|';
      add_view th.Thread.views.Tview.cur;
      Buffer.add_char buf ';';
      add_view th.Thread.views.Tview.acq;
      Buffer.add_char buf ';';
      add_view th.Thread.views.Tview.rel;
      Buffer.add_char buf '|';
      List.iter add_msg th.Thread.promises;
      Buffer.add_char buf '|';
      List.iter
        (fun v -> Buffer.add_string buf (Value.to_string v ^ ","))
        th.Thread.outs;
      Buffer.add_string buf (Printf.sprintf "|%d\n" th.Thread.promised))
    s.M.threads;
  Buffer.contents buf

let terminal_behavior (s : M.state) : M.behavior option =
  let rec go acc = function
    | [] -> Some (M.Ret (List.rev acc))
    | (th : Thread.t) :: rest ->
      (match Prog.step th.Thread.prog with
       | Prog.Terminated v when th.Thread.promises = [] ->
         go ((v, List.rev th.Thread.outs) :: acc) rest
       | _ -> None)
  in
  go [] s.M.threads

let state_has_race (s : M.state) : bool =
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read (o, x, _) ->
        Thread.is_racy s.M.memory th x ~atomic:(Mode.read_is_atomic o)
      | Prog.Do_write (o, x, _, _) ->
        Thread.is_racy s.M.memory th x ~atomic:(Mode.write_is_atomic o)
      | Prog.Do_update (x, _) -> Thread.is_racy s.M.memory th x ~atomic:true
      | _ -> false)
    s.M.threads

let state_has_weak_race (s : M.state) : bool =
  let unseen (th : Thread.t) x =
    List.exists
      (fun m ->
        (not (Thread.has_promise th m))
        && Time.lt (View.find x (Thread.cur th)) m.Message.ts)
      (Memory.messages_at s.M.memory x)
  in
  List.exists
    (fun (th : Thread.t) ->
      match Prog.step th.Thread.prog with
      | Prog.Do_read ((Mode.Rna | Mode.Rrlx), x, _) -> unseen th x
      | Prog.Do_write ((Mode.Wna | Mode.Wrlx), x, _, _) -> unseen th x
      | _ -> false)
    s.M.threads

let rec stmt_has_fence = function
  | Stmt.Fence _ -> true
  | Stmt.Seq (a, b) | Stmt.If (_, a, b) -> stmt_has_fence a || stmt_has_fence b
  | Stmt.While (_, a) -> stmt_has_fence a
  | Stmt.Skip | Stmt.Assign _ | Stmt.Load _ | Stmt.Store _ | Stmt.Cas _
  | Stmt.Fadd _ | Stmt.Choose _ | Stmt.Freeze _ | Stmt.Print _ | Stmt.Abort
  | Stmt.Return _ -> false

(* What the reference reports, plus every state it keyed (whole states
   and certification's single-thread states) with its key, for the
   split check. *)
type reference = {
  result : M.result;
  keyed : (string * M.state) list;
}

let reference_explore ?(params = Thread.default_params) (progs : Stmt.t list)
    : reference =
  let params =
    if List.exists stmt_has_fence progs then params
    else { params with Thread.track_fence_views = false }
  in
  let interner = { next = 0; ids = Prog_map.empty } in
  let keyed = ref [] in
  let key s =
    let k = canon_key interner s in
    keyed := (k, s) :: !keyed;
    k
  in
  let memo = Hashtbl.create 1024 in
  let hits = ref 0 and calls = ref 0 in
  let certify mem th =
    incr calls;
    let single mem th = key { M.threads = [ th ]; memory = mem } in
    let top_key = single mem th in
    match Hashtbl.find_opt memo top_key with
    | Some b ->
      incr hits;
      b
    | None ->
      let visited = Hashtbl.create 64 in
      let rec go fuel mem th =
        if th.Thread.promises = [] then true
        else if fuel = 0 then false
        else
          let k = single mem th in
          if Hashtbl.mem visited k then false
          else begin
            Hashtbl.add visited k ();
            List.exists
              (function
                | Thread.Failure -> Thread.may_fail th
                | Thread.Step (th', mem', _) -> go (fuel - 1) mem' th')
              (Thread.steps params mem th @ Thread.lower_steps mem th)
          end
      in
      let result = go params.Thread.cert_fuel mem th in
      Hashtbl.replace memo top_key result;
      result
  in
  let locs =
    List.fold_left
      (fun acc s ->
        let fp = Stmt.footprint s in
        Loc.Set.union acc (Loc.Set.union fp.Stmt.na fp.Stmt.at))
      Loc.Set.empty progs
    |> Loc.Set.elements
  in
  let writable =
    List.map
      (fun s -> Loc.Set.elements (Thread.writable_locs Loc.Set.empty s))
      progs
  in
  let visited = Hashtbl.create 4096 in
  let behaviors = ref M.Behavior_set.empty in
  let races = ref false and weak_races = ref false and truncated = ref false in
  let queue = Queue.create () in
  let push s =
    let k = key s in
    if not (Hashtbl.mem visited k) then
      if Hashtbl.length visited >= params.Thread.max_states then
        truncated := true
      else begin
        Hashtbl.add visited k ();
        Queue.push s queue
      end
  in
  push
    {
      M.threads = List.map (fun s -> Thread.init (Prog.init s)) progs;
      memory = Memory.init locs;
    };
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if state_has_race s then races := true;
    if state_has_weak_race s then weak_races := true;
    Option.iter
      (fun b -> behaviors := M.Behavior_set.add b !behaviors)
      (terminal_behavior s);
    List.iteri
      (fun tid (th : Thread.t) ->
        List.iter
          (function
            | Thread.Failure -> behaviors := M.Behavior_set.add M.Bot !behaviors
            | Thread.Step (th', mem', _) ->
              if certify mem' th' then
                push
                  {
                    M.threads =
                      List.mapi
                        (fun i t -> if i = tid then th' else t)
                        s.M.threads;
                    memory = mem';
                  })
          (Thread.steps params s.M.memory th
          @ Thread.promise_steps params (List.nth writable tid) s.M.memory th
          @ Thread.lower_steps s.M.memory th))
      s.M.threads
  done;
  {
    result =
      {
        M.behaviors = !behaviors;
        truncated = !truncated;
        states = Hashtbl.length visited;
        races = !races;
        weak_races = !weak_races;
        memo_hits = !hits;
        cert_calls = !calls;
      };
    keyed = !keyed;
  }

(* --------------------------------------------------------------- *)
(* The checks                                                       *)
(* --------------------------------------------------------------- *)

let packed ids (s : M.state) =
  let m = State_id.memory ids s.M.memory in
  (State_id.memory_id m, List.map (State_id.thread ids m) s.M.threads)

(* packed-equal <=> string-equal over the states the reference keyed. *)
let check_split name (keyed : (string * M.state) list) =
  let ids = State_id.create () in
  let by_string = Hashtbl.create 1024 and by_packed = Hashtbl.create 1024 in
  List.iter
    (fun (k, s) ->
      let p = packed ids s in
      (match Hashtbl.find_opt by_string k with
       | Some p' when p' <> p ->
         Alcotest.failf "%s: string-equal states got two packed ids" name
       | _ -> Hashtbl.replace by_string k p);
      match Hashtbl.find_opt by_packed p with
      | Some k' when k' <> k ->
        Alcotest.failf "%s: packed-equal states have distinct string keys:@.%s@.%s"
          name k' k
      | _ -> Hashtbl.replace by_packed p k)
    keyed

let render (r : M.result) =
  Fmt.str "%d states, truncated=%b, races=%b, weak_races=%b, %d cert calls, \
           %d memo hits, %a"
    r.M.states r.M.truncated r.M.races r.M.weak_races r.M.cert_calls
    r.M.memo_hits M.pp_behaviors r.M.behaviors

let max_states = 300
let params = { Thread.default_params with Thread.max_states }

let check_program ?(params = params) name progs =
  let reference = reference_explore ~params progs in
  check_split name reference.keyed;
  Alcotest.(check string) name (render reference.result)
    (render (M.explore ~params progs))

let litmus =
  List.map
    (fun (c : Litmus.Catalog.concurrent) ->
      (c.Litmus.Catalog.cname, c.Litmus.Catalog.threads))
    Litmus.Catalog.litmus_programs

(* Shapes the catalog does not reach, each meeting two states that
   differ in one field of the encoding only: outputs, an RMW's attached
   message, undef and negative values, fence views and the SC view. *)
let fields =
  [ ("outs",
     "a = choose(); if a == 1 { print(1) } else { print(2) }; a = 0; \
      return 0 ||| \
      X.store(rlx,1); return 0");
    ("attached",
     "b = choose(); if b == 1 { a = cas(X,0,1) } else { X.store(rlx,1) }; \
      a = 0; b = 0; return 0 ||| c = X.load(rlx); return c");
    ("values",
     "X.store(rlx, 0 - 1); a = Y.load(na); Y.store(rlx, a); return 0 ||| \
      Y.store(na, 2); b = X.load(rlx); return b");
    ("fences",
     "X.store(rlx,1); fence(rel); Y.store(rlx,1); fence(sc); return 0 ||| \
      a = Y.load(rlx); fence(acq); b = X.load(rlx); fence(sc); return a + b") ]

let program_tests label programs =
  Alcotest.test_case
    (Printf.sprintf "%s: packed == string key (%d-state bound)" label
       max_states)
    `Quick (fun () ->
      List.iter
        (fun (name, src) -> check_program name (Parser.threads_of_string src))
        programs)

(* Random programs often race on non-atomics, where certification
   searches are deep: a smaller fuel keeps the reference affordable. *)
let random_params = { params with Thread.cert_fuel = 8; max_states = 100 }

let random_programs =
  QCheck.Test.make ~name:"random 2-thread programs: packed == string key"
    ~count:15
    (QCheck.pair
       (Test_properties.stmt_arbitrary Test_properties.small_cfg ~size:3)
       (Test_properties.stmt_arbitrary Test_properties.small_cfg ~size:3))
    (fun (s, t) ->
      check_program ~params:random_params
        (Stmt.to_string s ^ " ||| " ^ Stmt.to_string t)
        [ s; t ];
      true)

(* --------------------------------------------------------------- *)
(* Malformed states fail loudly                                      *)
(* --------------------------------------------------------------- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let malformed_tests =
  let mem = Memory.init [ Loc.make "X" ] in
  let th = Thread.init (Prog.init (Parser.stmt_of_string "return 0")) in
  let with_cur v = { th with Thread.views = { Tview.bot with Tview.cur = v } } in
  [
    Alcotest.test_case "a view on a location not in memory raises" `Quick
      (fun () ->
        let ids = State_id.create () in
        let m = State_id.memory ids mem in
        Alcotest.(check bool) "raises" true
          (raises_invalid (fun () ->
               State_id.thread ids m
                 (with_cur (View.singleton (Loc.make "Q") Time.one)))));
    Alcotest.test_case "a view on a timestamp with no message raises" `Quick
      (fun () ->
        let ids = State_id.create () in
        let m = State_id.memory ids mem in
        Alcotest.(check bool) "thread view raises" true
          (raises_invalid (fun () ->
               State_id.thread ids m
                 (with_cur (View.singleton (Loc.make "X") Time.one))));
        Alcotest.(check bool) "SC view raises" true
          (raises_invalid (fun () ->
               State_id.memory ids
                 (Memory.with_sc_view mem (View.singleton (Loc.make "X") Time.one)))));
  ]

(* --------------------------------------------------------------- *)
(* Memories of different footprints                                 *)
(* --------------------------------------------------------------- *)

(* A view's length is the footprint's, so without the location count in
   front a memory's encoding is not prefix-free.  These two hand-built
   memories, one over X and Y and one over X alone, encode to the same
   bytes unless it is there: the name and message count of Y and the
   ranks of the two-entry views are read again as the tags, values and
   one-entry views of X's messages (the value 44 encodes as the byte of
   "Y").  Message [i] of a location sits at timestamp [i]; views are
   given as ranks. *)
let footprint_test =
  Alcotest.test_case "memories of different footprints get different ids"
    `Quick (fun () ->
      let x = Loc.make "X" and y = Loc.make "Y" in
      let view ranks =
        List.fold_left
          (fun v (l, k) -> if k = 0 then v else View.set l (Time.of_int k) v)
          View.bot ranks
      in
      let c v ranks = Message.Concrete { value = v; view = view ranks }
      and r = Message.Reserved
      and n = Value.Int (-1) in
      let memory locs scv =
        let msgs l =
          List.mapi (fun i payload ->
              { Message.loc = l; ts = Time.of_int i; attached = false; payload })
        in
        {
          Memory.msgs =
            List.fold_left
              (fun acc (l, ps) -> Loc.Map.add l (msgs l ps) acc)
              Loc.Map.empty locs;
          scv = view scv;
        }
      in
      let xy =
        memory
          [
            ( x,
              [ c n [ (x, 2); (y, 1) ]; r; r;
                c (Value.Int 1) [ (x, 1); (y, 1) ]; r; r;
                c n [ (x, 3); (y, 1) ]; r; r ] );
            (y, [ c n [ (x, 2); (y, 1) ]; r ]);
          ]
          [ (x, 2); (y, 1) ]
      and x_only =
        memory
          [
            ( x,
              [ c n [ (x, 2) ]; c Value.Undef []; c (Value.Int 1) [ (x, 1) ];
                c Value.Undef []; c n [ (x, 3) ]; c Value.Undef [];
                c (Value.Int 44) [ (x, 2) ]; c n [ (x, 2) ];
                c Value.Undef [ (x, 2) ] ] );
          ]
          [ (x, 1) ]
      in
      let ids = State_id.create () in
      let id m = State_id.memory_id (State_id.memory ids m) in
      Alcotest.(check bool) "different ids" true (id xy <> id x_only))

let suite =
  [
    program_tests "E4 programs and E15 grid" litmus;
    program_tests "one field apart" fields;
    QCheck_alcotest.to_alcotest random_programs;
  ]
  @ malformed_tests @ [ footprint_test ]
