(** The one bounded breadth-first explorer behind every machine (see
    explore.mli). *)

open Lang

type behavior =
  | Ret of (Value.t * Value.t list) list
  | Bot

let compare_behavior b1 b2 =
  match b1, b2 with
  | Bot, Bot -> 0
  | Bot, Ret _ -> -1
  | Ret _, Bot -> 1
  | Ret l1, Ret l2 ->
    List.compare
      (fun (v1, o1) (v2, o2) ->
        let c = Value.compare v1 v2 in
        if c <> 0 then c else List.compare Value.compare o1 o2)
      l1 l2

module Behavior_set = Set.Make (struct
  type t = behavior
  let compare = compare_behavior
end)

type result = {
  behaviors : Behavior_set.t;
  races : bool;
  truncated : bool;
  states : int;
}

let default_max_states = 200_000

module type STEP = sig
  val name : string

  type state

  val init : Stmt.t list -> state
  val successors : Value.t list -> state -> int -> [ `Next of state | `Ub ] list
  val terminal : state -> behavior option
  val raced : state -> bool

  type key

  val key : state -> key
  val compare : key -> key -> int
end

let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l

let returned progs outs =
  let rec go acc progs outs =
    match (progs, outs) with
    | [], [] -> Some (Ret (List.rev acc))
    | p :: ps, o :: os ->
      (match Prog.step p with
       | Prog.Terminated v -> go ((v, List.rev o) :: acc) ps os
       | _ -> None)
    | _ -> None
  in
  go [] progs outs

module Make (S : STEP) = struct
  let name = S.name

  module Visited = Set.Make (struct
    type t = S.key

    let compare = S.compare
  end)

  let fold ?(values = Domain.default_values) ?(max_states = default_max_states)
      ?(budget = Engine.Budget.unlimited) ?(until_ub = false) ~f ~init
      (progs : Stmt.t list) =
    let n = List.length progs in
    let visited = ref Visited.empty in
    let states = ref 0 in
    let behaviors = ref Behavior_set.empty in
    let races = ref false in
    let truncated = ref false in
    let ub = ref false in
    let acc = ref init in
    let queue = Queue.create () in
    let push st =
      let k = S.key st in
      if not (Visited.mem k !visited) then
        if !states >= max_states then truncated := true
        else begin
          Engine.Budget.spend_state budget;
          visited := Visited.add k !visited;
          incr states;
          Queue.push st queue
        end
    in
    let add b = behaviors := Behavior_set.add b !behaviors in
    push (S.init progs);
    while (not (until_ub && !ub)) && not (Queue.is_empty queue) do
      Engine.Budget.check budget;
      let st = Queue.pop queue in
      acc := f !acc st;
      if S.raced st then races := true;
      Option.iter add (S.terminal st);
      for tid = 0 to n - 1 do
        List.iter
          (function
            | `Ub ->
              add Bot;
              ub := true
            | `Next st' -> push st')
          (S.successors values st tid)
      done
    done;
    ( { behaviors = !behaviors; races = !races; truncated = !truncated;
        states = !states },
      !acc )

  let explore ?values ?max_states ?budget progs =
    fst (fold ?values ?max_states ?budget ~f:(fun () _ -> ()) ~init:() progs)
end
