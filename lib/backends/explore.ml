(** The one bounded breadth-first explorer behind every interleaving
    machine (see explore.mli). *)

open Lang

module type STEP = sig
  val name : string

  type state

  val init : Stmt.t list -> state
  val successors : Value.t list -> state -> int -> [ `Next of state | `Ub ] list
  val terminal : state -> Backend.behavior option
  val raced : state -> bool
  val compare : state -> state -> int
end

let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l

let returned progs outs =
  let rec go acc progs outs =
    match (progs, outs) with
    | [], [] -> Some (Backend.Ret (List.rev acc))
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
    type t = S.state

    let compare = S.compare
  end)

  let fold ?(values = Backend.default_values)
      ?(max_states = Backend.default_max_states)
      ?(budget = Engine.Budget.unlimited) ~f ~init (progs : Stmt.t list) =
    let n = List.length progs in
    let visited = ref Visited.empty in
    let states = ref 0 in
    let behaviors = ref Backend.Behavior_set.empty in
    let races = ref false in
    let truncated = ref false in
    let acc = ref init in
    let queue = Queue.create () in
    let push st =
      if not (Visited.mem st !visited) then
        if !states >= max_states then truncated := true
        else begin
          Engine.Budget.spend_state budget;
          visited := Visited.add st !visited;
          incr states;
          Queue.push st queue
        end
    in
    let add b = behaviors := Backend.Behavior_set.add b !behaviors in
    push (S.init progs);
    while not (Queue.is_empty queue) do
      Engine.Budget.check budget;
      let st = Queue.pop queue in
      acc := f !acc st;
      if S.raced st then races := true;
      Option.iter add (S.terminal st);
      for tid = 0 to n - 1 do
        List.iter
          (function `Ub -> add Backend.Bot | `Next st' -> push st')
          (S.successors values st tid)
      done
    done;
    ( {
        Backend.behaviors = !behaviors;
        races = !races;
        truncated = !truncated;
        states = !states;
      },
      !acc )

  let explore ?values ?max_states ?budget progs =
    fst (fold ?values ?max_states ?budget ~f:(fun () _ -> ()) ~init:() progs)
end
