(** The backend registry: every machine behind {!Backend.MACHINE}, by
    name (see registry.mli). *)

(** PS_na as a backend: {!Promising.Machine.explore}, itself a
    {!Promising.Explore.STEP} of the shared explorer, behind the shared
    signature.  [values] selects nothing there (PS_na reads from
    messages, and [choose()] already ranges over the machine's fixed
    domain); [max_states] becomes [params.max_states] and [budget] is
    threaded through. *)
module Ps_machine : Backend.MACHINE = struct
  let name = "ps"

  let explore ?values:_ ?max_states ?budget progs =
    let params =
      match max_states with
      | None -> None
      | Some m -> Some { Promising.Thread.default_params with max_states = m }
    in
    let r = Promising.Machine.explore ?params ?budget progs in
    {
      Backend.behaviors = r.Promising.Machine.behaviors;
      races = r.Promising.Machine.races;
      truncated = r.Promising.Machine.truncated;
      states = r.Promising.Machine.states;
    }
end

let all : (module Backend.MACHINE) list =
  [
    (module Sc);
    (module Catchfire);
    (module Tso);
    (module Armv8);
    (module Ps_machine);
  ]

let names = List.map (fun (module M : Backend.MACHINE) -> M.name) all

let find name =
  List.find_opt (fun (module M : Backend.MACHINE) -> M.name = name) all
