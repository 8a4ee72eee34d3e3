(** The catch-fire machine: SC where any data race is UB (see
    catchfire.mli). *)

let name = "catchfire"

let of_sc (r : Backend.result) =
  if r.Backend.races then
    { r with Backend.behaviors = Backend.Behavior_set.add Backend.Bot r.behaviors }
  else r

let explore ?values ?max_states ?budget progs =
  of_sc (Sc.explore ?values ?max_states ?budget progs)
