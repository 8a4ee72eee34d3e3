(** The backend registry: the machine zoo behind one signature, by
    name.  CLI drivers validate [--backend] against {!names} (via
    {!Engine.Cliopts.validate_choice}) and dispatch via {!find}. *)

(** The paper's PS_na machine ({!Promising.Machine.explore} under its
    default params; [max_states] sets [params.max_states], [values] is
    ignored). *)
module Ps_machine : Backend.MACHINE

(** All machines, in strength order: ["sc"] ({!Sc}), ["catchfire"]
    ({!Catchfire}), ["tso"] ({!Tso}), ["armv8"] ({!Armv8}), ["ps"]
    ({!Ps_machine}). *)
val all : (module Backend.MACHINE) list

(** The registered backend names, in {!all} order. *)
val names : string list

(** Look a machine up by its {!Backend.MACHINE.name}. *)
val find : string -> (module Backend.MACHINE) option
