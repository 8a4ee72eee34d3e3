(** The catch-fire machine: C/C++11-style "data race ⇒ UB" semantics
    (§1).  Its behaviors are the SC behaviors, plus ⊥ when any
    interleaving races ([races] is then "the program catches fire").

    PS_na's departure from this — racy reads return [undef] instead of
    catching fire — is what makes (irrelevant) load introduction sound;
    this machine is the comparison point for experiment E6. *)

include Backend.MACHINE

(** The catch-fire result of a program, from its {!Sc} result. *)
val of_sc : Backend.result -> Backend.result
