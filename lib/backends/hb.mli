(** Happens-before data-race detection: the one vector-clock race
    detector shared by every interleaving machine ({!Sc}, {!Tso},
    {!Armv8}).  Synchronization order is the same under SC, TSO and
    ARMv8 — buffering relaxes visibility, not happens-before — so every
    backend's race verdict uses one definition: a conflicting unordered
    pair with at least one non-atomic access (§5).

    Alongside that verdict the detector tracks the {e strict} races: the
    locations with a conflicting unordered pair of any access modes.
    They are the premises of the DRF-SC guarantee (no strict race; no
    access in the fragment is an SC atomic) and of DRF-LOCK (strict
    races confined to the lock locations), see [Baselines.Drf]. *)

open Lang

type t

(** [make n]: initial component for [n] threads. *)
val make : int -> t

(** A race has been observed on some path into this state. *)
val raced : t -> bool

(** The locations of the strict races observed on some path into this
    state. *)
val strict_races : t -> Loc.Set.t

(** A read access by [tid]: race check, acquire synchronisation when
    [acq], history recording. *)
val read : t -> tid:int -> Loc.t -> atomic:bool -> acq:bool -> t

(** A write access by [tid]: race check, release synchronisation when
    [rel], history recording. *)
val write : t -> tid:int -> Loc.t -> atomic:bool -> rel:bool -> t

(** An RMW by [tid]: atomic acquire read plus — when [write] — a release
    write (a failed CAS is read-only). *)
val update : t -> tid:int -> Loc.t -> write:bool -> t

(** A fence by [tid], synchronising through a distinguished token
    location. *)
val fence : t -> tid:int -> Mode.fence -> t

(** Total order for state-key comparators over the clocks and the race
    flag.  The per-location access history is deliberately excluded (it
    is a function of the history those summarise), and so are the strict
    races. *)
val compare : t -> t -> int

(** {!compare}, then the strict-race locations: the key of a machine
    that reports them, so that states reached with different strict
    races are not merged. *)
val compare_strict : t -> t -> int
