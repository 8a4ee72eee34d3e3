(** Happens-before data-race detection, the one race detector every
    interleaving machine ({!Sc}, {!Tso}, {!Armv8}) threads through its
    states: synchronization order (release/acquire edges, RMWs, fences)
    is the same under SC, TSO and ARMv8 — buffering relaxes
    {e visibility}, not happens-before — so the race verdicts of all
    backends use one definition: a race is a conflicting unordered pair
    with at least one non-atomic access (§5).

    The per-location access history ([meta]) is deliberately excluded
    from {!compare}: it is a function of the history already summarised
    by (clocks, raced) for exploration purposes. *)

open Lang

(* Vector clocks, index = thread id. *)
module Vclock = struct
  type t = int array

  let make n = Array.make n 0

  (* A thread's own component starts at 1 so that its accesses are
     unordered with other threads' initial clocks (epochs at 0 would be
     vacuously ordered). *)
  let init_thread n tid =
    let c = Array.make n 0 in
    c.(tid) <- 1;
    c

  let tick (c : t) tid =
    let c = Array.copy c in
    c.(tid) <- c.(tid) + 1;
    c

  let join (a : t) (b : t) : t = Array.mapi (fun i x -> max x b.(i)) a

  (* epoch (tid, clock) ≤ vector clock *)
  let epoch_le (tid, clk) (c : t) = clk <= c.(tid)
  let le (a : t) (b : t) = Array.for_all2 ( <= ) a b
  let compare (a : t) (b : t) = Stdlib.compare a b
end

type loc_meta = {
  w_na : (int * int) option;  (* epoch of last non-atomic write *)
  w_at : (int * int) option;  (* epoch of last atomic write *)
  r_na : Vclock.t;  (* join of non-atomic read clocks *)
  r_at : Vclock.t;  (* join of atomic read clocks *)
  release : Vclock.t;  (* release clock (for acq/rel synchronisation) *)
}

type t = {
  n : int;  (* thread count *)
  clocks : Vclock.t list;
  meta : loc_meta Loc.Map.t;
  raced : bool;
  strict : Loc.Set.t;
      (* locations with a conflicting unordered pair of any access modes *)
}

let make n =
  {
    n;
    clocks = List.init n (fun tid -> Vclock.init_thread n tid);
    meta = Loc.Map.empty;
    raced = false;
    strict = Loc.Set.empty;
  }

let raced h = h.raced
let strict_races h = h.strict

let empty_meta n =
  {
    w_na = None;
    w_at = None;
    r_na = Vclock.make n;
    r_at = Vclock.make n;
    release = Vclock.make n;
  }

let get_meta h x = Loc.Map.find_default ~default:(empty_meta h.n) x h.meta
let epoch_ok e c = match e with None -> true | Some ep -> Vclock.epoch_le ep c
let set_nth = Promising.Explore.set_nth

(* Record a race check's outcome: [racy] under the access's own mode,
   [strict] as if it were non-atomic. *)
let note h x ~racy ~strict =
  {
    h with
    raced = h.raced || racy;
    strict = (if strict then Loc.Set.add x h.strict else h.strict);
  }

let check_read h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let na_ok = epoch_ok m.w_na c in
  let strict = not (na_ok && epoch_ok m.w_at c) in
  note h x ~racy:(if atomic then not na_ok else strict) ~strict

let check_write h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let na_ok = epoch_ok m.w_na c && Vclock.le m.r_na c in
  let strict = not (na_ok && epoch_ok m.w_at c && Vclock.le m.r_at c) in
  note h x ~racy:(if atomic then not na_ok else strict) ~strict

let record_read h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let m =
    if atomic then { m with r_at = Vclock.join m.r_at c }
    else { m with r_na = Vclock.join m.r_na c }
  in
  { h with meta = Loc.Map.add x m h.meta }

let record_write h tid x ~atomic =
  let m = get_meta h x in
  let c = List.nth h.clocks tid in
  let ep = Some (tid, c.(tid)) in
  let m = if atomic then { m with w_at = ep } else { m with w_na = ep } in
  { h with meta = Loc.Map.add x m h.meta }

(* Acquire: join the location's release clock into ours. *)
let do_acquire h tid x =
  let m = get_meta h x in
  let c = Vclock.join (List.nth h.clocks tid) m.release in
  { h with clocks = set_nth h.clocks tid c }

(* Release: tick our clock and publish it on the location. *)
let do_release h tid x =
  let c = Vclock.tick (List.nth h.clocks tid) tid in
  let h = { h with clocks = set_nth h.clocks tid c } in
  let m = get_meta h x in
  let m = { m with release = Vclock.join m.release c } in
  { h with meta = Loc.Map.add x m h.meta }

let read h ~tid x ~atomic ~acq =
  let h = check_read h tid x ~atomic in
  let h = if acq then do_acquire h tid x else h in
  record_read h tid x ~atomic

let write h ~tid x ~atomic ~rel =
  let h = check_write h tid x ~atomic in
  let h = if rel then do_release h tid x else h in
  record_write h tid x ~atomic

let update h ~tid x ~write =
  let h = check_write h tid x ~atomic:true in
  let h = do_acquire h tid x in
  if not write then record_read h tid x ~atomic:true
  else
    let h = do_release h tid x in
    let h = record_read h tid x ~atomic:true in
    record_write h tid x ~atomic:true

(* Fences synchronise through a distinguished token location. *)
let fence h ~tid (m : Mode.fence) =
  let tok = Loc.make "__fence__" in
  match m with
  | Mode.Facq -> do_acquire h tid tok
  | Mode.Frel -> do_release h tid tok
  | Mode.Facqrel | Mode.Fsc -> do_release (do_acquire h tid tok) tid tok

let compare h1 h2 =
  let c = List.compare Vclock.compare h1.clocks h2.clocks in
  if c <> 0 then c else Bool.compare h1.raced h2.raced

let compare_strict h1 h2 =
  let c = compare h1 h2 in
  if c <> 0 then c else Loc.Set.compare h1.strict h2.strict
