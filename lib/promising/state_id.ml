(** Packed identity of PS_na states (see state_id.mli).

    Encodings are byte strings of unsigned LEB128 varints, built in one
    reusable buffer and interned into small ids:

    - memory: the location count, then per location (in footprint
      order) its name, the message count and per message a tag
      (attached bit, payload kind), the value and the message view; then
      the SC view;
    - thread: program-state id, the cur/acq/rel views, the promises
      (location index, rank, tag, payload), the outputs and the promise
      count.

    A view is dense: one rank per footprint location, 0 for ⊥ (rank 0 is
    the initialisation message at timestamp 0). *)

open Lang

module Prog_map = Map.Make (struct
  type t = Prog.state
  let compare = Prog.compare_state
end)

type t = {
  mutable progs : int Prog_map.t;
  mutable nprogs : int;
  memories : (string, int) Hashtbl.t;
  threads : (string, int) Hashtbl.t;
  buf : Buffer.t;
}

let create () =
  {
    progs = Prog_map.empty;
    nprogs = 0;
    memories = Hashtbl.create 1024;
    threads = Hashtbl.create 4096;
    buf = Buffer.create 128;
  }

type memory = {
  id : int;
  locs : Loc.t array;  (* the footprint, sorted *)
  stamps : Time.t array array;
      (* per location, the message timestamps: a rank is an index *)
}

let memory_id m = m.id

let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length tbl in
    Hashtbl.add tbl key id;
    id

let prog_id (t : t) (p : Prog.state) =
  match Prog_map.find_opt p t.progs with
  | Some id -> id
  | None ->
    let id = t.nprogs in
    t.nprogs <- id + 1;
    t.progs <- Prog_map.add p id t.progs;
    id

let rec add_uint buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_uint buf (n lsr 7)
  end

let add_value buf = function
  | Value.Undef -> add_uint buf 0
  | Value.Int n -> add_uint buf (if n >= 0 then (2 * n) + 1 else -2 * n)

let rank m i (ts : Time.t) =
  let stamps = m.stamps.(i) in
  let rec go r =
    if r = Array.length stamps then
      invalid_arg
        (Fmt.str "State_id: no message of %a at timestamp %a" Loc.pp
           m.locs.(i) Time.pp ts)
    else if Time.equal stamps.(r) ts then r
    else go (r + 1)
  in
  go 0

(* Index of [x] in the footprint, searching from [i] (views and
   promise lists are visited in location order). *)
let rec loc_index m x i =
  if i < Array.length m.locs && Loc.compare m.locs.(i) x < 0 then
    loc_index m x (i + 1)
  else if i < Array.length m.locs && Loc.equal m.locs.(i) x then i
  else invalid_arg (Fmt.str "State_id: location %a is not in memory" Loc.pp x)

let add_view buf m (v : View.t) =
  let next = ref 0 in
  Loc.Map.iter
    (fun x ts ->
      if not (Time.equal ts Time.zero) then begin
        let i = loc_index m x !next in
        for _ = !next to i - 1 do
          add_uint buf 0
        done;
        add_uint buf (rank m i ts);
        next := i + 1
      end)
    v;
  for _ = !next to Array.length m.locs - 1 do
    add_uint buf 0
  done

let add_payload buf m ~attached (p : Message.payload) =
  let tag = if attached then 2 else 0 in
  match p with
  | Message.Reserved -> add_uint buf tag
  | Message.Concrete { value; view } ->
    add_uint buf (tag + 1);
    add_value buf value;
    add_view buf m view

let memory (t : t) (mem : Memory.t) : memory =
  let locs = Array.of_list (Loc.Map.bindings mem.Memory.msgs) in
  let stamps =
    Array.map
      (fun (_, ms) -> Array.of_list (List.map (fun m -> m.Message.ts) ms))
      locs
  in
  let m = { id = -1; locs = Array.map fst locs; stamps } in
  let buf = t.buf in
  Buffer.clear buf;
  (* the location count first: views are as long as the footprint, so
     without it two footprints' encodings could coincide *)
  add_uint buf (Array.length locs);
  Array.iter
    (fun (x, ms) ->
      let name = Loc.name x in
      add_uint buf (String.length name);
      Buffer.add_string buf name;
      add_uint buf (List.length ms);
      List.iter
        (fun msg ->
          add_payload buf m ~attached:msg.Message.attached msg.Message.payload)
        ms)
    locs;
  add_view buf m mem.Memory.scv;
  { m with id = intern t.memories (Buffer.contents buf) }

let thread (t : t) (m : memory) (th : Thread.t) : int =
  let pid = prog_id t th.Thread.prog in
  let buf = t.buf in
  Buffer.clear buf;
  add_uint buf pid;
  add_view buf m th.Thread.views.Tview.cur;
  add_view buf m th.Thread.views.Tview.acq;
  add_view buf m th.Thread.views.Tview.rel;
  add_uint buf (List.length th.Thread.promises);
  List.iter
    (fun (msg : Message.t) ->
      let i = loc_index m msg.Message.loc 0 in
      add_uint buf i;
      add_uint buf (rank m i msg.Message.ts);
      add_payload buf m ~attached:msg.Message.attached msg.Message.payload)
    th.Thread.promises;
  add_uint buf (List.length th.Thread.outs);
  List.iter (add_value buf) th.Thread.outs;
  add_uint buf th.Thread.promised;
  intern t.threads (Buffer.contents buf)

let single_key (m : memory) tid =
  if m.id lsr 31 <> 0 || tid lsr 31 <> 0 then
    invalid_arg "State_id: ids exceed 31 bits";
  (m.id lsl 31) lor tid

let state_key (m : memory) (tids : int array) : string =
  let buf = Buffer.create (2 + Array.length tids * 3) in
  add_uint buf m.id;
  Array.iter (add_uint buf) tids;
  Buffer.contents buf
