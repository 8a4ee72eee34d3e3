(* litmus-models: every E4 program and every E15 grid row explored under
   every registered backend (5 x 21 = 105 explorations per round), swept
   on an [Engine.Pool] of 2 domains in catalog order.  PS_na does nearly
   all the work (2+2W-rlx, WW-race and the R/S grid rows are the tail);
   the four cheap machines are 84 of the 105 items, so the median tracks
   them.  SEQ does no work here. *)

open Lang
module C = Litmus.Catalog
module B = Backends.Backend
module M = Promising.Machine

let name = "litmus-models"
let domains = 2

(* The E4 PS_na behavior sets, from the golden E4 table. *)
let expected_file = "perfbench/expected_e4.txt"

type item = {
  id : int;
  prog : string;
  threads : string;
  backend : string;
  grid : C.grid_entry option;  (** [None] for an E4 program *)
}

type t = {
  items : item list;
  pool : Engine.Pool.t;
  e4 : (string, bool * string) Hashtbl.t;  (** name -> races, behaviors *)
}

let read_expected () =
  let ic = open_in expected_file in
  let tbl = Hashtbl.create 16 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ n; races; behs ] -> Hashtbl.replace tbl n (bool_of_string races, behs)
          | _ -> ()
        done
      with End_of_file -> ());
  if Hashtbl.length tbl <> List.length C.concurrent_programs then
    failwith (expected_file ^ ": one line per E4 program expected");
  tbl

let programs () =
  List.map (fun (c : C.concurrent) -> (c, None)) C.concurrent_programs
  @ List.map (fun (g : C.grid_entry) -> (g.C.g, Some g)) C.grid_programs

(* One exploration: parse, then the backend.  PS_na is called through
   [Promising.Machine.explore] (what the registry's [ps] entry runs) so
   its memo hits are visible. *)
let explore (it : item) : B.result =
  Obs.item it.id "litmus.item" (fun () ->
      let progs =
        Obs.span "lang.parse" (fun () -> Parser.threads_of_string it.threads)
      in
      if it.backend = "ps" then begin
        let r = Obs.span "promising.explore" (fun () -> M.explore progs) in
        Obs.count "promising.states" (float_of_int r.M.states);
        Obs.count "promising.memo_hits" (float_of_int r.M.memo_hits);
        {
          B.behaviors = r.M.behaviors;
          races = r.M.races;
          truncated = r.M.truncated;
          states = r.M.states;
        }
      end
      else
        match Backends.Registry.find it.backend with
        | None -> failwith ("no backend " ^ it.backend)
        | Some (module H : B.MACHINE) ->
          let p = "backends." ^ H.name in
          let r = Obs.span (p ^ ".explore") (fun () -> H.explore progs) in
          Obs.count (p ^ ".states") (float_of_int r.B.states);
          r)

(* The inputs are the catalog, and the seed is not used: the order
   stays the catalog's, because a round's wall time depends on when the
   few PS_na items that take seconds start. *)
let setup ~seed:_ =
  let e4 = read_expected () in
  let items =
    List.concat_map
      (fun ((c : C.concurrent), grid) ->
        List.map (fun b -> (c, grid, b)) Backends.Registry.names)
      (programs ())
    |> List.mapi (fun id ((c : C.concurrent), grid, backend) ->
           { id; prog = c.C.cname; threads = c.C.threads; backend; grid })
    |> Array.of_list
  in
  let pool = Engine.Pool.create ~jobs:domains () in
  (* warm-up: every program once under each cheap machine (PS_na takes
     seconds on a few of them) *)
  Array.iter (fun it -> if it.backend <> "ps" then ignore (explore it)) items;
  { items = Array.to_list items; pool; e4 }

let weak_allowed (g : C.grid_entry) (r : B.result) =
  let weak = B.Ret (List.map (fun n -> (Value.Int n, [])) g.C.weak) in
  B.Behavior_set.mem weak r.B.behaviors

(* The known answers of one round: per-item expectations, then the
   per-program chain SC ⊆ TSO ⊆ ARMv8 and catch-fire = SC (+ ⊥ on a
   race). *)
let check t (results : (item * (B.result, string) result) list) =
  let errors = ref [] in
  let fail (it : item) msg =
    errors := Printf.sprintf "%s/%s: %s" it.prog it.backend msg :: !errors
  in
  let by_prog = Hashtbl.create 32 in
  List.iter
    (fun ((it : item), r) ->
      match r with
      | Error e -> fail it ("exception " ^ e)
      | Ok (r : B.result) ->
        Hashtbl.replace by_prog (it.prog, it.grid = None, it.backend) r;
        if r.B.truncated then fail it "truncated";
        (match it.grid with
         | Some g -> (
           match List.assoc_opt it.backend g.C.allowed with
           | Some allowed when weak_allowed g r <> allowed ->
             fail it (Printf.sprintf "weak outcome allowed=%b, catalog says %b"
                        (not allowed) allowed)
           | _ -> ())
         | None ->
           if it.backend = "ps" then begin
             let races, behs = Hashtbl.find t.e4 it.prog in
             let got = Fmt.str "%a" M.pp_behaviors r.B.behaviors in
             if got <> behs || r.B.races <> races then
               fail it
                 (Printf.sprintf "PS_na gave %s (races %b), expected %s" got
                    r.B.races behs)
           end))
    results;
  List.iter
    (fun ((it : item), _) ->
      if it.backend = "sc" then
        let get b = Hashtbl.find_opt by_prog (it.prog, it.grid = None, b) in
        match (get "sc", get "tso", get "armv8", get "catchfire") with
        | Some sc, Some tso, Some arm, Some cf ->
          if not (B.subset ~small:sc ~big:tso && B.subset ~small:tso ~big:arm) then
            fail it "SC ⊆ TSO ⊆ ARMv8 broken";
          let want =
            if sc.B.races then B.Behavior_set.add B.Bot sc.B.behaviors
            else sc.B.behaviors
          in
          if not (B.Behavior_set.equal cf.B.behaviors want) then
            fail it "catch-fire is not SC plus ⊥ on a race"
        | _ -> ())
    results;
  List.rev !errors

let pass t ~first:_ ~until:_ : Obs.pass =
  let t0 = Obs.cpu () in
  let results =
    Obs.span "engine.sweep" (fun () ->
        Engine.Sweep.run ~pool:t.pool ~chunk:1
          ~f:(fun it ->
            let s = Obs.thread_cpu () in
            let r = try Ok (explore it) with e -> Error (Printexc.to_string e) in
            (it, r, 1000. *. (Obs.thread_cpu () -. s)))
          t.items)
  in
  let cpu = Obs.cpu () -. t0 in
  let lat = List.map (fun (_, _, ms) -> ms) results in
  Obs.count "engine.task_ms_sum" (List.fold_left ( +. ) 0. lat);
  Obs.count "engine.domains" (float_of_int (Engine.Pool.size t.pool));
  let errors = check t (List.map (fun (it, r, _) -> (it, r)) results) in
  {
    Obs.items = List.length results;
    failed = List.length errors;
    lat_ms = lat;
    cpu_s = cpu;
    errors;
  }

let verify (_ : t) = []
let teardown t = Engine.Pool.shutdown t.pool
