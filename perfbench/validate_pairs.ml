(* validate-pairs: the seqcheck / seqopt path on one domain.  Each item
   parses a pair from text and validates it: catalog pairs through
   [Validate.validate], generated programs through
   [Validate.certified_optimize].  Optimizer and SEQ do nearly all the
   work; PS_na and the hardware machines do none. *)

open Lang
module V = Optimizer.Validate

let name = "validate-pairs"

(* Generated programs per item set (the 57 catalog pairs come on top). *)
let generated = 1000

type t = {
  items : Pairs.t array;  (** catalog order, then the generated draw *)
  untraced : (bool * bool) option array;
      (** by item id: the untraced call's (valid, simple), for the traced
          route to agree with *)
}

let parse = Parser.stmt_of_string

(* The untraced item: exactly what seqcheck (catalog pairs) and seqopt
   (generated programs) call.  Returns the verdict and the pair. *)
let untraced_item (p : Pairs.t) =
  let src = parse p.Pairs.src in
  match p.Pairs.tgt with
  | Some tgt ->
    let tgt = parse tgt in
    let v = V.validate ~src ~tgt () in
    (v.V.valid, v.V.simple, src, tgt)
  | None ->
    let r, v = V.certified_optimize src in
    (v.V.valid, v.V.simple, r.Optimizer.Driver.input, r.Optimizer.Driver.output)

(* The traced item: the calls [Validate.validate] makes, in the order it
   routes them (replay certificate, then seqabs certificate, then the
   advanced game; the simple game whenever the pair is valid), through
   the count variants of the games. *)
let traced_item (p : Pairs.t) =
  Obs.item p.Pairs.id "validate.item" (fun () ->
      let src, tgt =
        Obs.span "lang.parse" (fun () ->
            (parse p.Pairs.src, Option.map parse p.Pairs.tgt))
      in
      let src, tgt =
        match tgt with
        | Some tgt -> (src, tgt)
        | None ->
          let r =
            Obs.span "optimizer.optimize" (fun () -> Optimizer.Driver.optimize src)
          in
          Obs.count "optimizer.rewrites"
            (float_of_int
               (List.fold_left
                  (fun acc (pr : Optimizer.Driver.pass_report) ->
                    acc + pr.Optimizer.Driver.rewrites)
                  0 r.Optimizer.Driver.passes));
          (r.Optimizer.Driver.input, r.Optimizer.Driver.output)
      in
      let d =
        Obs.span "lang.domain" (fun () ->
            Domain.of_stmts ~values:Domain.default_values [ src; tgt ])
      in
      let game name check =
        let ok, pairs = Obs.span ("seq_model." ^ name) check in
        Obs.count ("seq_model." ^ name ^ "_pairs") (float_of_int pairs);
        ok
      in
      Obs.count "optimizer.replay_attempts" 1.;
      let valid =
        match
          Obs.span "optimizer.replay" (fun () ->
              Optimizer.Certify.attempt ~src ~tgt ())
        with
        | Some _ ->
          Obs.count "optimizer.replay_hits" 1.;
          true
        | None -> (
          Obs.count "optimizer.seqabs_attempts" 1.;
          match
            Obs.span "optimizer.seqabs" (fun () ->
                Optimizer.Certabs.attempt ~src ~tgt ())
          with
          | Some _ ->
            Obs.count "optimizer.seqabs_hits" 1.;
            true
          | None ->
            game "advanced" (fun () -> Seq_model.Advanced.check_count d ~src ~tgt))
      in
      let simple =
        valid && game "simple" (fun () -> Seq_model.Refine.check_count d ~src ~tgt)
      in
      (valid, simple, src, tgt))

let expected (p : Pairs.t) ~valid ~simple =
  match p.Pairs.expect with
  | Pairs.Verdicts e -> valid = e.advanced && simple = e.simple
  | Pairs.Must_validate -> valid

let setup ~seed =
  let items = Array.of_list (Pairs.make ~seed ~generated) in
  (* warm-up: the catalog pairs once, untimed *)
  Array.iter
    (fun (p : Pairs.t) -> if p.Pairs.tgt <> None then ignore (untraced_item p))
    items;
  { items; untraced = Array.make (Array.length items) None }

(* One item, its CPU time taken; its wrong answers go to [fail]. *)
let run_item t (p : Pairs.t) ~fail =
  let traced = Obs.traced () in
  let t0 = Obs.thread_cpu () in
  let r =
    try Ok (if traced then traced_item p else untraced_item p)
    with e -> Error (Printexc.to_string e)
  in
  let ms = 1000. *. (Obs.thread_cpu () -. t0) in
  (match r with
   | Error e -> fail p ("exception " ^ e)
   | Ok (valid, simple, _, _) ->
     if not (expected p ~valid ~simple) then
       fail p
         (Printf.sprintf "valid=%b simple=%b is not the known answer" valid simple);
     (match t.untraced.(p.Pairs.id) with
      | Some v when v <> (valid, simple) ->
        fail p "the traced route disagrees with the untraced call"
      | Some _ -> ()
      | None ->
        if not traced then t.untraced.(p.Pairs.id) <- Some (valid, simple)));
  ms

let pass t ~first ~until : Obs.pass =
  let errors = ref [] in
  let fail (p : Pairs.t) msg = errors := (p.Pairs.label ^ ": " ^ msg) :: !errors in
  let lat =
    Array.fold_left
      (fun lat p ->
        if first || Obs.now () < until then run_item t p ~fail :: lat else lat)
      [] t.items
  in
  {
    Obs.items = List.length lat;
    failed = List.length !errors;
    lat_ms = lat;
    cpu_s = List.fold_left ( +. ) 0. lat /. 1000.;
    errors = List.rev !errors;
  }

(* The sampled generated pairs again, through the enumerated route,
   independent of both certifiers.  The sample is only consulted here:
   anything the measured passes keep per sampled item changes when the
   major collector finishes its cycles, and with it peak memory by a
   tenth between seeds. *)
let verify t =
  List.filter_map
    (fun (p : Pairs.t) ->
      match t.untraced.(p.Pairs.id) with
      | Some (_, simple) when p.Pairs.recheck ->
        let _, _, src, tgt = untraced_item p in
        let v = V.validate ~fast_path:false ~src ~tgt () in
        if v.V.valid && v.V.simple = simple then None
        else Some (p.Pairs.label ^ ": fast_path:false disagrees")
      | _ -> None)
    (Array.to_list t.items)

let teardown (_ : t) = ()
