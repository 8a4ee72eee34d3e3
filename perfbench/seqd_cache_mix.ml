(* seqd-cache-mix: an in-process seqd with one worker domain, a fresh
   on-disk cache and an LRU smaller than the number of distinct pairs.
   One closed-loop client sends [Check] requests over the validate-pairs
   pair set in a shuffled order, each pair three times: the first send
   computes and writes the cache, the later ones read it from memory or
   from disk.  The only workload that exercises [service]; the same
   checks as validate-pairs run behind the cache, with writes between
   reads.

   Three sends, not two: with exactly half the requests cache hits, the
   median falls on the boundary between the slowest hit and the fastest
   computed answer, and it moved by 40% between runs.  With two thirds
   hits, item_ms_p50 is a cache-hit latency and item_ms_p99 a computed
   one.

   One client, not two.  Two clients on one worker made a cache hit
   wait behind the other client's computed answer often, so the median
   fell on the boundary between hits that waited and hits that did not
   and moved by a third between runs.  Two clients on two workers kept
   both cores computing at once, and on a 2-core machine whose speed
   drifts that doubled item_ms_p90 between runs; in four alternating
   runs of each layout, the one-client one moved about half as much on
   items_per_s, item_ms_p90 and item_ms_p99.

   The shuffle is a fixed one, so the order in which hits meet the LRU
   does not change with the seed.  The seed is not used. *)

open Lang
module P = Service.Proto

let name = "seqd-cache-mix"
let generated = 200
let sends = 3

type pair = {
  p : Pairs.t;
  src : string;
  tgt : string;  (** the optimizer's output for a generated program *)
}

type t = {
  pairs : pair array;  (** distinct by cache key *)
  plan : int array;  (** pair indices, [sends] times each *)
  mutable answers : (int * P.verdict) list;  (** seqd's, by pair index *)
  mutable serial : int;
}

(* A seeded permutation (Fisher-Yates). *)
let shuffle st (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mem_capacity t = max 1 (Array.length t.pairs / 4)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh server on a fresh store, and a connection to it. *)
let start t =
  t.serial <- t.serial + 1;
  let d =
    Filename.concat Obs.out_dir
      (Printf.sprintf "seqd-%d-%d" (Unix.getpid ()) t.serial)
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  let socket_path = Filename.concat d "seqd.sock" in
  let config =
    {
      (Service.Server.default_config ~socket_path) with
      cache_dir = Some (Filename.concat d "cache");
      mem_capacity = mem_capacity t;
    }
  in
  let h = Service.Server.spawn config in
  (h, Service.Client.connect ~policy:Service.Client.resilient_policy socket_path, d)

let stop (h, conn, d) =
  Service.Client.close conn;
  Service.Server.stop h;
  rm_rf d

let setup ~seed =
  let seen = Hashtbl.create 512 in
  let pairs =
    List.filter_map
      (fun (p : Pairs.t) ->
        let src = Parser.stmt_of_string p.Pairs.src in
        let tgt =
          match p.Pairs.tgt with
          | Some tgt -> Parser.stmt_of_string tgt
          | None -> (Optimizer.Driver.optimize src).Optimizer.Driver.output
        in
        let key = Fingerprint.stmt src ^ Fingerprint.stmt tgt in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some { p; src = p.Pairs.src; tgt = Stmt.to_string tgt }
        end)
      (Pairs.make ~seed ~generated)
    |> Array.of_list
  in
  let plan = Array.init (sends * Array.length pairs) (fun k -> k / sends) in
  shuffle (Random.State.make [| Pairs.program_seed; 3 |]) plan;
  let t = { pairs; plan; answers = []; serial = 0 } in
  (* warm-up: start the service, answer one ping, stop it *)
  let ((_, conn, _) as s) = start t in
  if not (Service.Client.ping conn) then failwith "seqd did not answer a ping";
  stop s;
  t

(* The client's closed loop: each request waits for the previous one.
   Each request is one item; its cost is the CPU time the whole process
   (client, server and worker) spends on it, as nothing else runs. *)
let client_loop t conn =
  Array.to_list
    (Array.mapi
       (fun k i ->
         let pr = t.pairs.(i) in
         let t0 = Obs.cpu () in
         let r =
           Obs.item k "service.check" (fun () ->
               try Ok (Service.Client.check conn ~src:pr.src ~tgt:pr.tgt ())
               with e -> Error (Printexc.to_string e))
         in
         (i, r, 1000. *. (Obs.cpu () -. t0)))
       t.plan)

(* Per-layer numbers of a pass, from each response's [tier] field and
   the client's counters. *)
let count_tiers results (k : Service.Client.counters) =
  let by_tier tier =
    List.filter_map
      (fun (_, r, ms) ->
        match r with
        | Ok (res : P.check_result) when res.P.tier = tier -> Some ms
        | _ -> None)
      results
  in
  let n tier = float_of_int (List.length (by_tier tier)) in
  List.iter
    (fun (tier, metric) ->
      if by_tier tier <> [] then
        Obs.count metric (Obs.percentile (Obs.sorted (by_tier tier)) 50.))
    [ (P.Computed, "service.computed_ms_p50"); (P.Mem, "service.mem_ms_p50");
      (P.Disk, "service.disk_ms_p50") ];
  Obs.count "service.computed" (n P.Computed);
  Obs.count "service.hits" (n P.Mem +. n P.Disk);
  Obs.count "service.requests" (float_of_int (List.length results));
  Obs.count "service.retries" (float_of_int k.Service.Client.retries);
  Obs.count "service.busy" (float_of_int k.Service.Client.busy)

let pass t ~first:_ ~until:_ : Obs.pass =
  let ((_, conn, _) as s) = start t in
  let t0 = Obs.cpu () in
  let results = client_loop t conn in
  let cpu = Obs.cpu () -. t0 in
  let counters = Service.Client.counters conn in
  stop s;
  let errors = ref [] in
  let fail i msg =
    errors := Printf.sprintf "%s: %s" t.pairs.(i).p.Pairs.label msg :: !errors
  in
  let sent = Array.make (Array.length t.pairs) 0 in
  List.iter
    (fun (i, r, _) ->
      match r with
      | Error e -> fail i ("request failed: " ^ e)
      | Ok (res : P.check_result) ->
        sent.(i) <- sent.(i) + 1;
        let computed = res.P.tier = P.Computed in
        if sent.(i) = 1 && not computed then fail i "first send not computed";
        if sent.(i) > 1 && computed then fail i "later send computed again";
        t.answers <- (i, res.P.verdict) :: t.answers)
    results;
  if Obs.traced () then count_tiers results counters;
  {
    Obs.items = List.length results;
    failed = List.length !errors;
    lat_ms = List.map (fun (_, _, ms) -> ms) results;
    cpu_s = cpu;
    errors = List.rev !errors;
  }

(* The answer seqcheck would give for the pair, computed in process. *)
let in_process (pr : pair) =
  match pr.p.Pairs.expect with
  | Pairs.Verdicts { simple; advanced } ->
    if simple then P.Refines_simple
    else if advanced then P.Refines_advanced
    else P.Refuted
  | Pairs.Must_validate ->
    let v =
      Optimizer.Validate.validate ~src:(Parser.stmt_of_string pr.src)
        ~tgt:(Parser.stmt_of_string pr.tgt) ()
    in
    if not v.Optimizer.Validate.valid then P.Refuted
    else if v.Optimizer.Validate.simple then P.Refines_simple
    else P.Refines_advanced

(* Every answer seqd gave must equal the in-process verdict. *)
let verify t =
  let want = Hashtbl.create 256 in
  List.filter_map
    (fun (i, got) ->
      let w =
        match Hashtbl.find_opt want i with
        | Some w -> w
        | None ->
          let w = in_process t.pairs.(i) in
          Hashtbl.add want i w;
          w
      in
      if got = w then None
      else
        Some
          (Printf.sprintf "%s: seqd says %s, in process %s"
             t.pairs.(i).p.Pairs.label (P.verdict_to_string got)
             (P.verdict_to_string w)))
    (List.rev t.answers)

let teardown (_ : t) = ()
