(* The workload benchmark for the checker stack.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics; --trace 1 runs the same
   item set once untraced and twice traced, and reports the per-layer
   metrics, the tracing overhead and any count that drifted between the
   two traced passes.  Every item's answer is checked against a known
   answer; the last stdout line is the JSON result, and the exit code is
   0 only when every answer was right.  See perfbench/README.md. *)

module type WORKLOAD = sig
  type t

  val name : string

  (** Build the inputs from the seed, start the runtime, and warm it up
      with untimed items. *)
  val setup : seed:int -> t

  (** One pass over the item set.  A pass other than the [first] may
      stop early once the clock passes [until]. *)
  val pass : t -> first:bool -> until:float -> Obs.pass

  (** Checks made once, after measuring (and after peak memory is read):
      one line per wrong answer. *)
  val verify : t -> string list

  val teardown : t -> unit
end

let workloads : (module WORKLOAD) list =
  [ (module Validate_pairs); (module Litmus_models); (module Fuzz_campaign);
    (module Seqd_cache_mix) ]

let workload_names = List.map (fun (module W : WORKLOAD) -> W.name) workloads

(* Set-ups per run; the median is reported. *)
let setup_repeats = 5

(* ---- per-layer metrics: name, unit, what it should move, value ---- *)

let ctr = Obs.counter
let ratio a b = if ctr b = 0. then 0. else ctr a /. ctr b

(* The per-layer metrics of the spans and counters just recorded. *)
let layer_metrics () =
  let self = Obs.self_ms () in
  let us_per_state span states =
    if ctr states = 0. then 0. else 1000. *. self span /. ctr states
  in
  let validate = "item_ms_p50 on validate-pairs"
  and validate_tail = "item_ms_p99 on validate-pairs"
  and simple_game =
    "items_per_s and item_ms_p50 on validate-pairs; item_ms_p99 on seqd-cache-mix"
  and ps = "item_ms_p90, items_per_s and peak_rss_mb on litmus-models"
  and hw = "item_ms_p50 on litmus-models"
  and engine = "items_per_s on litmus-models"
  and fuzz = "items_per_s on fuzz-campaign"
  and fuzz_fail = "failed_share and execs_to_refute_mean on fuzz-campaign"
  and service = "items_per_s and failed_share on seqd-cache-mix" in
  let backend m =
    let p = "backends." ^ m in
    [ (p ^ ".explore_ms", "ms", hw, self (p ^ ".explore"));
      (p ^ ".states", "count", hw, ctr (p ^ ".states"));
      (p ^ ".us_per_state", "us", hw, us_per_state (p ^ ".explore") (p ^ ".states")) ]
  in
  let oracle k =
    let n = "fuzz.oracle." ^ Fuzz.Oracle.name k ^ "_ms" in
    let sc_tail =
      match k with
      | Fuzz.Oracle.Baseline_env | Fuzz.Oracle.Baseline_hw _ -> " (carries the SC tail)"
      | _ -> ""
    in
    (n, "ms", fuzz ^ sc_tail, ctr n)
  in
  let sweep_ms = Obs.total_ms "engine.sweep" in
  [ ("lang.parse_ms", "ms", validate, self "lang.parse");
    ("lang.domain_ms", "ms", validate, self "lang.domain");
    ("optimizer.optimize_ms", "ms", validate, self "optimizer.optimize");
    ("optimizer.rewrites", "count", validate, ctr "optimizer.rewrites");
    ("optimizer.replay_ms", "ms", validate, self "optimizer.replay");
    ("optimizer.replay_hit_share", "fraction", validate,
     ratio "optimizer.replay_hits" "optimizer.replay_attempts");
    ("optimizer.seqabs_ms", "ms", validate_tail, self "optimizer.seqabs");
    ("optimizer.seqabs_hit_share", "fraction", validate_tail,
     ratio "optimizer.seqabs_hits" "optimizer.seqabs_attempts");
    ("seq_model.simple_ms", "ms", simple_game, self "seq_model.simple");
    ("seq_model.simple_pairs", "count", simple_game, ctr "seq_model.simple_pairs");
    ("seq_model.advanced_ms", "ms", validate_tail, self "seq_model.advanced");
    ("seq_model.advanced_pairs", "count", validate_tail, ctr "seq_model.advanced_pairs");
    ("promising.explore_ms", "ms", ps, self "promising.explore");
    ("promising.states", "count", ps, ctr "promising.states");
    ("promising.us_per_state", "us", ps,
     us_per_state "promising.explore" "promising.states");
    ("promising.memo_hits", "count", ps, ctr "promising.memo_hits") ]
  @ List.concat_map backend [ "sc"; "catchfire"; "tso"; "armv8" ]
  @ [ ("engine.sweep_ms", "ms", engine, sweep_ms);
      ("engine.task_ms_sum", "ms", engine, ctr "engine.task_ms_sum");
      ("engine.parallel_efficiency", "fraction", engine,
       if sweep_ms = 0. then 0.
       else ctr "engine.task_ms_sum" /. (sweep_ms *. ctr "engine.domains")) ]
  @ List.map oracle Fuzz.Oracle.all
  @ [ ("fuzz.planted_ms", "ms", fuzz, ctr "fuzz.planted_ms");
      ("fuzz.shrink_ms", "ms", fuzz, ctr "fuzz.shrink_ms");
      ("fuzz.shrink_steps", "count", fuzz, ctr "fuzz.shrink_steps");
      ("fuzz.gen_ms", "ms", fuzz, self "fuzz.gen");
      ("fuzz.unique_share", "fraction", fuzz_fail, ratio "fuzz.unique" "fuzz.requested");
      ("fuzz.unknowns", "count", fuzz_fail, ctr "fuzz.unknowns");
      ("execs_to_refute_mean", "execs", "fuzz-campaign's own outcome (lower is better)",
       ratio "fuzz.execs_to_refute" "fuzz.refute_slots");
      ("service.computed_ms_p50", "ms", "item_ms_p99 on seqd-cache-mix",
       ctr "service.computed_ms_p50");
      ("service.mem_ms_p50", "ms", "item_ms_p50 on seqd-cache-mix",
       ctr "service.mem_ms_p50");
      ("service.disk_ms_p50", "ms", "item_ms_p50 on seqd-cache-mix",
       ctr "service.disk_ms_p50");
      ("service.hit_share", "fraction", service, ratio "service.hits" "service.requests");
      ("service.computed", "count", service, ctr "service.computed");
      ("service.retries", "count", service, ctr "service.retries");
      ("service.busy", "count", service, ctr "service.busy") ]

(* Counts that must repeat exactly between two runs of one seed. *)
let deterministic name =
  let pre prefix = String.starts_with ~prefix name in
  let suf suffix = String.ends_with ~suffix name in
  List.mem name
    [ "promising.states"; "promising.memo_hits"; "optimizer.rewrites";
      "fuzz.unknowns"; "fuzz.shrink_steps"; "service.computed";
      "execs_to_refute_mean" ]
  || (pre "backends." && suf ".states")
  || (pre "seq_model." && suf "_pairs")
  || (pre "optimizer." && suf "_hit_share")

(* ---- output ---- *)

(* The result line; values keep every digit (%.17g). *)
let print_result ~correct ~attempted ~failed metrics =
  let str x = Service.Json.to_string (String x) in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let metric (name, value, unit) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str name) (num value) (str unit)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed
    (String.concat "," (List.map metric metrics))

let report_errors errors =
  List.iteri (fun i e -> if i < 20 then Printf.printf "WRONG %s\n" e) errors;
  let n = List.length errors in
  if n > 20 then Printf.printf "WRONG ... %d more\n" (n - 20)

(* Set up [setup_repeats] times, keeping the last; the median time. *)
let set_up (type a) (module W : WORKLOAD with type t = a) ~seed : a * float =
  let times = ref [] in
  let rec go k =
    let t0 = Obs.cpu () in
    let t = W.setup ~seed in
    times := (Obs.cpu () -. t0) :: !times;
    if k <= 1 then t
    else begin
      W.teardown t;
      go (k - 1)
    end
  in
  let t = go setup_repeats in
  (t, Obs.median !times)

(* The end-to-end run: passes until [seconds] have been measured. *)
let measure (type a) (module W : WORKLOAD with type t = a) (t : a) ~seconds
    ~setup_s =
  let until = Obs.now () +. seconds in
  let rss = ref nan in
  let rec passes acc first =
    let p = W.pass t ~first ~until in
    (* peak memory of set-up and one pass: later passes only add
       garbage, and how many fit in the run depends on the clock *)
    if first then rss := Obs.peak_rss_mb ();
    Printf.printf "pass %d: %d items in %.3f CPU s\n%!" (List.length acc + 1)
      p.Obs.items p.Obs.cpu_s;
    report_errors p.Obs.errors;
    let acc = p :: acc in
    if Obs.now () < until then passes acc false else List.rev acc
  in
  let ps = passes [] true in
  let items = List.fold_left (fun a p -> a + p.Obs.items) 0 ps in
  let cpu = List.fold_left (fun a p -> a +. p.Obs.cpu_s) 0. ps in
  let lat = Obs.sorted (List.concat_map (fun p -> p.Obs.lat_ms) ps) in
  let n = Array.length lat in
  let pct p =
    let v = Obs.percentile lat p in
    Printf.printf "item_ms_p%.0f = %.4f ms (n=%d, %d beyond)\n" p v n
      (n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)));
    v
  in
  let items_per_s = float_of_int items /. cpu in
  Printf.printf "passes = %d, items = %d over %.3f CPU s\n" (List.length ps) items cpu;
  Printf.printf "items_per_s = %.4f 1/s\n" items_per_s;
  let p50 = pct 50. and p90 = pct 90. and p99 = pct 99. in
  Printf.printf "peak_rss_mb = %.2f MB (after set-up and the first pass)\n" !rss;
  let wrong = W.verify t in
  report_errors wrong;
  let failed =
    List.fold_left (fun a p -> a + p.Obs.failed) (List.length wrong) ps
  in
  Printf.printf "failed_share = %.6f (%d of %d)\n"
    (float_of_int failed /. float_of_int items) failed items;
  print_result ~correct:(failed = 0) ~attempted:items ~failed
    [ ("setup_s", setup_s, "s"); ("items_per_s", items_per_s, "1/s");
      ("item_ms_p50", p50, "ms"); ("item_ms_p90", p90, "ms");
      ("item_ms_p99", p99, "ms"); ("peak_rss_mb", !rss, "MB") ];
  failed = 0

(* The traced run: one untraced pass, then two traced passes whose
   listed counts must agree. *)
let trace (type a) (module W : WORKLOAD with type t = a) (t : a) ~seed =
  let u = W.pass t ~first:true ~until:infinity in
  report_errors u.Obs.errors;
  let traced_pass () =
    Obs.reset ();
    Obs.set_tracing true;
    let p = W.pass t ~first:false ~until:infinity in
    Obs.set_tracing false;
    report_errors p.Obs.errors;
    (p, List.map (fun (n, u, m, v) -> (n, v, u, m)) (layer_metrics ()))
  in
  let a, values = traced_pass () in
  let spans =
    Obs.write_spans
      (Filename.concat Obs.out_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" W.name seed))
  in
  let b, values_b = traced_pass () in
  let wrong = W.verify t in
  report_errors wrong;
  let drift =
    List.filter_map
      (fun ((n, va, _, _), (_, vb, _, _)) ->
        if deterministic n && va <> vb then Some (n, va, vb) else None)
      (List.combine values values_b)
  in
  let overhead = (a.Obs.cpu_s /. u.Obs.cpu_s) -. 1. in
  List.iter
    (fun (n, v, u, moves) -> Printf.printf "%-36s %14.4f %-8s -> %s\n" n v u moves)
    values;
  Printf.printf
    "tracing overhead: traced %.3f vs untraced %.3f CPU s over %d items = %+.2f%%\n"
    a.Obs.cpu_s u.Obs.cpu_s a.Obs.items (100. *. overhead);
  Printf.printf "spans: %d written to %s/\n" spans Obs.out_dir;
  List.iter
    (fun (n, va, vb) -> Printf.printf "DRIFT %s: %.17g then %.17g\n" n va vb)
    drift;
  if drift = [] then
    print_endline "determinism: every listed count repeated exactly";
  let failed =
    List.length wrong + u.Obs.failed + a.Obs.failed + b.Obs.failed
    + List.length drift
  in
  print_result ~correct:(failed = 0)
    ~attempted:(u.Obs.items + a.Obs.items + b.Obs.items)
    ~failed
    (List.map (fun (n, v, u, _) -> (n, v, u)) values
    @ [ ("trace.overhead_share", overhead, "fraction") ]);
  failed = 0

let run (module W : WORKLOAD) ~seed ~seconds ~traced =
  let w = (module W : WORKLOAD with type t = W.t) in
  (try Unix.mkdir Obs.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t, setup_s = set_up w ~seed in
  Printf.printf "workload %s seed %d: set-up median %.4f s over %d set-ups\n%!"
    W.name seed setup_s setup_repeats;
  let ok = if traced then trace w t ~seed else measure w t ~seconds ~setup_s in
  W.teardown t;
  ok

let usage () =
  Printf.eprintf
    "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "," workload_names);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match
      List.find_opt (fun (module W : WORKLOAD) -> W.name = get "workload") workloads
    with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let ok =
    run w ~seed:(int "seed") ~seconds:(float_of_int seconds) ~traced:(trace = 1)
  in
  exit (if ok then 0 else 1)
