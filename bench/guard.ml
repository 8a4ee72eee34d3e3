(* Bench regression guard: compare a fresh `bench --json` record against
   the checked-in baseline (bench/baseline.json) on its
   machine-independent rows.

   E12 (enumeration-core speedups): speedups are same-run ratios of two
   measurements under identical load, so they are machine-independent
   where absolute times are not — that is what gets compared.  A row
   regressing below [soft_floor] x its baseline speedup fails the guard
   (exit 1); a row collapsing by an order of magnitude is reported as a
   hard failure (exit 2) — that means a fast path stopped engaging, not
   noise.

   E13 (chaos drill, present when the record was produced with
   --service): the pass/fail signal is categorical, not a timing —
   every pass must report [verdicts_ok] (the resilient client masked
   every injected fault), and the chaos pass must actually have been
   chaotic: [faults_injected] at or above the baseline row's
   [min_faults] floor (the schedule is seeded, so a collapse here means
   the proxy stopped injecting, not noise).  A record without an E13
   table is only an error when the baseline demands one and the record
   carries other service tables.

   E14 (abstract-interpretation certificates): the baseline row fixes
   floors for the certifier coverage counts over the transformation
   corpus — [min_union] on the replay∪abstract union, and the union must
   stay strictly above the replay count (the abstract tier must keep
   certifying pairs the pipeline replay cannot).  Coverage is a pure
   function of the corpus and the certifiers, so any drop is a code
   regression, not noise.

   E15 (backend grid, gated on the baseline having an E15 table): on
   every row of the current record's differential grid the inclusion
   chain SC ⊆ TSO ⊆ ARMv8 must have held ([chain_ok]), and the SB-rlx
   row must separate TSO from SC — the weak outcome allowed under TSO,
   forbidden under SC.  Both are categorical properties of the machines,
   so any violation is a code regression.

   E17 (PS_na exploration cost, gated on the baseline having an E17
   table): every baseline row's [cert_calls] must be matched exactly by
   the current record.  It counts a deterministic search, independent
   of the machine, so any change means certification ran another number
   of times.  The state counts are pinned by the backend tests
   (test/test_backends.ml), not here; the row's ms and µs/state are not
   judged.

   Records whose schema version this guard does not know are skipped
   with a notice (exit 0) instead of being misread: field meanings may
   have changed under the same names.

   The baseline's speedup fields are conservative floors (below the
   worst ratio observed across healthy runs), not a verbatim run record:
   same-run ratios still wobble with GC pressure and machine load, and
   the guard must only trip on real regressions.  Refresh them
   deliberately when the fast path materially improves.

   Usage: guard.exe CURRENT.json [BASELINE.json]  (default baseline:
   bench/baseline.json). *)

module J = Service.Json

let soft_floor = 0.75
let hard_floor = 0.1

(* Schema versions this guard knows how to judge.  A record written by a
   newer (or older) harness is skipped with a notice instead of being
   misread: field meanings may have changed under the same names. *)
let known_schemas =
  [ "seq-bench/5"; "seq-bench/6"; "seq-bench/7"; "seq-bench/8" ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let fail fmt = Fmt.kstr (fun m -> prerr_endline ("guard: " ^ m); exit 1) fmt

let load path =
  match J.of_string (read_file path) with
  | doc -> doc
  | exception J.Parse_error msg -> fail "%s: JSON parse error at %s" path msg

let tables path doc =
  match Option.bind (J.member "tables" doc) J.to_list_opt with
  | Some ts -> ts
  | None -> fail "%s: no \"tables\" array" path

(* The rows of table [id], or [None] when the record has no such table. *)
let table_rows id tables =
  Option.bind
    (List.find_opt
       (fun t -> Option.bind (J.member "id" t) J.to_string_opt = Some id)
       tables)
    (fun t -> Option.bind (J.member "rows" t) J.to_list_opt)

let row_name row = Option.bind (J.member "name" row) J.to_string_opt

let find_row name rows =
  List.find_opt (fun r -> row_name r = Some name) rows

(* Skip-with-notice (exit 0) on a record whose schema the guard does not
   know; fail hard only when the schema field itself is missing. *)
let check_schema path doc =
  match Option.bind (J.member "schema" doc) J.to_string_opt with
  | None -> fail "%s: no \"schema\" field" path
  | Some s when List.mem s known_schemas -> ()
  | Some s ->
    Fmt.pr "guard: %s: unknown schema %S (known: %s) — skipping@." path s
      (String.concat ", " known_schemas);
    exit 0

(* ---------------- E12: speedup floors ---------------- *)

let e12_pairs path tbls : (string * float) list =
  match table_rows "E12" tbls with
  | None -> fail "%s: no E12 table" path
  | Some rows ->
    List.filter_map
      (fun row ->
        match
          (row_name row, Option.bind (J.member "speedup" row) J.to_float_opt)
        with
        | Some name, Some speedup -> Some (name, speedup)
        | _ -> None)
      rows

let check_e12 ~current ~cur_tbls ~baseline ~base_tbls =
  let cur = e12_pairs current cur_tbls in
  let base = e12_pairs baseline base_tbls in
  if base = [] then fail "%s: baseline has no E12 speedup rows" baseline;
  let soft = ref [] and hard = ref [] in
  List.iter
    (fun (name, bspeed) ->
      match List.assoc_opt name cur with
      | None ->
        fail "row %S present in baseline but missing from %s" name current
      | Some cspeed ->
        let ratio = cspeed /. bspeed in
        Fmt.pr "%-22s baseline %6.2fx  current %6.2fx  ratio %.2f@." name
          bspeed cspeed ratio;
        if ratio < hard_floor then hard := name :: !hard
        else if ratio < soft_floor then soft := name :: !soft)
    base;
  (match !hard, !soft with
   | [], [] ->
     Fmt.pr "guard: all %d E12 rows within bounds@." (List.length base)
   | _ -> ());
  (!hard, !soft)

(* ---------------- E13: chaos drill invariants ---------------- *)

let check_e13 ~current ~cur_tbls ~base_tbls =
  match table_rows "E13" base_tbls with
  | None -> []  (* baseline predates the chaos drill *)
  | Some base_rows -> (
    match table_rows "E13" cur_tbls with
    | None ->
      (* E13 only exists under --service; a non-service record is fine,
         a service record that lost the table is not *)
      if table_rows "E10" cur_tbls <> None then
        fail "%s: has service tables but no E13 chaos table" current
      else begin
        Fmt.pr "guard: no service tables in record, E13 skipped@.";
        []
      end
    | Some cur_rows ->
      let bad = ref [] in
      List.iter
        (fun brow ->
          let name =
            match row_name brow with
            | Some n -> n
            | None -> fail "baseline E13 row without a name"
          in
          match find_row name cur_rows with
          | None ->
            fail "E13 row %S present in baseline but missing from %s" name
              current
          | Some crow ->
            let verdicts_ok =
              match J.member "verdicts_ok" crow with
              | Some (J.Bool b) -> b
              | _ -> false
            in
            let faults =
              match
                Option.bind (J.member "faults_injected" crow) J.to_float_opt
              with
              | Some f -> f
              | None -> 0.
            in
            let min_faults =
              match
                Option.bind (J.member "min_faults" brow) J.to_float_opt
              with
              | Some f -> f
              | None -> 0.
            in
            Fmt.pr "E13 %-8s verdicts_ok=%b  faults=%.0f (floor %.0f)@." name
              verdicts_ok faults min_faults;
            if not verdicts_ok then begin
              Fmt.epr "guard: E13 %s pass: verdicts diverged under faults@."
                name;
              bad := name :: !bad
            end;
            if faults < min_faults then begin
              Fmt.epr
                "guard: E13 %s pass: only %.0f faults injected (floor %.0f) \
                 — the chaos proxy is not exercising the client@."
                name faults min_faults;
              bad := name :: !bad
            end)
        base_rows;
      if !bad = [] then
        Fmt.pr "guard: all %d E13 rows within bounds@." (List.length base_rows);
      !bad)

(* ---------------- E14: certifier coverage floors ---------------- *)

let check_e14 ~current ~cur_tbls ~base_tbls =
  match table_rows "E14" base_tbls with
  | None -> []  (* baseline predates the abstract certifier *)
  | Some base_rows -> (
    let floor_row =
      match find_row "coverage" base_rows with
      | Some r -> r
      | None -> fail "baseline E14 table has no \"coverage\" row"
    in
    let min_union =
      match Option.bind (J.member "min_union" floor_row) J.to_float_opt with
      | Some f -> int_of_float f
      | None -> fail "baseline E14 coverage row has no min_union floor"
    in
    match table_rows "E14" cur_tbls with
    | None -> fail "%s: no E14 table" current
    | Some cur_rows ->
      let cov =
        match find_row "coverage" cur_rows with
        | Some r -> r
        | None -> fail "%s: E14 table has no coverage row" current
      in
      let geti k =
        match Option.bind (J.member k cov) J.to_float_opt with
        | Some f -> int_of_float f
        | None -> fail "%s: E14 coverage row has no %S" current k
      in
      let replay = geti "replay"
      and abs = geti "abstract"
      and union = geti "union"
      and total = geti "total" in
      Fmt.pr
        "E14 coverage: replay %d/%d  abstract %d/%d  union %d/%d (floor %d)@."
        replay total abs total union total min_union;
      let bad = ref [] in
      if union < min_union then begin
        Fmt.epr "guard: E14 union %d below baseline floor %d@." union
          min_union;
        bad := "union-floor" :: !bad
      end;
      if union <= replay then begin
        Fmt.epr
          "guard: E14 union %d does not exceed replay %d — the abstract \
           certifier adds no coverage@."
          union replay;
        bad := "abstract-uplift" :: !bad
      end;
      if !bad = [] then Fmt.pr "guard: E14 coverage within bounds@.";
      !bad)

(* ---------------- E15: backend grid invariants ---------------- *)

(* Categorical, machine-independent: on every E15 row the inclusion
   chain SC ⊆ TSO ⊆ ARMv8 must have held, and the SB row must separate
   TSO from SC (allowed under TSO, forbidden under SC) — the one
   separation the whole backend grid exists to exhibit.  Rows the sweep
   left UNKNOWN are skipped with a notice. *)
let check_e15 ~current ~cur_tbls ~base_tbls =
  match table_rows "E15" base_tbls with
  | None -> []  (* baseline predates the backend grid *)
  | Some _ -> (
    match table_rows "E15" cur_tbls with
    | None -> fail "%s: no E15 table" current
    | Some cur_rows ->
      let bad = ref [] in
      let known =
        List.filter (fun row -> J.member "unknown" row = None) cur_rows
      in
      (match List.length cur_rows - List.length known with
       | 0 -> ()
       | n -> Fmt.pr "guard: E15: %d UNKNOWN row(s) skipped@." n);
      let model row m =
        match
          Option.bind (J.member "models" row) (fun ms -> J.member m ms)
        with
        | Some (J.Bool b) -> b
        | _ ->
          fail "%s: E15 row %S has no %S verdict" current
            (Option.value (row_name row) ~default:"?")
            m
      in
      List.iter
        (fun row ->
          let name = Option.value (row_name row) ~default:"?" in
          let chain_ok =
            match J.member "chain_ok" row with
            | Some (J.Bool b) -> b
            | _ -> fail "%s: E15 row %S has no chain_ok" current name
          in
          Fmt.pr "E15 %-12s chain_ok=%b sc=%b tso=%b armv8=%b ps=%b@." name
            chain_ok (model row "sc") (model row "tso") (model row "armv8")
            (model row "ps");
          if not chain_ok then begin
            Fmt.epr
              "guard: E15 %s: inclusion chain SC ⊆ TSO ⊆ ARMv8 violated@."
              name;
            bad := ("chain:" ^ name) :: !bad
          end)
        known;
      (match find_row "SB-rlx" known with
       | None ->
         if find_row "SB-rlx" cur_rows = None then
           fail "%s: E15 table has no SB-rlx row" current
       | Some row ->
         if not (model row "tso" && not (model row "sc")) then begin
           Fmt.epr
             "guard: E15 SB-rlx must separate TSO from SC (allowed under \
              TSO, forbidden under SC)@.";
           bad := "SB-separation" :: !bad
         end);
      if !bad = [] then
        Fmt.pr "guard: all %d E15 rows within bounds@." (List.length known);
      !bad)

(* ---------------- E16: guided-fuzzing invariants ---------------- *)

(* Categorical plus one floor: the guided campaign must refute every
   planted variant ([min_planted] from the baseline), must not need
   more execs than the blind campaign to refute them all (the two
   campaigns share every even corpus index, so the comparison is exact,
   not statistical), and its coverage-point count must stay at or above
   the baseline floor [min_points] (signals are pure functions of the
   deterministic corpus, so a drop is a code regression, not noise). *)
let check_e16 ~current ~cur_tbls ~base_tbls =
  match table_rows "E16" base_tbls with
  | None -> []  (* baseline predates guided fuzzing *)
  | Some base_rows -> (
    let floor_row =
      match find_row "guided" base_rows with
      | Some r -> r
      | None -> fail "baseline E16 table has no \"guided\" row"
    in
    let floor k =
      match Option.bind (J.member k floor_row) J.to_float_opt with
      | Some f -> int_of_float f
      | None -> fail "baseline E16 guided row has no %S floor" k
    in
    let min_planted = floor "min_planted" and min_points = floor "min_points" in
    match table_rows "E16" cur_tbls with
    | None -> fail "%s: no E16 table" current
    | Some cur_rows ->
      let geti row k =
        match Option.bind (J.member k row) J.to_float_opt with
        | Some f -> int_of_float f
        | None ->
          fail "%s: E16 row %S has no %S" current
            (Option.value (row_name row) ~default:"?")
            k
      in
      let guided =
        match find_row "guided" cur_rows with
        | Some r -> r
        | None -> fail "%s: E16 table has no guided row" current
      in
      let bad = ref [] in
      let planted = geti guided "planted_refuted" in
      let points = geti guided "points" in
      Fmt.pr "E16 guided: planted %d (floor %d)  points %d (floor %d)@."
        planted min_planted points min_points;
      if planted < min_planted then begin
        Fmt.epr "guard: E16 guided refuted %d planted variants (floor %d)@."
          planted min_planted;
        bad := "planted-floor" :: !bad
      end;
      if points < min_points then begin
        Fmt.epr "guard: E16 guided coverage %d points below floor %d@." points
          min_points;
        bad := "points-floor" :: !bad
      end;
      let refutes =
        List.filter
          (fun row ->
            match row_name row with
            | Some n ->
              String.length n > 7 && String.sub n 0 7 = "refute:"
            | None -> false)
          cur_rows
      in
      let all r k =
        List.fold_left
          (fun acc row ->
            let i = geti row k in
            if acc < 0 || i < 0 then -1 else max acc i)
          0 r
      in
      let b_all = all refutes "blind_exec" and g_all = all refutes "guided_exec" in
      Fmt.pr "E16 execs-to-refute-all: blind #%d  guided #%d@." b_all g_all;
      if b_all >= 0 && (g_all < 0 || g_all > b_all) then begin
        Fmt.epr
          "guard: E16 guided needs more execs than blind to refute every \
           planted variant (#%d > #%d)@."
          g_all b_all;
        bad := "execs-to-refute" :: !bad
      end;
      if !bad = [] then Fmt.pr "guard: E16 within bounds@.";
      !bad)

(* ---------------- E17: PS_na counts ---------------- *)

let check_e17 ~current ~cur_tbls ~base_tbls =
  match table_rows "E17" base_tbls with
  | None -> []  (* baseline predates the PS_na cost table *)
  | Some base_rows -> (
    match table_rows "E17" cur_tbls with
    | None -> fail "%s: no E17 table" current
    | Some cur_rows ->
      let cert_calls row name =
        match Option.bind (J.member "cert_calls" row) J.to_float_opt with
        | Some f -> int_of_float f
        | None -> fail "E17 row %S has no cert_calls" name
      in
      let bad = ref [] in
      List.iter
        (fun brow ->
          let name =
            match row_name brow with
            | Some n -> n
            | None -> fail "baseline E17 row without a name"
          in
          match find_row name cur_rows with
          | None ->
            fail "E17 row %S present in baseline but missing from %s" name
              current
          | Some crow ->
            let b = cert_calls brow name and c = cert_calls crow name in
            if b <> c then begin
              Fmt.epr "guard: E17 %s: cert_calls %d, baseline %d@." name c b;
              bad := (name ^ ".cert_calls") :: !bad
            end)
        base_rows;
      if !bad = [] then
        Fmt.pr "guard: all %d E17 rows match the baseline counts@."
          (List.length base_rows);
      !bad)

let () =
  let current, baseline =
    match Array.to_list Sys.argv with
    | [ _; c ] -> (c, "bench/baseline.json")
    | [ _; c; b ] -> (c, b)
    | _ -> fail "usage: guard.exe CURRENT.json [BASELINE.json]"
  in
  let cur_doc = load current and base_doc = load baseline in
  check_schema current cur_doc;
  check_schema baseline base_doc;
  let cur_tbls = tables current cur_doc in
  let base_tbls = tables baseline base_doc in
  let hard, soft = check_e12 ~current ~cur_tbls ~baseline ~base_tbls in
  let chaos_bad = check_e13 ~current ~cur_tbls ~base_tbls in
  let abs_bad = check_e14 ~current ~cur_tbls ~base_tbls in
  let grid_bad = check_e15 ~current ~cur_tbls ~base_tbls in
  let fuzz_bad = check_e16 ~current ~cur_tbls ~base_tbls in
  let ps_bad = check_e17 ~current ~cur_tbls ~base_tbls in
  match hard, soft, chaos_bad, abs_bad, grid_bad, fuzz_bad, ps_bad with
  | [], [], [], [], [], [], [] -> ()
  | hard, soft, chaos_bad, abs_bad, grid_bad, fuzz_bad, ps_bad ->
    List.iter
      (Fmt.epr "guard: HARD regression (order of magnitude): %s@.")
      hard;
    List.iter
      (Fmt.epr "guard: regression below %.0f%% of baseline: %s@."
         (100. *. soft_floor))
      soft;
    List.iter (Fmt.epr "guard: E13 chaos invariant violated: %s@.") chaos_bad;
    List.iter (Fmt.epr "guard: E14 certifier floor violated: %s@.") abs_bad;
    List.iter (Fmt.epr "guard: E15 grid invariant violated: %s@.") grid_bad;
    List.iter
      (Fmt.epr "guard: E16 guided-fuzzing invariant violated: %s@.")
      fuzz_bad;
    List.iter (Fmt.epr "guard: E17 PS_na count changed: %s@.") ps_bad;
    exit (if hard <> [] then 2 else 1)
