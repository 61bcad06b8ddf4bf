(* The benchmark's in-process half.

   pb.exe gen    --workload W --seed N [--tiny] --out DIR
     Generates the workload's inputs from the seed, computes the verdict
     oracle of every timed request, writes DIR/inputs.json and prints a
     one-line summary.

   pb.exe layers --workload W --seed N [--tiny] --seconds S
     Regenerates the same inputs and times each layer's public functions
     on them from outside (median and quartiles over calls, GC deltas,
     per-layer counts). Prints one JSON object as the last line.

   Neither mode touches the GC settings: OCAMLRUNPARAM is unset by the
   caller and Gc.set is never called, so the numbers are taken under the
   same GC regime the daemon runs with. *)

module Json = Analysis.Json
module Db = Relational.Database
module Compiled = Relational.Compiled

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

type case = {
  name : string;  (** Database name as loaded into the daemon. *)
  qname : string;  (** Catalogue name of the query. *)
  query : Qlang.Query.t;
  text : string;  (** Facts text, as sent over the wire. *)
  db : Db.t;  (** [text] parsed back through [Serve.Ingest.database]. *)
  expect : bool;  (** Oracle verdict. *)
}

type step =
  | Certain_named of { case : case; expect : bool }
  | Certain_inline of case
  | Update of {
      db : string;
      insert : Relational.Fact.t list;
      retract : Relational.Fact.t list;
    }

type inputs = {
  workload : string;
  loaded : case list;  (** Named databases loaded during set-up. *)
  queries : (string * Qlang.Query.t) list;  (** Classified during set-up. *)
  cycle : step list;  (** The timed requests, repeated in order. *)
  summary : (string * Json.t) list;
}

let catalog name = (Workload.Catalog.find name).Workload.Catalog.query

let fact_line db (f : Relational.Fact.t) =
  let schema = Db.schema_of db f in
  let token i = Relational.Value.to_token (Relational.Fact.nth f i) in
  let join ps = String.concat " " (List.map token ps) in
  Printf.sprintf "%s(%s | %s)" f.Relational.Fact.rel
    (join (Relational.Schema.key_positions schema))
    (join (Relational.Schema.nonkey_positions schema))

let facts_text db =
  String.concat "" (List.map (fun f -> fact_line db f ^ "\n") (Db.facts db))

let ingest text =
  match Serve.Ingest.database text with
  | Ok db -> db
  | Error e -> fail "generated database does not ingest: %s" e.Serve.Protocol.message

(* The Randdb oracle: every tier of the degradation chain runs and must
   agree (verify), on the database exactly as the daemon will parse it. *)
let reports = Hashtbl.create 8

let report_of q =
  let key = Qlang.Query.to_string q in
  match Hashtbl.find_opt reports key with
  | Some r -> r
  | None ->
      let r = Core.Dichotomy.classify q in
      Hashtbl.replace reports key r;
      r

let oracle ~check q db =
  if not check then false
  else
    match
      Core.Solver.solve_plane ~verify:true (report_of q) (Compiled.compile db)
    with
    | Harness.Outcome.Decided (b, _), _ -> b
    | o, _ -> fail "oracle undecided: %s" (Core.Solver.outcome_label o)

let randdb_case ~check rng ~name ~qname ~n_facts ~domain =
  let query = catalog qname in
  let text =
    facts_text (Workload.Randdb.random_for_query rng query ~n_facts ~domain)
  in
  let db = ingest text in
  { name; qname; query; text; db; expect = oracle ~check query db }

(* Theorem-12 gadget for q2 over a seeded random 3-CNF [phi0] conjoined
   with the chain family on fresh variables: [chain ~sat:false] makes the
   whole formula unsatisfiable (certain), [chain ~sat:true] keeps [phi0]'s
   satisfiability, so both verdicts appear at comparable sizes. *)
let gadget = lazy (Result.get_ok (Core.Gadget.of_tripath Workload.Catalog.q2_nice_fork_tripath))

let shift n (f : Satsolver.Cnf.t) =
  List.map (List.map (fun l -> if l > 0 then l + n else l - n)) f.Satsolver.Cnf.clauses

let conj (a : Satsolver.Cnf.t) (b : Satsolver.Cnf.t) =
  Satsolver.Cnf.make ~n_vars:(a.Satsolver.Cnf.n_vars + b.Satsolver.Cnf.n_vars)
    (a.Satsolver.Cnf.clauses @ shift a.Satsolver.Cnf.n_vars b)

let rec gadget_case ~check rng ~name ~n_vars ~n_clauses ~sat =
  let phi0 = Satsolver.Threesat.random rng ~n_vars ~n_clauses in
  match Satsolver.Threesat.normalize phi0 with
  | Satsolver.Threesat.Decided _ -> gadget_case ~check rng ~name ~n_vars ~n_clauses ~sat
  | Satsolver.Threesat.Formula phi ->
      if sat && not (Satsolver.Brute.is_sat phi0) then
        gadget_case ~check rng ~name ~n_vars ~n_clauses ~sat
      else
        let chain = Satsolver.Threesat.chain ~sat 4 in
        let phi = conj phi chain in
        let g = Lazy.force gadget in
        let text = facts_text (Core.Gadget.database g phi) in
        let expect =
          if not check then false
          else
            let certain = Core.Gadget.certain g phi in
            (* certain <=> unsatisfiable (Lemma 13), checked by enumeration
               on the un-normalized, equisatisfiable formula *)
            if certain = Satsolver.Brute.is_sat (conj phi0 chain) then
              fail "gadget oracle disagrees with brute-force SAT on %s" name;
            certain
        in
        { name; qname = "q2"; query = Workload.Catalog.q2; text; db = ingest text; expect }

let verdict_mix cases =
  let yes = List.length (List.filter (fun c -> c.expect) cases) in
  Json.Obj [ ("certain", Json.Int yes); ("not_certain", Json.Int (List.length cases - yes)) ]

(* The (query, database) pairs a cycle asks about, with the oracle's verdicts. *)
let timed_cases cycle =
  List.filter_map
    (function
      | Certain_named { case; expect } -> Some { case with expect }
      | Certain_inline c -> Some c
      | Update _ -> None)
    cycle

(* The generated-input summary; both verdicts must be present. *)
let summary ~check workload dbs cycle =
  let timed = timed_cases cycle in
  if check && (List.for_all (fun c -> c.expect) timed || List.for_all (fun c -> not c.expect) timed)
  then fail "%s: the seed produced a single verdict; both must be present" workload;
  [
    ("databases", Json.Int (List.length dbs));
    ("facts", Json.Int (List.fold_left (fun a c -> a + Db.size c.db) 0 dbs));
    ("blocks", Json.Int (List.fold_left (fun a c -> a + Db.block_count c.db) 0 dbs));
    ("cycle", Json.Int (List.length cycle));
    ("verdicts", verdict_mix timed);
  ]

(* serve-ptime: 7 named Randdb databases under the 8-plane cache, so every
   request hits it: two for q3 (Cert_2), three for swap (Cert_k), two for
   q6 (Cert_k or not Matching). The q3 databases are smaller, so the three
   kinds take clearly different times (q3 < swap < q6) and the median falls
   in the middle of the swap requests, the tail among the q6 ones -- never
   on a gap between kinds, where a slightly faster or slower run would make
   it jump. *)
let serve_ptime ~check ~tiny rng =
  let n = if tiny then 200 else 2000 in
  let dbs qname n_facts k =
    List.init k (fun i ->
        randdb_case ~check rng ~name:(Printf.sprintf "%s-%d" qname i) ~qname ~n_facts
          ~domain:(n_facts / 4))
  in
  let loaded = dbs "q3" (2 * n / 5) 2 @ dbs "swap" n 3 @ dbs "q6" n 2 in
  let cycle = List.map (fun c -> Certain_named { case = c; expect = c.expect }) loaded in
  {
    workload = "serve-ptime";
    loaded;
    queries = List.map (fun q -> (q, catalog q)) [ "q3"; "swap"; "q6" ];
    cycle;
    summary = summary ~check "serve-ptime" loaded cycle;
  }

(* serve-conp: 5 named q2 gadgets, 3 satisfiable (not certain) and 2
   unsatisfiable (certain). *)
let serve_conp ~check ~tiny rng =
  let n_vars, n_clauses = (3, if tiny then 2 else 3) in
  let cases =
    List.init 5 (fun i ->
        gadget_case ~check rng ~name:(Printf.sprintf "gadget-%d" i) ~n_vars ~n_clauses
          ~sat:(i mod 2 = 0))
  in
  let cycle = List.map (fun c -> Certain_named { case = c; expect = c.expect }) cases in
  {
    workload = "serve-conp";
    loaded = cases;
    queries = [ ("q2", Workload.Catalog.q2) ];
    cycle;
    summary =
      summary ~check "serve-conp" cases cycle
      @ [
          ( "formulas",
            Json.Obj
              [
                ("sat", Json.Int (List.length (List.filter (fun c -> not c.expect) cases)));
                ("unsat", Json.Int (List.length (List.filter (fun c -> c.expect) cases)));
              ] );
        ];
  }

(* serve-update: one loaded database over R[2,3] (the schema triv-key and
   q4 share); per step an inline-facts certain on a fresh database (so the
   stream's working set, 12 inline databases, outruns the 8-plane cache),
   then insert one fresh fact, certain, retract it, certain -- so the loaded
   database returns to its base state and the cycle can repeat. *)
let serve_update ~check ~tiny rng =
  let n_facts = if tiny then 150 else 1500 in
  let steps = if tiny then 3 else 12 in
  let qnames = [| "triv-key"; "q4" |] in
  let base = randdb_case ~check:false rng ~name:"live" ~qname:"q4" ~n_facts ~domain:(n_facts / 5) in
  let inline =
    List.init steps (fun i ->
        randdb_case ~check rng ~name:(Printf.sprintf "inline-%d" i)
          ~qname:qnames.(i mod 2) ~n_facts ~domain:(n_facts / 5))
  in
  let fresh =
    let rec draw acc =
      if List.length acc = steps then List.rev acc
      else
        let f =
          List.hd (Db.facts (Workload.Randdb.random rng (List.hd (Db.schemas base.db)) ~n_facts:1 ~domain:(n_facts / 5)))
        in
        if Db.mem base.db f || List.exists (Relational.Fact.equal f) acc then draw acc
        else draw (f :: acc)
    in
    draw []
  in
  let live qname db = { base with qname; query = catalog qname; db; text = "" } in
  let named qname db =
    let c = live qname db in
    Certain_named { case = c; expect = oracle ~check c.query db }
  in
  let cycle =
    List.concat
      (List.mapi
         (fun i (inl, f) ->
           let qname = qnames.((i + 1) mod 2) in
           [
             Certain_inline inl;
             Update { db = "live"; insert = [ f ]; retract = [] };
             named qname (Db.add base.db f);
             Update { db = "live"; insert = []; retract = [ f ] };
             named qname base.db;
           ])
         (List.combine inline fresh))
  in
  {
    workload = "serve-update";
    loaded = [ base ];
    queries = List.map (fun q -> (q, catalog q)) (Array.to_list qnames);
    cycle;
    summary =
      summary ~check "serve-update" (base :: inline) cycle
      @ [ ("updates", Json.Int (2 * steps)) ];
  }

let generate ~check ~tiny workload seed =
  let rng = Random.State.make [| seed |] in
  match workload with
  | "serve-ptime" -> serve_ptime ~check ~tiny rng
  | "serve-conp" -> serve_conp ~check ~tiny rng
  | "serve-update" -> serve_update ~check ~tiny rng
  | w -> fail "unknown workload %s" w

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

let frame fields = Json.to_string (Json.Obj fields)
let load_frame c = frame [ ("op", Json.String "load"); ("name", Json.String c.name); ("facts", Json.String c.text) ]
let classify_frame (_, q) = frame [ ("op", Json.String "classify"); ("query", Json.String (Qlang.Query.to_string q)) ]

let lines db facts = String.concat "\n" (List.map (fact_line db) facts)

let step_frame base = function
  | Certain_named { case; _ } ->
      frame
        [
          ("op", Json.String "certain");
          ("query", Json.String (Qlang.Query.to_string case.query));
          ("db", Json.String case.name);
        ]
  | Certain_inline c ->
      frame
        [
          ("op", Json.String "certain");
          ("query", Json.String (Qlang.Query.to_string c.query));
          ("facts", Json.String c.text);
        ]
  | Update { db; insert; retract } ->
      frame
        [
          ("op", Json.String "update");
          ("db", Json.String db);
          ("insert", Json.String (lines base insert));
          ("retract", Json.String (lines base retract));
        ]

let step_expect = function
  | Certain_named { expect; _ } | Certain_inline { expect; _ } ->
      if expect then "ok" else "not-certain"
  | Update _ -> "ok"

let base_db inp = match inp.loaded with c :: _ -> c.db | [] -> Db.empty []
let setup_frames inp = List.map load_frame inp.loaded @ List.map classify_frame inp.queries

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen ~tiny workload seed out =
  let inp = generate ~check:true ~tiny workload seed in
  let base = base_db inp in
  let doc =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("summary", Json.Obj inp.summary);
        ("setup", Json.List (List.map (fun f -> Json.String f) (setup_frames inp)));
        ( "cycle",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("frame", Json.String (step_frame base s));
                     ("expect", Json.String (step_expect s));
                   ])
               inp.cycle) );
      ]
  in
  let oc = open_out_bin (Filename.concat out "inputs.json") in
  output_string oc (Json.to_string doc);
  close_out oc;
  print_endline (Json.to_string (Json.Obj inp.summary))

(* ------------------------------------------------------------------ *)
(* layers                                                              *)

type sample = { ms : float; minor : float; major : int }

(* Nanosecond clock: many calls take a few microseconds. [Gc.minor_words]
   counts the current minor heap too; [quick_stat]'s count only moves at a
   minor collection, so it reads 0 for most short calls. *)
let timed f =
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  let w1 = Gc.minor_words () in
  let major1 = (Gc.quick_stat ()).Gc.major_collections in
  (r, { ms = Int64.to_float (Int64.sub t1 t0) /. 1e6; minor = w1 -. w0; major = major1 - major0 })

let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let results : (string * (string * float * string) list) list ref = ref []

let emit name metrics = results := (name, metrics) :: !results

(* Call [f] on every input, in rounds, until [budget_s] has elapsed (at
   least one full round, at most [max_rounds]). *)
let measure ?(max_rounds = 200) ~budget_s name inputs f =
  if inputs = [] then fail "layer %s has no inputs" name;
  let samples = ref [] in
  let deadline = Unix.gettimeofday () +. budget_s in
  let rec rounds k =
    List.iter (fun x -> samples := snd (timed (fun () -> ignore (f x))) :: !samples) inputs;
    if k < max_rounds && Unix.gettimeofday () < deadline then rounds (k + 1)
  in
  rounds 1;
  let ms = List.map (fun s -> s.ms) !samples in
  let n = float_of_int (List.length !samples) in
  Printf.eprintf "layer %-26s %5d calls  median %.3f ms\n%!" name (List.length ms) (quantile ms 0.5);
  emit name
    [
      ("ms", quantile ms 0.5, "ms");
      ("ms.q1", quantile ms 0.25, "ms");
      ("ms.q3", quantile ms 0.75, "ms");
      ("minor_words", quantile (List.map (fun s -> s.minor) !samples) 0.5, "words");
      ( "major_gcs",
        float_of_int (List.fold_left (fun a s -> a + s.major) 0 !samples) /. n,
        "count" );
    ]

let count name v unit = emit name [ ("", v, unit) ]
let graph_of ~engine c plane = Core.Solver.build_query_graph ~engine c.query plane

let layers ~tiny workload seed seconds =
  let inp = generate ~check:false ~tiny workload seed in
  let base = base_db inp in
  let budget_s = seconds /. 16. in
  let measure ?max_rounds name inputs f = measure ?max_rounds ~budget_s name inputs f in
  let cases =
    (* Every (query, database) pair the workload asks about. *)
    let of_step = function
      | Certain_named { case; _ } -> Some case
      | Certain_inline c -> Some c
      | Update _ -> None
    in
    List.sort_uniq
      (fun a b -> compare (a.qname, a.name, Db.size a.db) (b.qname, b.name, Db.size b.db))
      (List.filter_map of_step inp.cycle)
  in
  let frames = setup_frames inp @ List.map (step_frame base) inp.cycle in
  (* ingest *)
  measure "ingest.decode" frames (fun f -> Serve.Protocol.decode ~max_bytes:(1 lsl 20) f);
  let texts = List.filter (fun t -> t <> "") (List.map (fun c -> c.text) (inp.loaded @ cases)) in
  measure "ingest.parse" texts (fun t -> Serve.Ingest.database t);
  (* classify *)
  measure ~max_rounds:1 "classify.run" (List.map snd inp.queries) (fun q ->
      Hashtbl.replace reports (Qlang.Query.to_string q) (Core.Dichotomy.classify q));
  (* compile *)
  let planes = List.map (fun c -> (c, Compiled.compile c.db)) cases in
  measure "compile.plane" cases (fun c -> Compiled.compile c.db);
  measure "compile.sanitize" (List.map snd planes) Analysis.Sanitize.gate;
  let cache =
    Serve.Plane_cache.make ~capacity:(List.length planes) ~sanitize:Analysis.Sanitize.gate ()
  in
  let fps =
    List.map (fun (c, _) -> (fst (Serve.Plane_cache.find_or_compile cache c.db)).Serve.Plane_cache.fingerprint) planes
  in
  measure "compile.cache_find" fps (fun fp ->
      match Serve.Plane_cache.find cache fp with Some _ -> () | None -> fail "cache_find missed");
  let deltas =
    (* The workload's own update stream where it has one; otherwise retract
       one fact of each database and put it back. *)
    let stream =
      let cur = ref (Compiled.compile base) in
      List.filter_map
        (function
          | Update { insert; retract; _ } ->
              let d =
                List.map (fun f -> Relational.Delta.Insert f) insert
                @ List.map (fun f -> Relational.Delta.Retract f) retract
              in
              let p = !cur in
              cur := Compiled.apply_delta p d;
              Some (p, d)
          | _ -> None)
        inp.cycle
    in
    if stream <> [] then stream
    else
      List.concat_map
        (fun (c, plane) ->
          let f = List.hd (Db.facts c.db) in
          let d = [ Relational.Delta.Retract f ] in
          [ (plane, d); (Compiled.apply_delta plane d, [ Relational.Delta.Insert f ]) ])
        planes
  in
  measure "compile.delta" deltas (fun (p, d) -> Compiled.apply_delta p d);
  (* graph *)
  let rows = ref 0 in
  let graphs =
    List.map
      (fun (c, plane) ->
        (c, Core.Solver.build_query_graph ~engine:Core.Solver.Engine_plane ~tick:(fun () -> incr rows) c.query plane))
      planes
  in
  count "graph.plane.rows_ticked" (float_of_int !rows) "count";
  measure "graph.plane" planes (fun (c, p) -> graph_of ~engine:Core.Solver.Engine_plane c p);
  measure "graph.vm" planes (fun (c, p) -> graph_of ~engine:Core.Solver.Engine_vm c p);
  (* solve. The daemon never runs Cert_k on a coNP query, and on gadget
     graphs its fixpoint blows up, so there the Cert_k calls stop after
     5000 derivation steps or 0.2 s, whichever comes first (the PTIME
     workloads run uncapped). *)
  let k = 3 in
  let conp (c, _) =
    match (report_of c.query).Core.Dichotomy.verdict with
    | Core.Dichotomy.Conp_complete _ -> true
    | Core.Dichotomy.Ptime _ -> false
  in
  let capped cg f =
    let budget =
      if conp cg then Harness.Budget.make ~max_steps:5_000 ~timeout:0.2 ~check_every:1 ()
      else Harness.Budget.unlimited ()
    in
    (try ignore (f budget) with Harness.Budget.Budget_exceeded _ -> ());
    budget
  in
  let total_steps site f =
    List.fold_left
      (fun acc ((_, g) as cg) ->
        let b = capped cg (f g) in
        acc + Option.value ~default:0 (List.assoc_opt site (Harness.Budget.steps_by_site b)))
      0 graphs
  in
  let certk g budget = Cqa.Certk.run ~budget ~k g in
  count "solve.certk.steps" (float_of_int (total_steps Harness.Sites.certk certk)) "count";
  measure "solve.certk" graphs (fun ((_, g) as cg) -> capped cg (certk g));
  measure "solve.matching" graphs (fun (_, g) -> Cqa.Matching_alg.run g);
  let sat g budget = Cqa.Satreduce.certain ~budget g in
  count "solve.sat.dpll_steps" (float_of_int (total_steps Harness.Sites.dpll sat)) "count";
  measure "solve.sat" graphs (fun (_, g) -> Cqa.Satreduce.certain g);
  measure "solve.chain" planes (fun (c, p) -> Core.Solver.solve_plane ~k (report_of c.query) p);
  (* certify. [Certk.certificate] is [snapshot_certificate (snapshot g)];
     the snapshot form takes the same step cap. *)
  measure "certify.audit" (List.map (fun (_, q) -> report_of q) inp.queries) Analysis.Check.audit_report;
  measure "certify.certk_certificate" graphs (fun ((_, g) as cg) ->
      capped cg (fun budget -> Cqa.Certk.snapshot_certificate (Cqa.Certk.snapshot ~budget ~k g)));
  (* respond: replay set-up and cycle through an in-process daemon, as the
     client does over the pipe, then re-encode the responses it gave. *)
  let config =
    {
      Serve.Daemon.default_config with
      admission = { Serve.Admission.default_config with capacity = 1e9; refill_per_s = 1e9 };
      trace_capacity = 0;
    }
  in
  let d = Serve.Daemon.create config in
  List.iter (fun f -> ignore (Serve.Daemon.handle_line d f)) (setup_frames inp);
  let cycle = List.map (step_frame base) inp.cycle in
  let responses = ref [] in
  List.iter (fun f -> responses := Option.get (Serve.Daemon.handle_line d f) :: !responses) cycle;
  measure "respond.handle" cycle (fun f -> Serve.Daemon.handle_line d f);
  let decoded =
    List.map
      (fun r ->
        match Json.of_string r with
        | Ok (Json.Obj fields) ->
            let str k = match List.assoc_opt k fields with Some (Json.String s) -> s | _ -> "" in
            let code =
              match str "code" with
              | "ok" -> Serve.Protocol.Ok_code
              | "not-certain" -> Serve.Protocol.Not_certain
              | c -> fail "in-process daemon answered %s" c
            in
            let skip = [ "op"; "status"; "code"; "exit" ] in
            (str "op", code, List.filter (fun (k, _) -> not (List.mem k skip)) fields)
        | _ -> fail "unparseable in-process response")
      !responses
  in
  measure "respond.encode" decoded (fun (op, code, fields) ->
      Serve.Protocol.to_frame (Serve.Protocol.response ~op code fields));
  let g = Gc.get () in
  let doc =
    Json.Obj
      [
        ( "gc",
          Json.Obj
            [
              ("minor_heap_size", Json.Int g.Gc.minor_heap_size);
              ("space_overhead", Json.Int g.Gc.space_overhead);
              ("major_heap_increment", Json.Int g.Gc.major_heap_increment);
              ("allocation_policy", Json.Int g.Gc.allocation_policy);
            ] );
        ( "metrics",
          Json.Obj
            (List.concat_map
               (fun (name, ms) ->
                 List.map
                   (fun (suffix, v, unit) ->
                     ( (if suffix = "" then name else name ^ "." ^ suffix),
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
                   ms)
               (List.rev !results)) );
      ]
  in
  print_endline (Json.to_string doc)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and tiny = ref false in
  let out = ref "." and seconds = ref 10. in
  let mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-check)");
      ("--out", Arg.Set_string out, "DIR");
      ("--seconds", Arg.Set_float seconds, "S");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "pb.exe (gen|layers) --workload W --seed N";
  match !mode with
  | "gen" -> gen ~tiny:!tiny !workload !seed !out
  | "layers" -> layers ~tiny:!tiny !workload !seed !seconds
  | m -> fail "unknown mode %S" m
