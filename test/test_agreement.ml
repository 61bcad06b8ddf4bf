(* Cross-solver agreement on random instances (satellite of the harness PR).

   On seeded random queries and databases small enough for the exact oracle:

   - the SAT reduction agrees with the exact backtracking solver exactly;
   - Cert_k and the combined algorithm are sound (never claim certainty of a
     non-certain instance), and exact whenever the dichotomy designates them
     as the deciding PTIME algorithm;
   - the degradation chain under [verify] runs every tier and its
     cross-solver disagreement detector stays silent;
   - the chain's two front-ends and the session path are one chain. *)

module Query = Qlang.Query
module Parse = Qlang.Parse
module Solver = Core.Solver
module Outcome = Harness.Outcome

let rng = Random.State.make [| 20240805 |]

(* A seeded pool of (query, database) instances. Queries mix hand-picked
   dichotomy representatives with random draws; databases are small (the
   exact oracle enumerates repairs in the worst case). *)
let fixed_queries =
  List.map Parse.query_exn
    [
      "R(x | y) R(y | z)";
      "R(x | y z) R(z | x y)";
      "R(x | x y) R(y | y x)";
      "R(x y | z) R(z y | x)";
    ]

let random_queries =
  List.filter_map
    (fun _ ->
      Workload.Randquery.random_nontrivial rng ~arity:3 ~key_len:1 ~n_vars:3
        ~attempts:20)
    (List.init 5 Fun.id)

(* Classification runs a tripath search and is by far the most expensive
   step here; classify each query once and share the report across its
   databases. *)
let instances =
  List.concat_map
    (fun q ->
      let report = Core.Dichotomy.classify q in
      List.init 4 (fun i ->
          ( q,
            report,
            Workload.Randdb.random_for_query rng q ~n_facts:(6 + (2 * i)) ~domain:3 )))
    (fixed_queries @ random_queries)

let test_sat_agrees_with_exact () =
  List.iter
    (fun (q, _, db) ->
      let g = Qlang.Solution_graph.of_query q db in
      let exact = Cqa.Exact.certain g in
      let sat = Cqa.Satreduce.certain g in
      if sat <> exact then
        Alcotest.failf "SAT %b vs exact %b on %s" sat exact (Query.to_string q))
    instances

let test_certk_sound_and_combined_agree () =
  List.iter
    (fun (q, _, db) ->
      let g = Qlang.Solution_graph.of_query q db in
      let exact = Cqa.Exact.certain g in
      let certk = Cqa.Certk.run ~k:3 g in
      if certk && not exact then
        Alcotest.failf "Cert_3 claimed a non-certain instance of %s"
          (Query.to_string q);
      let combined = Cqa.Combined.run ~k:3 g in
      if combined && not exact then
        Alcotest.failf "combined claimed a non-certain instance of %s"
          (Query.to_string q))
    instances

let test_designated_algorithm_is_exact () =
  (* Where the dichotomy designates a PTIME algorithm, that algorithm must
     agree with the oracle — this is the paper's correctness claim. *)
  List.iter
    (fun (q, report, db) ->
      match report.Core.Dichotomy.verdict with
      | Core.Dichotomy.Conp_complete _ -> ()
      | Core.Dichotomy.Ptime _ ->
          let answer, _ = Solver.decision (fst (Solver.solve report db)) in
          let exact = Cqa.Exact.certain (Qlang.Solution_graph.of_query q db) in
          if answer <> exact then
            Alcotest.failf "designated algorithm %b vs exact %b on %s" answer
              exact (Query.to_string q))
    instances

let test_certk_matches_naive_oracle () =
  (* Differential check of the antichain Cert_k implementation against the
     textbook fixpoint oracle, on the same seeded instance pool (small
     enough that the naive k-set materialisation stays cheap). *)
  List.iter
    (fun (q, _, db) ->
      let g = Qlang.Solution_graph.of_query q db in
      List.iter
        (fun k ->
          let fast = Cqa.Certk.run ~k g in
          let naive = Cqa.Certk_naive.run ~k g in
          if fast <> naive then
            Alcotest.failf "Cert_%d %b vs naive %b on %s" k fast naive
              (Query.to_string q))
        [ 1; 2; 3 ])
    instances

let test_verify_chain_never_disagrees () =
  List.iter
    (fun (q, report, db) ->
      let outcome, attempts = Solver.solve ~verify:true report db in
      match outcome with
      | Outcome.Decided _ -> ()
      | Outcome.Solver_error msg ->
          Alcotest.failf "disagreement on %s: %s" (Query.to_string q) msg
      | _ ->
          Alcotest.failf "unbudgeted verify run did not decide %s (%d attempts)"
            (Query.to_string q) (List.length attempts))
    instances

(* On the catalogue × seeded random databases, [solve] on the database,
   [solve_plane] on its compiled plane and [Session.certain] return the same
   verdict and algorithm, and the two front-ends run the same attempts
   (tier, algorithm, status), both with the designated PTIME tier and with
   [exact_only]. One session per query walks the databases by delta
   updates, so from the second database on it answers from an
   incrementally repaired solution graph. *)
let test_chain_front_ends_agree () =
  let opts =
    { Core.Tripath_search.default_options with Core.Tripath_search.max_merges = 1 }
  in
  let rng = Random.State.make [| 1302 |] in
  let shape (_, attempts) =
    List.map
      (fun (a : Solver.attempt) -> (a.Solver.tier, a.Solver.algorithm, a.Solver.status))
      attempts
  in
  let delta ~from db =
    let facts = Relational.Database.facts in
    List.filter_map
      (fun f ->
        if Relational.Database.mem db f then None
        else Some (Relational.Delta.Retract f))
      (facts from)
    @ List.filter_map
        (fun f ->
          if Relational.Database.mem from f then None
          else Some (Relational.Delta.Insert f))
        (facts db)
  in
  List.iter
    (fun (e : Workload.Catalog.entry) ->
      let q = e.Workload.Catalog.query in
      let empty = Relational.Database.of_facts [ q.Query.schema ] [] in
      let session = ref (Core.Session.create ~opts q empty) in
      let report = Core.Session.report !session in
      List.iter
        (fun i ->
          let db =
            Workload.Randdb.random_for_query rng q ~n_facts:(6 + (2 * i)) ~domain:3
          in
          session :=
            Core.Session.update !session
              (delta ~from:(Core.Session.database !session) db);
          let plane = Relational.Compiled.compile db in
          List.iter
            (fun exact_only ->
              if
                shape (Solver.solve ~exact_only report db)
                <> shape (Solver.solve_plane ~exact_only report plane)
              then
                Alcotest.failf "solve and solve_plane attempts differ on %s%s"
                  e.Workload.Catalog.name
                  (if exact_only then " (exact_only)" else ""))
            [ false; true ];
          let expected = Solver.decision (fst (Solver.solve report db)) in
          let check what got =
            if got <> expected then
              Alcotest.failf "%s disagrees with solve on %s" what
                e.Workload.Catalog.name
          in
          check "solve_plane" (Solver.decision (fst (Solver.solve_plane report plane)));
          check "Session.certain" (Core.Session.certain !session))
        [ 0; 1; 2; 3 ])
    Workload.Catalog.all

let () =
  Alcotest.run "agreement"
    [
      ( "agreement",
        [
          Alcotest.test_case "sat = exact" `Quick test_sat_agrees_with_exact;
          Alcotest.test_case "certk and combined sound" `Quick
            test_certk_sound_and_combined_agree;
          Alcotest.test_case "designated algorithm exact" `Quick
            test_designated_algorithm_is_exact;
          Alcotest.test_case "certk matches naive oracle" `Quick
            test_certk_matches_naive_oracle;
          Alcotest.test_case "verify chain never disagrees" `Quick
            test_verify_chain_never_disagrees;
          Alcotest.test_case "chain front-ends agree" `Quick
            test_chain_front_ends_agree;
        ] );
    ]
