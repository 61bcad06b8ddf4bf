(* The dichotomy at a glance: classify the paper's query catalogue (q1..q7
   plus extra examples of every class) and, for the tractable queries,
   cross-check the designated polynomial algorithm against the exact solver
   on random inconsistent databases.

   Run with: dune exec examples/dichotomy_catalog.exe *)

let line = String.make 100 '-'

let () =
  Format.printf "%s@.%-18s %-45s %s@.%s@." line "name" "query" "verdict" line;
  let rng = Random.State.make [| 2024 |] in
  List.iter
    (fun (e : Workload.Catalog.entry) ->
      let q = e.Workload.Catalog.query in
      let report = Core.Dichotomy.classify q in
      Format.printf "%-18s %-45s %s@." e.Workload.Catalog.name
        (Qlang.Query.to_string q)
        (Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict);
      (* Validate the designated algorithm against ground truth on a few
         random small instances. *)
      let agreements = ref 0 in
      let trials = 20 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:10 ~domain:3 in
        let answer, _ = Core.Solver.decision (fst (Core.Solver.solve report db)) in
        let exact = Cqa.Exact.certain (Qlang.Solution_graph.of_query q db) in
        if answer = exact then incr agreements
      done;
      Format.printf "%-18s agreement with exact solver on %d random databases: %d/%d@."
        "" trials !agreements trials)
    Workload.Catalog.all;
  Format.printf "%s@." line;
  Format.printf
    "@.The verdicts reproduce the paper's analysis: q1 and q2 are \
     coNP-complete,@.q3/q4 fall to Theorem 4 (Cert_2), q5 has no tripath \
     (Theorem 9), and q6 needs@.the matching combination of Theorem 18. See \
     EXPERIMENTS.md, experiment E1.@."
