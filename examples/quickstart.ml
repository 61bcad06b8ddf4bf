(* Quickstart: classify a query, inspect its repairs, and compute certain
   answers with the algorithm the dichotomy designates.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A relation R[2,1]: the first position is the primary key. The query asks
     for a "path" of length two: ∃x y z. R(x|y) ∧ R(y|z). *)
  let q = Qlang.Parse.query_exn "R(x | y) R(y | z)" in
  Format.printf "query: %a@.@." Qlang.Query.pp q;

  (* 1. Classify: where does CERTAIN(q) sit in the dichotomy? *)
  let report = Core.Dichotomy.classify q in
  Format.printf "classification: %s@.@."
    (Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict);

  (* 2. An inconsistent database: key 1 has two contradictory tuples. *)
  let db =
    Qlang.Parse.database_exn
      {|R[2,1]
        R(1 2)   # key 1 says: points to 2
        R(1 9)   # key 1 also says: points to 9 (violation!)
        R(2 3)
      |}
  in
  Format.printf "database (%d facts, %d blocks, consistent: %b):@.%a@.@."
    (Relational.Database.size db)
    (Relational.Database.block_count db)
    (Relational.Database.is_consistent db)
    Relational.Database.pp db;

  (* 3. Repairs: every way of resolving the violations. *)
  Format.printf "repairs and whether they satisfy q:@.";
  Seq.iter
    (fun r ->
      Format.printf "  {%s} -> %b@."
        (String.concat ", " (List.map Relational.Fact.to_string r))
        (Qlang.Solutions.query_satisfies q r))
    (Relational.Repair.enumerate db);

  (* 4. Certain answers: true iff q holds in every repair. The repair keeping
     R(1 9) has no path, so q is not certain here. [solve] runs the budgeted
     degradation chain, starting with the algorithm the verdict designates;
     unbudgeted, it always decides. *)
  let outcome, _attempts = Core.Solver.solve report db in
  let answer, algorithm = Core.Solver.decision outcome in
  Format.printf "@.CERTAIN(q) = %b  (computed by %a)@.@." answer
    Core.Solver.pp_algorithm algorithm;

  (* 5. Fix the database: with the offending fact gone, q becomes certain. *)
  let db' = Relational.Database.remove db (Relational.Fact.make "R" [ Relational.Value.int 1; Relational.Value.int 9 ]) in
  let answer', _ = Core.Solver.decision (fst (Core.Solver.solve report db')) in
  Format.printf "after removing R(1 9): CERTAIN(q) = %b@." answer'
