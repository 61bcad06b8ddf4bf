(* The coNP-hardness gadget of Theorem 12 (Figure 2), end to end:

   1. take the fork-tripath query q2 = R(xu | xy) ∧ R(uy | xz);
   2. take the 3-SAT formula of Figure 2,
      (¬s ∨ t ∨ u) ∧ (¬s ∨ ¬t ∨ u) ∧ (s ∨ ¬t ∨ ¬u);
   3. compile it into a database D[φ] made of nice-tripath copies;
   4. observe Lemma 13: φ is satisfiable iff q2 is NOT certain for D[φ] —
      a falsifying repair *is* a satisfying assignment.

   Run with: dune exec examples/sat_reduction.exe *)

module Cnf = Satsolver.Cnf

let () =
  let q2 = Workload.Catalog.q2 in
  Format.printf "query: %a@." Qlang.Query.pp q2;

  (* The pre-computed nice fork-tripath (Figure 1c's role). *)
  let gadget =
    match Core.Gadget.of_tripath Workload.Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  Format.printf "nice fork-tripath with %d blocks verified.@.@."
    (Core.Tripath.n_blocks gadget.Core.Gadget.tripath);

  let show phi name =
    Format.printf "%s = %a@." name Cnf.pp phi;
    let db = Core.Gadget.database gadget phi in
    Format.printf "D[%s]: %d facts, %d blocks@." name
      (Relational.Database.size db)
      (Relational.Database.block_count db);
    let sat = Satsolver.Dpll.is_sat phi in
    let certain = Cqa.Exact.certain (Qlang.Solution_graph.of_query q2 db) in
    Format.printf "satisfiable(%s) = %b,  CERTAIN(q2, D[%s]) = %b@." name sat name certain;
    Format.printf "Lemma 13 (certain = unsatisfiable): %s@.@."
      (if certain = not sat then "HOLDS" else "VIOLATED");
    (match Cqa.Satreduce.falsifying_repair (Qlang.Solution_graph.of_query q2 db) with
    | Some _ when sat -> Format.printf "a falsifying repair exists, as the satisfying assignment predicts.@.@."
    | None when not sat -> Format.printf "no falsifying repair exists: every repair satisfies q2.@.@."
    | Some _ | None -> Format.printf "unexpected!@.@.")
  in

  (* Figure 2's satisfiable formula (s=1, t=2, u=3). *)
  show (Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ]) "phi_fig2";

  (* An unsatisfiable gadget-shaped formula: a cyclic chain x1=x2=x3=x4
     forced both true and false. *)
  show
    (Cnf.make ~n_vars:6
       [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ]; [ -4; 1 ]; [ 1; 5 ]; [ 2; -5 ]; [ -3; 6 ]; [ -4; -6 ] ])
    "phi_unsat";

  (* Random formulas: the equivalence is not an accident. *)
  let rng = Random.State.make [| 7 |] in
  let checked = ref 0 and ok = ref 0 in
  while !checked < 10 do
    match Workload.Randdb.hard_instance rng gadget ~n_vars:5 ~n_clauses:8 with
    | None -> ()
    | Some (phi, db) ->
        incr checked;
        let sat = Satsolver.Dpll.is_sat phi in
        let certain = Cqa.Exact.certain (Qlang.Solution_graph.of_query q2 db) in
        if certain = not sat then incr ok
  done;
  Format.printf "random 3-SAT spot check: Lemma 13 held on %d/%d instances@." !ok !checked
