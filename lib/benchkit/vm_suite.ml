module Solution_graph = Qlang.Solution_graph
module Vm = Qlang.Vm
module Catalog = Workload.Catalog
module Randdb = Workload.Randdb

type profile = Smoke | Default

let profile_name = function Smoke -> "smoke" | Default -> "default"

let profile_of_string = function
  | "smoke" -> Some Smoke
  | "default" -> Some Default
  | _ -> None

type spec = {
  name : string;
  query : Qlang.Query.t;
  k : int;
  db : Relational.Database.t;
  repeats : int;
}

(* Matching-heavy cases: small domains make the per-outer-row inner scan
   long (many same-relation candidates), so pair enumeration — the loop the
   VM compiles — dominates over the fixpoint. The catalogue queries cover
   the pattern shapes: q3 joins through key(B), q4 carries constants-free
   repeated variables, q5/q6 check non-key positions. *)
let specs rng profile =
  let sizes, repeats =
    match profile with
    | Smoke -> ([ 60; 120 ], 3)
    | Default -> ([ 400; 800; 1600 ], 3)
  in
  List.concat_map
    (fun (entry_name, q, k) ->
      List.map
        (fun n ->
          let db =
            Randdb.random_for_query rng q ~n_facts:n ~domain:(max 2 (n / 8))
          in
          {
            name = Printf.sprintf "%s/rand-n%d" entry_name n;
            query = q;
            k;
            db;
            repeats;
          })
        sizes)
    [
      ("q3", Catalog.q3, 2);
      ("q4", Catalog.q4, 2);
      ("q5", Catalog.q5, 2);
      ("q6", Catalog.q6, 3);
    ]

(* One case's equivalence oracle, all untimed: the VM engine must reproduce
   the checked engine {e exactly} — structurally equal solution graphs,
   identical pair enumerations, equal Cert_k verdicts, antichains and
   derivation certificates, and equal seeded Monte-Carlo estimates — and
   the assembled bytecode must pass the independent
   [Analysis.Verify_pattern] licence (the same gate [--engine vm] runs
   behind). *)
let equivalent spec plane prog g_plane g_vm =
  let a = spec.query.Qlang.Query.a and b = spec.query.Qlang.Query.b in
  let graphs_equal = Solution_graph.equal g_plane g_vm in
  let pairs_equal =
    Qlang.Solutions.pairs_compiled a b plane = Qlang.Solutions.pairs_vm a b plane
  in
  let licence_ok = Analysis.Verify_pattern.verify_vm plane prog = [] in
  let verdict_plane = Cqa.Certk.run ~k:spec.k g_plane in
  let verdict_vm = Cqa.Certk.run ~k:spec.k g_vm in
  let derived_equal =
    Cqa.Certk.derived ~k:spec.k g_plane = Cqa.Certk.derived ~k:spec.k g_vm
  in
  let certificates_equal =
    Cqa.Certk.certificate ~k:spec.k g_plane
    = Cqa.Certk.certificate ~k:spec.k g_vm
  in
  let estimates_equal =
    let sample g =
      Cqa.Montecarlo.estimate_g (Random.State.make [| 7; 0xE571 |]) ~trials:60 g
    in
    sample g_plane = sample g_vm
  in
  graphs_equal && pairs_equal && licence_ok
  && verdict_plane = verdict_vm
  && derived_equal && certificates_equal && estimates_equal

let run_case ~budget_s spec =
  (* One shared plane, compiled (and its SoA view forced) outside every
     timed region: both engines then measure pure matching over identical
     interned arrays. *)
  let compile_ms, plane =
    Measure.time_ms ~repeats:spec.repeats (fun () ->
        let p = Relational.Compiled.compile spec.db in
        ignore (Relational.Compiled.soa p);
        p)
  in
  let prog = Vm.assemble_query plane spec.query in
  let g_plane = Solution_graph.of_query_compiled spec.query plane in
  let g_vm = Solution_graph.of_vm_prog prog plane in
  (* The verdict the matching runs report: the Cert_k answer on the shared
     graph — identical for both engines by the equivalence oracle, so the
     cross-run agreement check stays meaningful. *)
  let verdict = Cqa.Certk.run ~k:spec.k g_plane in
  let time algorithm f =
    let o = Measure.sample ~budget_s ~stabilize:true ~repeats:spec.repeats f in
    {
      Report.algorithm;
      status = (if o.Measure.timed_out then "timeout" else "ok");
      median_ms = o.Measure.median_ms;
      repeats = o.Measure.repeats;
      certain = o.Measure.verdict;
      steps = o.Measure.steps;
      sites = o.Measure.sites;
    }
  in
  let runs =
    [
      (* The matching pair: full solution-graph construction (scan +
         adjacency) through each engine. Their ratio is [vm_speedup]. *)
      time "match-plane" (fun _budget ->
          ignore (Solution_graph.of_query_compiled spec.query plane);
          verdict);
      time "match-vm" (fun _budget ->
          ignore (Solution_graph.of_vm_prog prog plane);
          verdict);
      (* The end-to-end pair under a real budget: graph build + Cert_k
         fixpoint down each engine's entry point. [certk-vm] ticks at site
         ["vm"] during the scan — visible in its site breakdown. *)
      time "certk-plane" (fun budget ->
          Cqa.Certk.run ~budget ~k:spec.k
            (Solution_graph.of_query_compiled spec.query plane));
      time "certk-vm" (fun budget ->
          Cqa.Certk.certain_plane_vm ~budget ~k:spec.k spec.query plane);
    ]
  in
  let find alg = List.find_opt (fun r -> r.Report.algorithm = alg) runs in
  let vm_speedup =
    match (find "match-plane", find "match-vm") with
    | Some s, Some f
      when s.Report.status = "ok" && f.Report.status = "ok"
           && f.Report.median_ms > 0. ->
        Some (s.Report.median_ms /. f.Report.median_ms)
    | _ -> None
  in
  {
    Report.name = spec.name;
    query = Qlang.Query.to_string spec.query;
    k = spec.k;
    n_facts = Solution_graph.n_facts g_plane;
    n_blocks = Solution_graph.n_blocks g_plane;
    budget_s;
    compile_ms = Some compile_ms;
    runs;
    speedup_vs_rounds = None;
    speedup_e2e = None;
    plane_equivalent = None;
    delta_us = None;
    delta_speedup = None;
    delta_equivalent = None;
    obs_overhead_pct = None;
    vm_speedup;
    vm_equivalent = Some (equivalent spec plane prog g_plane g_vm);
  }

let case_agrees (c : Report.case) =
  let verdicts =
    List.filter_map (fun r -> r.Report.certain) c.Report.runs
  in
  match verdicts with [] -> true | v :: vs -> List.for_all (( = ) v) vs

let geomean = function
  | [] -> None
  | xs ->
      let logs = List.fold_left (fun acc x -> acc +. log x) 0. xs in
      Some (exp (logs /. float_of_int (List.length xs)))

let run ~profile ~seed ~budget_s () =
  let rng = Random.State.make [| seed |] in
  let cases = List.map (run_case ~budget_s) (specs rng profile) in
  {
    Report.suite = "vm-speedup";
    profile = profile_name profile;
    seed;
    cases;
    agreement = List.for_all case_agrees cases;
    plane_equivalence = None;
    geomean_speedup = None;
    geomean_e2e = None;
    delta_equivalence = None;
    geomean_delta = None;
    obs_overhead_pct = None;
    obs_bar_pct = None;
    obs_within_bar = None;
    vm_equivalence =
      Some (List.for_all (fun c -> c.Report.vm_equivalent <> Some false) cases);
    geomean_vm = geomean (List.filter_map (fun c -> c.Report.vm_speedup) cases);
  }
