(* The evaluation VM's authority suite.

   Three halves establish that [Qlang.Vm] means what it says:

   - Equivalence: for every catalogue query over seeded random databases,
     the VM engine reproduces the checked pattern plane exactly —
     structurally equal solution graphs, identical pair enumerations, equal
     Cert_k verdicts, derivation sets and certificates, and equal seeded
     Monte-Carlo estimates (the qcheck properties at the bottom).

   - Full mutation coverage: every PL114-PL119 corruption operator below
     turns healthy bytecode into a program [Analysis.Verify_pattern.verify_vm]
     rejects with the expected stable code; the memory-unsafe ones are
     additionally refused by the VM's internal sanity check before a single
     instruction executes ([iter_pairs] raises [Invalid_argument]) — a
     corrupted program can never reach an [Array.unsafe_get].

   - Fallback: a rejected licence makes the solver answer through the
     checked plane, with identical verdicts; the budgeted VM scan ticks at
     site ["vm"]. *)

module C = Relational.Compiled
module SG = Qlang.Solution_graph
module Vm = Qlang.Vm
module Verify = Analysis.Verify_pattern

let vi = Relational.Value.int
let schema = Relational.Schema.make ~name:"R" ~arity:2 ~key_len:1
let fact (a, b) = Relational.Fact.make "R" [ vi a; vi b ]

(* Sorted fact order: R(1|2) R(1|3) R(2|1) R(3|3). *)
let base_db =
  Relational.Database.of_facts [ schema ]
    (List.map fact [ (1, 2); (1, 3); (2, 1); (3, 3) ])

let q = Qlang.Parse.query_exn "R(x | y) R(y | z)"

(* The healthy pair program for [q] on [base_db] (disassembly pinned by
   [test_disassembly] below):

     0  init.a    lo=0
     1  next.a    hi=4 exit=9 tick
     2  bind.a    col=0 reg=0
     3  bind.a    col=1 reg=1
     4  init.b    lo=0
     5  next.b    hi=4 exit=1
     6  check.b   col=0 reg=1 fail=5
     7  bind.b    col=1 reg=2
     8  emit      next=5
     9  halt

   Each operator patches one cell ([field] 0 = opcode, 1-3 = x/y/z) of a
   fresh copy. *)
let mutants =
  [
    (* Register index past the register file. *)
    ("bind-reg-out-of-bounds", "PL114", true, [ (2, 2, 99) ]);
    (* Opcode outside the instruction set. *)
    ("unknown-opcode", "PL115", true, [ (7, 0, 99) ]);
    (* Loop-exit jump target outside the code. *)
    ("jump-target-out-of-bounds", "PL115", true, [ (1, 3, 50) ]);
    (* Last instruction no longer a terminator: execution would run off the
       end of the code array. *)
    ("fallthrough-off-end", "PL115", true, [ (9, 0, 7) ]);
    (* check.b now reads register 2, which no path has bound yet. Memory-safe
       (the register file is allocated), so only the semantic licence
       rejects. *)
    ("read-before-bind", "PL116", false, [ (6, 2, 2) ]);
    (* bind.b turned into const.b against an id the interner never issued.
       Memory-safe (it is only compared, never used as an index). *)
    ("const-outside-domain", "PL117", false, [ (7, 0, 6); (7, 2, 9999) ]);
    (* Outer scan extent past the fact count: ia would index past the
       column arrays. *)
    ("scan-extent-overrun", "PL118", true, [ (1, 1, 11) ]);
    (* Column index past the SoA width. *)
    ("column-out-of-bounds", "PL119", true, [ (2, 1, 7) ]);
  ]

let codes ds = List.map (fun (d : Analysis.Lint.diagnostic) -> d.Analysis.Lint.code) ds

let test_mutation_suite () =
  let plane = C.compile base_db in
  List.iter
    (fun (name, expected, unsafe, patches) ->
      let prog =
        List.fold_left
          (fun p (pc, field, v) -> Vm.Unsafe.patch p ~pc ~field ~v)
          (Vm.assemble_query plane q) patches
      in
      let got = codes (Verify.verify_vm plane prog) in
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected with %s (got: %s)" name expected
           (String.concat "," got))
        true
        (List.mem expected got);
      (* The independent gate the solver injects must refuse it too. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s refused by vm_gate" name)
        true
        (Result.is_error (Verify.vm_gate plane prog));
      if unsafe then
        (* Memory-unsafe corruption: the VM's internal licence must refuse
           to execute it even when the analysis layer is bypassed. *)
        match Vm.iter_pairs plane prog (fun _ _ -> ()) with
        | () -> Alcotest.failf "%s: the VM executed corrupted bytecode" name
        | exception Invalid_argument _ -> ())
    mutants

let test_truncated_stream () =
  let plane = C.compile base_db in
  let prog = Vm.Unsafe.with_code (Vm.assemble_query plane q) [| 0; 0; 0 |] in
  Alcotest.(check bool) "truncated code stream is PL115" true
    (List.mem "PL115" (codes (Verify.verify_vm plane prog)));
  match Vm.iter_pairs plane prog (fun _ _ -> ()) with
  | () -> Alcotest.fail "the VM executed a truncated code stream"
  | exception Invalid_argument _ -> ()

let test_healthy_program () =
  let plane = C.compile base_db in
  let prog = Vm.assemble_query plane q in
  Alcotest.(check (list string))
    "healthy pair program verifies clean" []
    (codes (Verify.verify_vm plane prog));
  Alcotest.(check bool) "vm_gate accepts" true (Verify.vm_gate plane prog = Ok ());
  let a = q.Qlang.Query.a in
  Alcotest.(check (list string))
    "healthy block program verifies clean" []
    (codes (Verify.verify_vm plane (Vm.assemble_single plane a)))

let test_disassembly () =
  let plane = C.compile base_db in
  let expected =
    String.concat "\n"
      [
        "vm pair-scan: 10 instructions, 3 registers";
        "   0  init.a    lo=0";
        "   1  next.a    hi=4 exit=9 tick";
        "   2  bind.a    col=0 reg=0";
        "   3  bind.a    col=1 reg=1";
        "   4  init.b    lo=0";
        "   5  next.b    hi=4 exit=1";
        "   6  check.b   col=0 reg=1 fail=5";
        "   7  bind.b    col=1 reg=2";
        "   8  emit      next=5";
        "   9  halt";
        "";
      ]
  in
  Alcotest.(check string)
    "disassembly is stable" expected
    (Vm.disassemble (Vm.assemble_query plane q))

(* A rejected licence must never surface to the caller: the solver answers
   through the checked plane instead, identically. *)
let test_fallback () =
  let plane = C.compile base_db in
  let reject _ _ = Error "licence rejected (test)" in
  let g_fb =
    Core.Solver.build_query_graph ~engine:Core.Solver.Engine_vm
      ~check_vm:reject q plane
  in
  Alcotest.(check bool) "rejected VM falls back to the plane graph" true
    (SG.equal g_fb (SG.of_query_compiled q plane));
  let a = q.Qlang.Query.a in
  Alcotest.(check bool) "one-atom fallback answers like the plane" true
    (Core.Solver.certain_one_atom_vm ~check_vm:reject a plane
    = Core.Solver.certain_one_atom_plane a plane)

let test_budget_site () =
  let plane = C.compile base_db in
  let budget = Harness.Budget.make () in
  ignore (Cqa.Certk.certain_plane_vm ~budget ~k:2 q plane);
  let vm_steps =
    match List.assoc_opt "vm" (Harness.Budget.steps_by_site budget) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "the VM scan ticks at site \"vm\"" true (vm_steps > 0)

(* The differential law: over every catalogue query and seeded random
   databases, the VM engine and the checked plane are indistinguishable —
   graphs, pair enumeration, verdicts, derivations, certificates, and
   seeded Monte-Carlo estimates. *)
let catalog = Array.of_list Workload.Catalog.all

let gen_case =
  QCheck2.Gen.(pair (int_range 0 99999) (int_range 0 (Array.length catalog - 1)))

let plane_of seed q =
  let rng = Random.State.make [| seed |] in
  C.compile (Workload.Randdb.random_for_query rng q ~n_facts:40 ~domain:4)

let prop_vm_differential =
  QCheck2.Test.make ~name:"VM engine = checked plane (graphs, Cert_k, MC)"
    ~count:80 gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Workload.Catalog.query in
      let plane = plane_of seed q in
      let g_p = SG.of_query_compiled q plane in
      let g_v = SG.of_query_vm q plane in
      let k = 2 in
      let sample g =
        Cqa.Montecarlo.estimate_g (Random.State.make [| seed; 99 |]) ~trials:40 g
      in
      SG.equal g_p g_v
      && Cqa.Certk.run ~k (Qlang.Solution_graph.of_query_compiled q plane) = Cqa.Certk.certain_plane_vm ~k q plane
      && Cqa.Certk.derived ~k g_p = Cqa.Certk.derived ~k g_v
      && Cqa.Certk.certificate ~k g_p = Cqa.Certk.certificate ~k g_v
      && sample g_p = sample g_v)

let prop_pairs_identical =
  QCheck2.Test.make ~name:"pairs_vm enumerates exactly pairs_compiled"
    ~count:80 gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Workload.Catalog.query in
      let plane = plane_of seed q in
      let a = q.Qlang.Query.a and b = q.Qlang.Query.b in
      Qlang.Solutions.pairs_vm a b plane = Qlang.Solutions.pairs_compiled a b plane)

let prop_block_scan =
  QCheck2.Test.make ~name:"VM block scan = plane one-atom scan" ~count:80
    gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Workload.Catalog.query in
      let plane = plane_of seed q in
      List.for_all
        (fun a ->
          Core.Solver.certain_one_atom_vm a plane
          = Core.Solver.certain_one_atom_plane a plane)
        [ q.Qlang.Query.a; q.Qlang.Query.b ])

let prop_licence_accepts =
  QCheck2.Test.make ~name:"verify_vm accepts every assembled program"
    ~count:80 gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Workload.Catalog.query in
      let plane = plane_of seed q in
      Verify.verify_vm plane (Vm.assemble_query plane q) = []
      && Verify.verify_vm plane (Vm.assemble_single plane q.Qlang.Query.a) = [])

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vm"
    [
      ( "bytecode",
        [
          Alcotest.test_case "healthy programs verify" `Quick test_healthy_program;
          Alcotest.test_case "mutation suite" `Quick test_mutation_suite;
          Alcotest.test_case "truncated stream" `Quick test_truncated_stream;
          Alcotest.test_case "disassembly stability" `Quick test_disassembly;
        ] );
      ( "engine",
        [
          Alcotest.test_case "licence rejection falls back" `Quick test_fallback;
          Alcotest.test_case "budget ticks at site vm" `Quick test_budget_site;
        ] );
      ( "properties",
        qt
          [
            prop_vm_differential;
            prop_pairs_identical;
            prop_block_scan;
            prop_licence_accepts;
          ] );
    ]
