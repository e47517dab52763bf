(* Benchmark and experiment harness.

   The paper has no numeric tables or figures (it is a pure theory paper),
   so the "evaluation" this harness regenerates is the experiment index of
   DESIGN.md / EXPERIMENTS.md: one section per paper claim (E1-E15),
   printing the same verification rows every run, followed by the S1-S4
   parameter sweeps and microbenchmarks of every computational component.
   The acceptance gates of the engine, governor, telemetry, supervision,
   columnar, snapshot, journal, tracing and fleet layers run in their own
   mode, each at the workload size and bound it was accepted with.  All
   timing goes through one estimator, [Paired].

   Run with: dune exec bench/main.exe              (experiments, sweeps, micro)
             dune exec bench/main.exe -- quick     (experiments only; exit 1 on
                                                    a mismatch; part of runtest)
             dune exec bench/main.exe -- gates     (timing gates; exit 1 if one
                                                    fails; dune build @bench)
             dune exec bench/main.exe -- smoke-pr6 (downsized columnar CI gate) *)

open Finite_queries

let parse = Parser.formula_exn
let s = Value.str
let vi = Value.int

let section title = Format.printf "@.== %s ==@." title
let row fmt = Format.printf ("  " ^^ fmt ^^ "@.")

let mismatches = ref []

let check label expected actual =
  if expected <> actual then mismatches := label :: !mismatches;
  row "%-58s expected=%-9s observed=%-9s %s" label expected actual
    (if expected = actual then "OK" else "** MISMATCH **")

let bool_s b = string_of_bool b

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let eq_domain : Domain.t = (module Eq_domain)
let presburger : Domain.t = (module Presburger)
let succ_domain : Domain.t = (module Nat_succ)

let family_schema = Schema.make [ ("F", 2) ]

let family_state =
  State.make ~schema:family_schema
    [ ( "F",
        Relation.make ~arity:2
          [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ];
            [ s "enoch"; s "irad" ] ] ) ]

let m_query = parse "exists y z. y != z /\\ F(x, y) /\\ F(x, z)"
let g_query = parse "exists y. F(x, y) /\\ F(y, z)"
let unsafe_union = Formula.Or (m_query, g_query)

let nat_schema = Schema.make [ ("R", 1) ]
let nat_state = State.make ~schema:nat_schema [ ("R", Relation.make ~arity:1 [ [ vi 2 ]; [ vi 5 ] ]) ]

let scan = Encode.encode Zoo.scan_right
let looper = Encode.encode Zoo.loop

(* ------------------------------------------------------------------ *)
(* Experiments E1-E13                                                  *)
(* ------------------------------------------------------------------ *)

let finite_eq state f =
  match Relative_safety.via_active_domain ~state f with
  | Ok b -> bool_s b
  | Error e -> "err:" ^ e

let e1 () =
  section "E1 (Sec. 1): the intro's queries over the father/son database";
  (match Enumerate.run ~domain:eq_domain ~state:family_state m_query with
  | Ok (Enumerate.Finite r) ->
    check "M(x) answer cardinality" "1" (string_of_int (Relation.cardinal r))
  | _ -> check "M(x) answer cardinality" "1" "failed");
  (match Enumerate.run ~domain:eq_domain ~state:family_state g_query with
  | Ok (Enumerate.Finite r) ->
    check "G(x,z) answer cardinality" "2" (string_of_int (Relation.cardinal r))
  | _ -> check "G(x,z) answer cardinality" "2" "failed");
  check "M finite in state" "true" (finite_eq family_state m_query);
  check "M \\/ G infinite in state (footnote 4)" "false" (finite_eq family_state unsafe_union);
  let single =
    State.make ~schema:family_schema
      [ ("F", Relation.make ~arity:2 [ [ s "a"; s "b" ]; [ s "b"; s "c" ] ]) ]
  in
  check "M \\/ G finite when every father has one son" "true" (finite_eq single unsafe_union)

let e2 () =
  section "E2 (Sec. 1.1): enumeration evaluator = compiled algebra on safe queries";
  List.iter
    (fun (label, f) ->
      let a =
        match Algebra_translate.run ~domain:eq_domain ~state:family_state f with
        | Ok r -> r
        | Error e -> failwith e
      in
      let b =
        match Enumerate.run ~domain:eq_domain ~state:family_state f with
        | Ok (Enumerate.Finite r) -> r
        | _ -> failwith "enumeration failed"
      in
      check (label ^ ": answers agree") "true" (bool_s (Relation.equal a b)))
    [ ("M(x)", m_query); ("G(x,z)", g_query); ("F minus converse", parse "F(x, y) /\\ ~F(y, x)") ]

let e3 () =
  section "E3 (Fact 2.1): a finite, non-domain-independent query over N_<";
  let lub =
    parse "(forall y. R(y) -> y < x) /\\ (forall z. (forall y. R(y) -> y < z) -> x <= z)"
  in
  let natural =
    match Enumerate.run ~domain:presburger ~state:nat_state lub with
    | Ok (Enumerate.Finite r) -> Format.asprintf "%a" Relation.pp r
    | _ -> "failed"
  in
  check "natural answer (outside the active domain)" "{(6)}" natural;
  let active =
    match Algebra_translate.run ~domain:presburger ~state:nat_state lub with
    | Ok r -> Format.asprintf "%a" Relation.pp r
    | Error e -> "err:" ^ e
  in
  check "active-domain answer differs" "{}" active

let e4_e5 () =
  section "E4/E5 (Thms 2.2/2.5): finitization as syntax and as safety test";
  let unsafe = parse "exists y. R(y) /\\ y < x" in
  let fin = Finitization.finitize unsafe in
  check "finitization is recognized" "true" (bool_s (Finitization.is_finitization fin));
  let finite_p f =
    match
      Relative_safety.via_finitization ~domain:presburger ~decide:Presburger.decide
        ~state:nat_state f
    with
    | Ok b -> bool_s b
    | Error e -> "err:" ^ e
  in
  check "unsafe query infinite" "false" (finite_p unsafe);
  check "its finitization finite" "true" (finite_p fin);
  check "R(x) finite" "true" (finite_p (parse "R(x)"));
  check "~R(x) infinite" "false" (finite_p (parse "~R(x)"))

let e6 () =
  section "E6 (Thms 2.6/2.7): the successor domain N'";
  let fin f =
    match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state (parse f) with
    | Ok b -> bool_s b
    | Error e -> "err:" ^ e
  in
  check "R(x)" "true" (fin "R(x)");
  check "~R(x)" "false" (fin "~R(x)");
  check "successors of R" "true" (fin "exists y. R(y) /\\ x = y'");
  check "x != 3" "false" (fin "x != 3");
  let restricted = Ext_active.restrict ~schema:[ ("R", 1) ] (parse "x != 3") in
  match Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state restricted with
  | Ok b -> check "Thm 2.7 restriction of x != 3 is finite" "true" (bool_s b)
  | Error e -> check "Thm 2.7 restriction of x != 3 is finite" "true" ("err:" ^ e)

let e7 () =
  section "E7 (Cors 2.3/2.4): arithmetic and the extension combinator";
  (match Arithmetic.decide (parse "exists x y. x * y = y * x /\\ x != y") with
  | Error _ -> check "nonlinear arithmetic refused (undecidable)" "refused" "refused"
  | Ok _ -> check "nonlinear arithmetic refused (undecidable)" "refused" "decided");
  check "arithmetic finitization still syntactic" "true"
    (bool_s (Finitization.is_finitization (Finitization.finitize (parse "exists y. x = y * y"))));
  let module E = Extension.Make (Eq_domain) in
  (match E.decide (parse "forall x. exists y. x < y") with
  | Ok b -> check "extension decides pure order sentences" "true" (bool_s b)
  | Error e -> check "extension decides pure order sentences" "true" ("err:" ^ e));
  match E.decide (parse "exists x y. x < y /\\ x = \"a\"") with
  | Error _ -> check "mixed sentences refused (Cor 3.2 caveat)" "refused" "refused"
  | Ok _ -> check "mixed sentences refused (Cor 3.2 caveat)" "refused" "decided"

let e8 () =
  section "E8 (Sec. 3): the trace predicate P and the word classes";
  let p = Option.get (Trace.trace_word ~machine:scan ~input:"11" ~k:2) in
  check "generated trace satisfies P" "true" (bool_s (Trace.p_pred scan "11" p));
  check "perturbed trace fails P" "false" (bool_s (Trace.p_pred scan "11" (p ^ "1")));
  let counts = Hashtbl.create 4 in
  Word.enumerate () |> Seq.take 2000
  |> Seq.iter (fun w ->
         let c = Classify.to_string (Classify.classify w) in
         Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)));
  row "word classes in the first 2000 words: machine=%d input=%d trace=%d other=%d"
    (Option.value ~default:0 (Hashtbl.find_opt counts "machine"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "input"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "trace"))
    (Option.value ~default:0 (Hashtbl.find_opt counts "other"))

let e9 () =
  section "E9 (Lemma A.2): builder vs the paper's explicit criterion";
  let words = [ "111"; "11-"; "1-1"; "-11" ] in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun v ->
      List.iter
        (fun u ->
          List.iter
            (fun i ->
              List.iter
                (fun j ->
                  incr total;
                  let paper = Builder.paper_criterion ~d:[ (v, i) ] ~e:[ (u, j) ] in
                  let builder =
                    Builder.satisfiable [ Builder.At_least (v, i); Builder.Exactly (u, j) ]
                  in
                  if paper = builder then incr agree)
                [ 1; 2; 3 ])
            [ 1; 2; 3 ])
        words)
    words;
  check "criterion = construction on all small instances" (string_of_int !total)
    (string_of_int !agree)

let e10 () =
  section "E10 (Thm A.3 / Cor A.4): the Reach-theory decision procedure";
  let decide label sentence expected =
    match Traces.decide (parse sentence) with
    | Ok b -> check label (bool_s expected) (bool_s b)
    | Error e -> check label (bool_s expected) ("err:" ^ e)
  in
  decide "exists p. P(scan, 11, p)"
    (Printf.sprintf "exists p. P(\"%s\", \"11\", p)" scan)
    true;
  decide "scan has at most 3 traces on 11"
    (Printf.sprintf
       "forall p1 p2 p3 p4. P(\"%s\", \"11\", p1) /\\ P(\"%s\", \"11\", p2) /\\ P(\"%s\", \"11\", p3) /\\ P(\"%s\", \"11\", p4) -> p1 = p2 \\/ p1 = p3 \\/ p1 = p4 \\/ p2 = p3 \\/ p2 = p4 \\/ p3 = p4"
       scan scan scan scan)
    true;
  decide "the looper exceeds any bound"
    (Printf.sprintf
       "forall p1 p2 p3. P(\"%s\", \"\", p1) /\\ P(\"%s\", \"\", p2) /\\ P(\"%s\", \"\", p3) -> p1 = p2 \\/ p1 = p3 \\/ p2 = p3"
       looper looper looper)
    false;
  decide "a trace determines its machine"
    "exists m n w p. P(m, w, p) /\\ P(n, w, p) /\\ m != n" false

let e11 () =
  section "E11 (Thm 3.1): the diagonalization defeats candidate syntaxes";
  let manual name formulas =
    { Syntax_class.name; description = name;
      accepts = (fun f -> List.exists (Formula.equal f) formulas);
      enumerate = (fun () -> List.to_seq formulas) }
  in
  (match Diagonal.defeat ~syntax:(manual "sound" [ Diagonal.totality_query scan ]) ~budget:4 with
  | Ok (Diagonal.Missed_finite_query _) ->
    check "sound candidate misses a finite query" "missed" "missed"
  | Ok (Diagonal.Admits_unsafe _) ->
    check "sound candidate misses a finite query" "missed" "unsafe"
  | Error e -> check "sound candidate misses a finite query" "missed" ("err:" ^ e));
  match
    Diagonal.defeat
      ~syntax:(manual "unsound" [ Diagonal.totality_query scan; Diagonal.totality_query looper ])
      ~budget:4
  with
  | Ok (Diagonal.Admits_unsafe _) ->
    check "covering candidate admits an unsafe formula" "unsafe" "unsafe"
  | Ok (Diagonal.Missed_finite_query _) ->
    check "covering candidate admits an unsafe formula" "unsafe" "missed"
  | Error e -> check "covering candidate admits an unsafe formula" "unsafe" ("err:" ^ e)

let e12 () =
  section "E12 (Thm 3.3): halting as relative safety over T";
  (match Halting_reduction.check ~fuel:500 ~machine:scan ~input:"11" () with
  | Ok (Halting_reduction.Halts { steps = _; answer }) ->
    check "scan on 11: certified finite answer tuples" "3"
      (string_of_int (Relation.cardinal answer))
  | _ -> check "scan on 11: certified finite answer tuples" "3" "failed");
  match Halting_reduction.check ~fuel:500 ~machine:looper ~input:"1" () with
  | Ok (Halting_reduction.Diverges_beyond { trace_count }) ->
    check "loop on 1: tuples reach the fuel bound" "500" (string_of_int trace_count)
  | _ -> check "loop on 1: tuples reach the fuel bound" "500" "failed"

let e13 () =
  section "E13 (Sec. 1.2): finitely representable relations; finiteness decidable";
  let q = Rat.of_int in
  let interval =
    Crel.make ~columns:[ "x" ]
      [ [ { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "x" };
          { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = C (q 1) } ] ]
  in
  check "open interval infinite" "false" (bool_s (Crel.is_finite interval));
  check "membership of 1/2" "true" (bool_s (Crel.mem interval [ Rat.of_ints 1 2 ]));
  let pts = Crel.of_points ~columns:[ "x" ] [ [ q 1 ]; [ q 2 ] ] in
  check "point set finite" "true" (bool_s (Crel.is_finite pts));
  check "complement closed" "true" (bool_s (Crel.mem (Crel.complement interval) [ q 5 ]));
  let proj =
    Crel.project ~keep:[ "x" ]
      (Crel.make ~columns:[ "x"; "y" ]
         [ [ { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = Crel.V "y" };
             { Crel.lhs = Crel.V "y"; op = Crel.Lt; rhs = C (q 0) } ] ])
  in
  check "projection by dense-order QE" "true" (bool_s (Crel.mem proj [ q (-10) ]))

let e14 () =
  section "E14 (KKR90): FO queries over constraint databases evaluate to Crel";
  let q = Rat.of_int in
  let db : Ceval.db =
    [ ( "I",
        Crel.make ~columns:[ "a" ]
          [ [ { Crel.lhs = C (q 0); op = Crel.Le; rhs = Crel.V "a" };
              { Crel.lhs = Crel.V "a"; op = Crel.Le; rhs = C (q 10) } ] ] ) ]
  in
  (match Ceval.decide ~db (parse "forall x y. x < y -> exists z. x < z /\\ z < y") with
  | Ok b -> check "density decided through Crel" "true" (bool_s b)
  | Error e -> check "density decided through Crel" "true" ("err:" ^ e));
  match Ceval.query ~db (parse "I(x) /\\ ~(x < \"5\")") with
  | Ok r ->
    check "closure: answer is a Crel; finiteness decidable" "false"
      (bool_s (Crel.is_finite r))
  | Error e -> check "closure: answer is a Crel; finiteness decidable" "false" ("err:" ^ e)

let e15 () =
  section "E15 (RANF): adom-free compilation agrees and shrinks plans";
  let schema2 = Schema.make [ ("F", 2); ("S", 1) ] in
  let st =
    State.make ~schema:schema2
      [ ( "F",
          Relation.make ~arity:2
            [ [ s "adam"; s "cain" ]; [ s "adam"; s "abel" ]; [ s "cain"; s "enoch" ] ] );
        ("S", Relation.make ~arity:1 [ [ s "cain" ] ]) ]
  in
  let f = parse "exists y. F(x, y) /\\ ~S(y)" in
  match
    (Ranf.run ~domain:eq_domain ~state:st f, Algebra_translate.run ~domain:eq_domain ~state:st f)
  with
  | Ok a, Ok b ->
    check "ranf = adom algebra" "true" (bool_s (Relation.equal a b));
    let lit_weight compile =
      match compile with
      | Error _ -> -1
      | Ok { Algebra_translate.plan; _ } ->
        let rec go = function
          | Relalg.Lit r -> Relation.cardinal r
          | Relalg.Rel _ -> 0
          | Relalg.Select (_, p) | Relalg.Project (_, p) -> go p
          | Relalg.Product (p, q)
          | Relalg.Join (_, p, q)
          | Relalg.Union (p, q)
          | Relalg.Diff (p, q) -> go p + go q
        in
        go plan
    in
    let ranf_w = lit_weight (Ranf.compile ~domain:eq_domain ~state:st f) in
    let adom_w = lit_weight (Algebra_translate.compile ~domain:eq_domain ~state:st f) in
    row "embedded literal tuples: ranf=%d adom=%d (ranf avoids the active domain)" ranf_w
      adom_w;
    check "ranf embeds no adom literal" "0" (string_of_int ranf_w)
  | Error e, _ | _, Error e -> check "ranf = adom algebra" "true" ("err:" ^ e)

let experiments () =
  e1 (); e2 (); e3 (); e4_e5 (); e6 (); e7 (); e8 (); e9 (); e10 (); e11 (); e12 (); e13 ();
  e14 (); e15 ()

(* ------------------------------------------------------------------ *)
(* Parameter sweeps - the "figures"                                    *)
(* ------------------------------------------------------------------ *)

let repeat = Paired.repeat
let one_arm_us ~rounds f = (Paired.run ~rounds [| repeat f |]).Paired.us.(0)

let chain_state n =
  (* a path graph: F = { (p_i, p_{i+1}) } *)
  let name i = s (Printf.sprintf "p%d" i) in
  State.make ~schema:family_schema
    [ ("F", Relation.make ~arity:2 (List.init n (fun i -> [ name i; name (i + 1) ]))) ]

let sweep_evaluators () =
  section "S1 (figure): evaluator time vs database size - G(x,z) on a path of n edges";
  row "%6s %14s %14s %14s" "n" "enumerate(us)" "adom(us)" "ranf(us)";
  List.iter
    (fun n ->
      let st = chain_state n in
      let enum () =
        Enumerate.run ~fuel:200_000 ~max_certified:(2 * n) ~domain:eq_domain ~state:st g_query
      in
      let adom () = Algebra_translate.run ~domain:eq_domain ~state:st g_query in
      let ranf () = Ranf.run ~domain:eq_domain ~state:st g_query in
      let us = (Paired.run ~rounds:3 [| repeat enum; repeat adom; repeat ranf |]).Paired.us in
      row "%6d %14.0f %14.0f %14.0f" n us.(0) us.(1) us.(2))
    [ 2; 4; 8 ]

let sweep_cooper () =
  section "S2 (figure): Cooper QE time vs quantifier depth";
  row "%6s %14s %10s" "depth" "time(us)" "atoms";
  List.iter
    (fun q ->
      let vars = List.init q (fun i -> Printf.sprintf "v%d" i) in
      let chain =
        let rec atoms = function
          | a :: (b :: _ as rest) ->
            Formula.Atom ("<", [ Term.Var a; Term.Var b ]) :: atoms rest
          | _ -> []
        in
        Formula.conj
          (Formula.Atom ("<", [ Term.Const "0"; Term.Var (List.hd vars) ]) :: atoms vars)
      in
      let sentence =
        List.fold_right
          (fun (i, v) acc ->
            if i mod 2 = 1 then Formula.Forall (v, Formula.Imp (chain, acc))
            else Formula.Exists (v, Formula.And (chain, acc)))
          (List.mapi (fun i v -> (i, v)) vars)
          (Formula.Exists ("w", Formula.Atom ("<", [ Term.Var (List.hd vars); Term.Var "w" ])))
      in
      let atoms =
        match Cooper.qe sentence with Ok qf -> Cooper.atom_count qf | Error _ -> -1
      in
      row "%6d %14.0f %10d" q (one_arm_us ~rounds:3 (fun () -> Cooper.decide sentence)) atoms)
    [ 1; 2; 3; 4 ]

let sweep_tm () =
  section "S3 (figure): TM simulation time vs input length (scan_right on 1^n)";
  row "%6s %14s %8s" "n" "time(us)" "steps";
  List.iter
    (fun n ->
      let input = String.make n '1' in
      let steps =
        match Run.run ~fuel:(n + 10) Zoo.scan_right input with
        | Run.Halted { steps; _ } -> steps
        | Run.Out_of_fuel -> -1
      in
      row "%6d %14.1f %8d" n
        (one_arm_us ~rounds:3 (fun () -> Run.run ~fuel:(n + 10) Zoo.scan_right input))
        steps)
    [ 16; 64; 256; 1024 ]

let sweep_reach () =
  section "S4 (figure): Reach-QE time vs excluded traces (Thm 3.3 completeness checks)";
  row "%6s %14s" "k" "time(us)";
  let all_traces = List.of_seq (Seq.take 8 (Trace.traces ~machine:looper ~input:"1")) in
  List.iter
    (fun k ->
      let excluded = List.filteri (fun i _ -> i < k) all_traces in
      let sentence =
        Reach.Exists
          ( "p",
            Reach.conj
              (Reach.p_formula (Base (Const looper)) (Base (Const "1")) (Base (Var "p"))
              :: List.map
                   (fun t ->
                     Reach.Not (Reach.Atom (Reach.Eq (Base (Var "p"), Base (Const t)))))
                   excluded) )
      in
      row "%6d %14.0f" k (one_arm_us ~rounds:3 (fun () -> Reach_qe.decide sentence)))
    [ 0; 2; 4; 6; 8 ]

let sweeps () =
  sweep_evaluators ();
  sweep_cooper ();
  sweep_tm ();
  sweep_reach ()

(* ------------------------------------------------------------------ *)
(* Gate fixtures                                                       *)
(* ------------------------------------------------------------------ *)

(* Three binary relations chained on their middle columns:
   R = {(i, i+1)}, S = {(i+1, i+2)}, T = {(i+2, i+3)} for i < n.
   The naive plan executes the equijoins the way the seed engine did —
   materialize the cartesian product, then filter; the optimizer rewrites
   the same plan into two hash joins. *)
let join_schema = Schema.make [ ("R", 2); ("S", 2); ("T", 2) ]

let join_state n =
  let mk off =
    Relation.make ~arity:2 (List.init n (fun i -> [ vi (i + off); vi (i + off + 1) ]))
  in
  State.make ~schema:join_schema [ ("R", mk 0); ("S", mk 1); ("T", mk 2) ]

let naive_join_plan =
  Relalg.(
    Select
      ( Eq (Col 3, Col 4),
        Product (Select (Eq (Col 1, Col 2), Product (Rel "R", Rel "S")), Rel "T") ))

(* A governed run carries every dimension the CLI would install: generous
   fuel plus a far-away deadline (the deadline forces the periodic wall
   clock poll, the part of the governor that costs anything). *)
let full_budget () = Budget.make ~fuel:1_000_000_000 ~timeout_ms:600_000 ()

(* The completing hot paths the governor, telemetry and supervision gates
   share, so their overheads compose.  [run ~budget] is the governed
   variant of the same work.  Built once: warming the enumeration's
   decide cache takes seconds. *)
type hot_path = { path : string; run : ?budget:Budget.t -> unit -> unit }

let hot_paths =
  lazy
    (let st = join_state 1000 in
     let plan = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
     let stc = chain_state 12 in
     let cache = Decide_cache.create () in
     let enum ?budget () =
       match budget with
       | None ->
         ignore
           (Enumerate.run ~fuel:200_000 ~max_certified:24 ~cache ~domain:eq_domain ~state:stc
              g_query)
       | Some budget ->
         ignore
           (Enumerate.run_budgeted ~max_certified:24 ~cache ~budget ~domain:eq_domain
              ~state:stc g_query)
     in
     enum ();
     let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
     [ { path = "chain_join_n1000";
         run = (fun ?budget () -> ignore (Relalg.eval ~state:st ?budget plan)) };
       { path = "enumerate_warm_cache"; run = enum };
       { path = "cooper_qe";
         run = (fun ?budget () -> ignore (Cooper.decide ?budget cooper_sentence)) }
     ])

let bench_policy = { Supervisor.default_policy with Supervisor.sleep = (fun _ -> ()) }

let supervised f () =
  let r = Supervisor.supervise ~policy:bench_policy ~name:"bench" (fun _ -> f ()) in
  match r.Supervisor.outcome with
  | Supervisor.Value v -> v
  | Supervisor.Crashed c -> failwith c.Supervisor.reason

(* The batch query set evaluated through the supervised 4-way worker pool
   (shared decide cache, one supervise envelope per job, as
   [fq batch --jobs 4] does) must agree tuple for tuple with plain
   sequential evaluation. *)
let batch_agreement () =
  let order_domain : Domain.t = (module Nat_order) in
  let specs =
    [| (eq_domain, family_state, m_query);
       (eq_domain, family_state, parse "exists y. F(x, y)");
       (eq_domain, family_state, parse "F(\"adam\", x)");
       (order_domain, nat_state, parse "exists y. R(y) /\\ x < y");
       (presburger, nat_state, parse "exists y. R(y) /\\ x + x = y + 1") |]
  in
  let eval cache (d, st, q) =
    match Enumerate.run ~fuel:500_000 ?cache ~domain:d ~state:st q with
    | Ok (Enumerate.Finite r) -> Some r
    | _ -> None
  in
  let seq = Array.map (eval None) specs in
  let cache = Decide_cache.create () in
  let par =
    Supervisor.parallel_map ~jobs:4
      (fun spec -> supervised (fun () -> eval (Some cache) spec) ())
      specs
  in
  Array.for_all2
    (fun a b ->
      match (a, b) with
      | Some r1, Some r2 -> Relation.equal r1 r2
      | None, None -> true
      | _ -> false)
    seq par

(* The columnar workloads bracket the engine on join-heavy shapes whose
   intermediates dwarf their answers — where execution cost lives in the
   operator inner loops rather than in materializing the (identical)
   final relation.  Both engines run identical optimized plans; the row
   engine stays selectable precisely so these gates keep an honest
   baseline. *)
let with_engine e f =
  let old = !Relalg.default_engine in
  Relalg.default_engine := e;
  Fun.protect ~finally:(fun () -> Relalg.default_engine := old) f

(* R fans into [hubs] hub values, S connects each hub to its [fan]
   successors, T closes the loop; the chain R |x| S |x| T therefore has
   n*fan intermediate tuples but only hubs*fan distinct hub pairs, over
   Int (bigint) keys. *)
let hub_join_state ~n ~fan =
  let hubs = max 4 (n / 20) in
  let r = List.init n (fun i -> [ vi i; vi (i mod hubs) ]) in
  let s =
    List.concat_map
      (fun h -> List.init fan (fun r -> [ vi h; vi ((h + r) mod hubs) ]))
      (List.init hubs (fun h -> h))
  in
  let t = List.init hubs (fun h -> [ vi h; vi h ]) in
  State.make ~schema:join_schema
    [ ("R", Relation.make ~arity:2 r);
      ("S", Relation.make ~arity:2 s);
      ("T", Relation.make ~arity:2 t) ]

let hub_join_plan =
  Optimizer.optimize_for ~schema:join_schema
    Relalg.(
      Project ([ 1; 5 ], Join ([ (3, 0) ], Join ([ (1, 0) ], Rel "R", Rel "S"), Rel "T")))

(* a graph on [n] string vertices where each vertex reaches its [fan]
   successors: G(x,z) has ~n*fan^2 join candidates, ~n*2*fan answers.
   Vertices carry URI-style labels, the shape of real graph data: the
   row engine re-hashes and re-compares them at every probe and dedup,
   while the columnar engine hashes each label once into the dictionary
   and joins on codes. *)
let dense_chain_state ~n ~fan =
  let v i = s (Printf.sprintf "http://example.org/vertex/%06d" (i mod n)) in
  let edges =
    List.concat_map
      (fun i -> List.init fan (fun r -> [ v i; v (i + r + 1) ]))
      (List.init n (fun i -> i))
  in
  State.make ~schema:family_schema [ ("F", Relation.make ~arity:2 edges) ]

(* QE-heavy Presburger sentences: each costs a full quantifier
   elimination cold and a hash lookup warm. *)
let serve_qe_sentences =
  List.map parse
    [ "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1";
      "forall x y. x < y -> exists z. x < z /\\ z <= y";
      "forall x. exists y. x < y /\\ exists z. y < z /\\ z = 2 * y";
      "forall x. exists y z. x < y /\\ y < z /\\ z = x + 3";
      "exists x. forall y. x < y \\/ x = y \\/ y < x";
      "forall x y z. x < y /\\ y < z -> x < z";
      "forall x. exists y. y = 3 * x + 1 /\\ x < y";
      "forall x y. exists z. x + y < z /\\ z = 2 * x + 2 * y + 1" ]

(* four QE shapes, parametrized to distinct sentences *)
let journal_fill_sentences n =
  List.init n (fun i ->
      let k = (i / 4) + 2 in
      match i mod 4 with
      | 0 -> Printf.sprintf "forall x. exists y. x < y /\\ y < x + %d" k
      | 1 -> Printf.sprintf "forall x. exists y. y = %d * x + 1 /\\ x < y" k
      | 2 -> Printf.sprintf "forall x y. x < y -> exists z. x < z /\\ z < y + %d" k
      | _ -> Printf.sprintf "exists x. forall y. x < y \\/ x = y \\/ y < x + %d" k)
  |> List.map parse

let or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* The one way the bench boots a server: [boot addr] runs in a forked
   child.  This process must have no threads and no domains yet — a fork
   inherits every lock another thread holds (a worker forked while a
   bench thread held a channel lock died at GC with mutex_free: EBUSY),
   and OCaml 5 refuses to fork once a domain exists.  Servers are
   therefore always forked, never run in-process, and before any gate
   that spawns a domain. *)
let with_server boot k =
  let sock = Filename.temp_file "fq_bench" ".sock" in
  Sys.remove sock;
  let addr = Server.Unix_path sock in
  Format.print_flush ();
  let pid = Unix.fork () in
  if pid = 0 then Unix._exit (match boot addr with Ok c -> c | Error _ -> 3);
  match k addr with
  | exception e ->
    Unix.kill pid Sys.sigterm;
    ignore (Unix.waitpid [] pid);
    raise e
  | r ->
    let c = or_fail "bench: shutdown connect" (Client.connect ~retries:50 ~delay_ms:25 addr) in
    ignore (or_fail "bench: shutdown" (Client.request c (Protocol.Shutdown { id = "bye" })));
    Client.close c;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> r
    | _ -> failwith "bench: server exited abnormally")

let serve_config addr =
  { (Server.default_config ~state:family_state addr) with
    Server.jobs = 2;
    log = (fun _ -> ()) }

let with_client addr k =
  let c = or_fail "bench: connect" (Client.connect ~retries:200 ~delay_ms:25 addr) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> k c)

(* the arm: [reps] sequential trivial eval requests on one connection *)
let eval_requests client reps =
  for i = 1 to reps do
    match
      Client.request client
        (Protocol.Eval
           { id = string_of_int i; domain = None; formula = "exists y. F(x, y)"; fuel = None;
             timeout_ms = None; resume = None; trace = None })
    with
    | Ok (_, Protocol.R_outcome _) -> ()
    | Ok _ -> failwith "bench: unexpected reply"
    | Error e -> failwith ("bench: " ^ e)
  done

(* ------------------------------------------------------------------ *)
(* Gates (-- gates)                                                    *)
(* ------------------------------------------------------------------ *)

type bound = At_least of float | Above of float | Below of float | At_most of float

type gate = {
  id : string;
  value : float * float * float;  (** 25th, 50th, 75th percentile over rounds *)
  unit_s : string;
  bound : bound;
  holds : (string * bool) list;  (** correctness conditions gated alongside *)
  note : string;  (** workload size, per-arm times, ungated arms *)
}

let gate_passes g =
  let _, m, _ = g.value in
  List.for_all snd g.holds
  &&
  match g.bound with
  | At_least b -> m >= b
  | Above b -> m > b
  | Below b -> m < b
  | At_most b -> m <= b

let print_gate g =
  let q1, m, q3 = g.value in
  let bound =
    match g.bound with
    | At_least b -> Printf.sprintf ">= %g" b
    | Above b -> Printf.sprintf "> %g" b
    | Below b -> Printf.sprintf "< %g" b
    | At_most b -> Printf.sprintf "<= %g" b
  in
  let holds = List.map (fun (k, v) -> k ^ if v then ":ok" else ":FAILED") g.holds in
  row "%-34s %9.2f%-1s [%8.2f, %8.2f] %-6s %s  %s" g.id m g.unit_s q1 q3 bound
    (if gate_passes g then "PASS" else "FAIL")
    (String.concat " " (holds @ [ g.note ]))

(* arm [i] against arm 0, as a speedup (arm 0 is the slow baseline) or as
   an overhead in percent (arm 0 is the plain path) *)
let speedup (t : Paired.t) i =
  let q1, m, q3 = t.Paired.ratio.(i) in
  (1. /. q3, 1. /. m, 1. /. q1)

let overhead_pct (t : Paired.t) i =
  let q1, m, q3 = t.Paired.ratio.(i) in
  (100. *. (q1 -. 1.), 100. *. (m -. 1.), 100. *. (q3 -. 1.))

let arm_us names (t : Paired.t) =
  String.concat " " (List.mapi (fun i n -> Printf.sprintf "%s=%.1fus" n t.Paired.us.(i)) names)

let hashjoin_gate () =
  let st = join_state 1000 in
  let optimized = Optimizer.optimize_for ~schema:join_schema naive_join_plan in
  let naive () = Relalg.eval ~state:st naive_join_plan in
  let hashjoin () = Relalg.eval ~state:st optimized in
  let agree = Relation.equal (naive ()) (hashjoin ()) in
  let t = Paired.run ~rounds:3 [| repeat naive; repeat hashjoin |] in
  { id = "hashjoin.speedup_n1000"; value = speedup t 1; unit_s = "x"; bound = At_least 5.;
    holds = [ ("agree", agree) ]; note = arm_us [ "naive"; "hashjoin" ] t }

(* G(x,z) on a path of 12 edges: the enumeration re-decides the candidate
   sentence for every active-domain value, so a warm shared cache turns
   every decide into a hash lookup.  An uncached run takes seconds, hence
   one round. *)
let decide_cache_gate () =
  let st = chain_state 12 in
  let run ?cache () =
    Enumerate.run ~fuel:200_000 ~max_certified:24 ?cache ~domain:eq_domain ~state:st g_query
  in
  let cache = Decide_cache.create () in
  let answers =
    match run ~cache () with Ok (Enumerate.Finite r) -> Relation.cardinal r | _ -> -1
  in
  let t = Paired.run ~rounds:1 [| repeat run; repeat (run ~cache) |] in
  { id = "decide_cache.warm_speedup_n12"; value = speedup t 1; unit_s = "x"; bound = Above 1.;
    holds = [ ("answers>=8", answers >= 8) ];
    note = Printf.sprintf "answers=%d %s" answers (arm_us [ "uncached"; "warm" ] t) }

(* [arms p] is the arms timed on hot path [p], arm 0 its plain run; the
   gate reads arm 1's worst overhead over the paths, and arm 2, if any,
   is reported as [extra]. *)
let overhead_gate ~id ~bound ?extra arms =
  let per_path =
    List.map (fun p -> (p.path, Paired.run ~rounds:21 (arms p))) (Lazy.force hot_paths)
  in
  let pcts i = List.map (fun (path, t) -> (path, overhead_pct t i)) per_path in
  let worst =
    List.fold_left
      (fun ((_, (_, m, _)) as w) ((_, (_, m', _)) as x) -> if m' > m then x else w)
      (List.hd (pcts 1)) (pcts 1)
  in
  let show i =
    String.concat " "
      (List.map (fun (path, (_, m, _)) -> Printf.sprintf "%s=%.1f%%" path m) (pcts i))
  in
  { id; value = snd worst; unit_s = "%"; bound; holds = [];
    note =
      show 1 ^ Option.fold ~none:"" ~some:(fun label -> "; " ^ label ^ ": " ^ show 2) extra }

let governor_gate () =
  overhead_gate ~id:"governor.overhead_pct" ~bound:(Below 5.) (fun p ->
      [| repeat p.run; repeat (fun () -> p.run ~budget:(full_budget ()) ()) |])

(* Telemetry disabled (every instrumentation point is one ref read and a
   branch), the no-op sink (the observation path runs but discards
   events), and a full recording.  The collector is installed around a
   whole chunk, so the one-time cost of building one stays amortized
   below the effect under test. *)
let telemetry_gate () =
  overhead_gate ~id:"telemetry.noop_overhead_pct" ~bound:(Below 2.) ~extra:"recording"
    (fun p ->
      [| repeat p.run;
         (fun reps -> Telemetry.with_noop (fun () -> repeat p.run reps));
         (fun reps -> ignore (Telemetry.record (fun () -> repeat p.run reps))) |])

(* Plain is the shipped default: fault sites compiled in but no plan
   installed, so every [Fault.hit] is one domain-local read.  Supervised
   runs every repetition through [Supervisor.supervise], the per-job
   envelope of [fq batch].  Armed installs a chaos plan with permille 0,
   so every fault site takes the full schedule path without ever firing:
   the cost of leaving injection armed, reported, not gated. *)
let supervision_gate () =
  let armed = Fault.chaos ~permille:0 ~seed:0 () in
  let g =
    overhead_gate ~id:"supervision.overhead_pct" ~bound:(At_most 2.) ~extra:"armed plan"
      (fun p ->
        [| repeat p.run;
           repeat (supervised p.run);
           (fun reps -> Fault.with_plan armed (fun () -> repeat p.run reps)) |])
  in
  { g with holds = [ ("4-way batch agrees", batch_agreement ()) ] }

let columnar_speedups ~n_join ~n_chain =
  let fan = 12 in
  let st = hub_join_state ~n:n_join ~fan in
  let join e () = Relalg.eval ~state:st ~engine:e hub_join_plan in
  let row, col = Relalg.(Row_engine, Columnar_engine) in
  let join_agree = Relation.equal (join row ()) (join col ()) in
  let join_t = Paired.run ~rounds:15 [| repeat (join row); repeat (join col) |] in
  let stc = dense_chain_state ~n:n_chain ~fan in
  let ranf e () = with_engine e (fun () -> Ranf.run ~domain:eq_domain ~state:stc g_query) in
  let ranf_agree =
    match (ranf row (), ranf col ()) with
    | Ok a, Ok b -> Relation.equal a b
    | _ -> false
  in
  (* a row-engine run at n = 4000 takes about a second, hence 3 rounds *)
  let ranf_t = Paired.run ~rounds:3 [| repeat (ranf row); repeat (ranf col) |] in
  [ { id = Printf.sprintf "columnar.chain_join_speedup_n%d" n_join; value = speedup join_t 1;
      unit_s = "x"; bound = At_least 10.; holds = [ ("engines agree", join_agree) ];
      note = arm_us [ "row"; "columnar" ] join_t };
    { id = Printf.sprintf "columnar.ranf_G_speedup_n%d" n_chain; value = speedup ranf_t 1;
      unit_s = "x"; bound = At_least 10.; holds = [ ("engines agree", ranf_agree) ];
      note = arm_us [ "row"; "columnar" ] ranf_t } ]

(* budget governance on the columnar engine, on a join sized (8x the
   speedup gate's) so the per-eval envelope cost (budget construction,
   DLS install, span) is amortized the way a governed production eval
   amortizes it *)
let columnar_governed_gate () =
  let n = 16_000 in
  let st = hub_join_state ~n ~fan:12 in
  let eval ?budget () =
    Relalg.eval ~state:st ~engine:Relalg.Columnar_engine ?budget hub_join_plan
  in
  let t =
    Paired.run ~rounds:15 [| repeat eval; repeat (fun () -> eval ~budget:(full_budget ()) ()) |]
  in
  { id = "columnar.governed_overhead_pct"; value = overhead_pct t 1; unit_s = "%";
    bound = At_most 5.; holds = [];
    note = Printf.sprintf "n=%d %s" n (arm_us [ "plain"; "governed" ] t) }

(* First-query decide cost of the 8 QE sentences: a cold cache against a
   fresh cache that first loads the snapshot, load included. *)
let snapshot_gate () =
  let decide_all cache =
    List.iter (fun f -> ignore (Decide_cache.decide cache presburger f)) serve_qe_sentences
  in
  let snapshot = Filename.temp_file "fq_bench_snap" ".fq" in
  let seed = Decide_cache.create () in
  decide_all seed;
  ignore (or_fail "snapshot save" (Decide_cache.save seed snapshot));
  let warm () =
    let c = Decide_cache.create () in
    ignore (or_fail "snapshot load" (Decide_cache.load c snapshot));
    decide_all c
  in
  let cold () = decide_all (Decide_cache.create ()) in
  let t = Paired.run ~rounds:15 [| repeat cold; repeat warm |] in
  Sys.remove snapshot;
  { id = "snapshot.warm_start_speedup"; value = speedup t 1; unit_s = "x"; bound = At_least 5.;
    holds = [];
    note =
      Printf.sprintf "sentences=%d %s" (List.length serve_qe_sentences)
        (arm_us [ "cold"; "warm" ] t) }

(* Cost of crash-safe journaling on the decide fill path.  Every sentence
   is distinct, so every verdict is a fresh cacheable fill — the worst
   case for the journal hook, which renders the entry and appends one
   CRC-framed record (write syscall, no fsync) per fill, through the
   production wiring (Decide_cache.set_on_insert -> journal mutex ->
   entry_to_line -> Journal.append).  Every file the journal arm wrote
   must then recover every record it appended. *)
let journal_gate () =
  let sentences = journal_fill_sentences 200 in
  let written = ref [] in
  let fill ~journal () =
    let cache = Decide_cache.create () in
    let j =
      if not journal then None
      else begin
        let p = Filename.temp_file "fq_bench_fill" ".j" in
        Sys.remove p;
        let j = or_fail "journal" (Journal.open_append p) in
        let lock = Mutex.create () in
        Decide_cache.set_on_insert cache
          (Some
             (fun key value ->
               let line = Decide_cache.entry_to_line key value in
               Mutex.protect lock (fun () ->
                   or_fail "journal append" (Journal.append j line))));
        Some j
      end
    in
    List.iter (fun f -> ignore (Decide_cache.decide cache presburger f)) sentences;
    Option.iter
      (fun j ->
        Journal.close j;
        written := (Journal.path j, Journal.appended j) :: !written)
      j
  in
  (* a pass of 200 fills takes about half a second, hence 5 rounds *)
  let t =
    Paired.run ~rounds:5 [| repeat (fill ~journal:false); repeat (fill ~journal:true) |]
  in
  let recovers (path, appended) =
    let count = ref 0 in
    let ok = Result.is_ok (Journal.recover path ~f:(fun _ -> incr count)) in
    Sys.remove path;
    ok && appended > 0 && !count = appended
  in
  let recovered = !written <> [] && List.for_all recovers !written in
  { id = "journal.fill_overhead_pct"; value = overhead_pct t 1; unit_s = "%";
    bound = At_most 5.;
    holds = [ ("every record recovered", recovered) ];
    note =
      Printf.sprintf "fills=%d files=%d %s" (List.length sentences) (List.length !written)
        (arm_us [ "off"; "on" ] t) }

(* Per-request cost of 1-in-8 head-sampled tracing on a live server,
   against sampling off (the always-on labeled aggregation runs in both:
   it has no off switch by design). *)
let tracing_gate () =
  let boot trace_sample addr = Server.run { (serve_config addr) with Server.trace_sample } in
  let t =
    with_server (boot 0) @@ fun plain ->
    with_server (boot 8) @@ fun traced ->
    with_client plain @@ fun cp ->
    with_client traced @@ fun ct ->
    Paired.run ~rounds:21 [| eval_requests cp; eval_requests ct |]
  in
  { id = "tracing.sampled_overhead_pct"; value = overhead_pct t 1; unit_s = "%";
    bound = At_most 5.; holds = []; note = "sample=1/8 " ^ arm_us [ "off"; "sampled" ] t }

(* Per-request cost of a supervised fleet worker, discovered through the
   control socket and talked to directly (the path a spread batch client
   takes), against a single fq serve process.  The supervision plane
   (probes, reaping, control socket) runs throughout. *)
let fleet_gate () =
  let boot addr =
    let base = Fleet.default_config ~state:family_state addr in
    Fleet.run
      { base with
        Fleet.workers = 2;
        (* probes stay on but are made load-proof: a starved worker that
           merely answers slowly must not be health-killed mid-run *)
        probe_timeout_ms = 5_000;
        probe_failures = 1_000;
        serve = serve_config addr }
  in
  let t =
    with_server (fun addr -> Server.run (serve_config addr)) @@ fun lone ->
    with_server boot @@ fun fleet ->
    let worker =
      match Client.discover ~retries:200 ~delay_ms:25 fleet with
      | Ok (true, w :: _) -> w
      | Ok _ -> failwith "fleet gate: no workers discovered"
      | Error e -> failwith ("fleet gate: discover: " ^ e)
    in
    with_client lone @@ fun cl ->
    with_client worker @@ fun cw ->
    Paired.run ~rounds:21 [| eval_requests cl; eval_requests cw |]
  in
  { id = "fleet.overhead_pct"; value = overhead_pct t 1; unit_s = "%"; bound = At_most 5.;
    holds = []; note = "workers=2 " ^ arm_us [ "serve"; "fleet" ] t }

(* Exits 1 if any gate fails.  The server gates run first: they fork,
   and fork must precede any domain (the supervision gate's worker pool
   spawns some). *)
let gates () =
  Format.printf "Finite Queries - timing gates (Paired: median and IQR over rounds)@.";
  row "%-34s %10s %20s %-6s %s  %s" "gate" "value" "IQR" "bound" "pass" "detail";
  let results =
    List.concat_map
      (fun run ->
        let gs = run () in
        List.iter print_gate gs;
        gs)
      [ (fun () -> [ tracing_gate () ]);
        (fun () -> [ fleet_gate () ]);
        (fun () -> [ hashjoin_gate () ]);
        (fun () -> [ decide_cache_gate () ]);
        (fun () -> [ governor_gate () ]);
        (fun () -> [ telemetry_gate () ]);
        (fun () -> [ supervision_gate () ]);
        (fun () -> columnar_speedups ~n_join:2000 ~n_chain:4000);
        (fun () -> [ columnar_governed_gate () ]);
        (fun () -> [ snapshot_gate () ]);
        (fun () -> [ journal_gate () ]) ]
  in
  let failed = List.filter (fun g -> not (gate_passes g)) results in
  row "%d of %d gates pass" (List.length results - List.length failed) (List.length results);
  if failed <> [] then exit 1

(* Downsized CI gate: fails (exit 1) if the columnar engine regresses
   below the row engine on the chain join, or the engines disagree. *)
let smoke_pr6 () =
  let gs = columnar_speedups ~n_join:300 ~n_chain:300 in
  List.iter print_gate gs;
  if not (List.for_all (fun g -> List.for_all snd g.holds) gs) then begin
    prerr_endline "smoke-pr6: FAIL engines disagree";
    exit 1
  end;
  let _, join_speedup, _ = (List.hd gs).value in
  if join_speedup < 1.0 then begin
    Printf.eprintf "smoke-pr6: FAIL columnar slower than row on chain join (%.2fx)\n"
      join_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  let input64 = String.make 64 '1' in
  let long_input = String.make 24 '1' in
  let long_trace = Option.get (Trace.trace_word ~machine:scan ~input:long_input ~k:24) in
  let cooper_sentence = parse "forall x. exists y. x = 2 * y \\/ x = 2 * y + 1" in
  let order_sentence = parse "forall x y. x < y -> exists z. x < z /\\ z <= y" in
  let succ_sentence = parse "forall x y. x' = y' -> x = y" in
  let reach_sentence =
    Result.get_ok
      (Reach.of_formula (parse (Printf.sprintf "exists p. P(\"%s\", \"11\", p)" scan)))
  in
  let lemma_constraints =
    [ Builder.At_least ("111", 3); Builder.Exactly ("11-", 2); Builder.Exactly ("-11", 1) ]
  in
  let q = Rat.of_int in
  let crel_square =
    Crel.make ~columns:[ "x"; "y" ]
      [ [ { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "x" };
          { Crel.lhs = Crel.V "x"; op = Crel.Lt; rhs = C (q 10) };
          { Crel.lhs = C (q 0); op = Crel.Lt; rhs = Crel.V "y" };
          { Crel.lhs = Crel.V "y"; op = Crel.Lt; rhs = Crel.V "x" } ] ]
  in
  let big_a = Bigint.of_string "123456789012345678901234567890" in
  let big_b = Bigint.of_string "987654321098765432109876543210" in
  section "Microbenchmarks (ns/run, monotonic clock)";
  List.iter
    (fun (name, arm) ->
      row "%-36s %12.0f" name (1e3 *. (Paired.run ~rounds:5 [| arm |]).Paired.us.(0)))
    [ ("tm/simulate-64", repeat (fun () -> Run.run ~fuel:1_000 Zoo.scan_right input64));
      ("tm/trace-validate", repeat (fun () -> Trace.p_pred scan long_input long_trace));
      ("tm/lemma-a2-builder", repeat (fun () -> Builder.satisfiable lemma_constraints));
      ("qe/cooper", repeat (fun () -> Cooper.decide cooper_sentence));
      ("qe/presburger-relativized", repeat (fun () -> Presburger.decide cooper_sentence));
      ("qe/nat-order-dedicated", repeat (fun () -> Nat_order.decide order_sentence));
      ("qe/nat-order-via-cooper", repeat (fun () -> Presburger.decide order_sentence));
      ("qe/nat-succ-dedicated", repeat (fun () -> Nat_succ.decide succ_sentence));
      ("qe/nat-succ-via-cooper", repeat (fun () -> Presburger.decide succ_sentence));
      ("reach/decide-exists-trace", repeat (fun () -> Reach_qe.decide reach_sentence));
      ( "eval/enumerate-M(x)",
        repeat (fun () -> Enumerate.run ~domain:eq_domain ~state:family_state m_query) );
      ( "eval/algebra-M(x)",
        repeat (fun () ->
            Algebra_translate.run ~domain:eq_domain ~state:family_state m_query) );
      ( "relsafe/finitization",
        repeat (fun () ->
            Relative_safety.via_finitization ~domain:presburger ~decide:Presburger.decide
              ~state:nat_state (parse "exists y. R(y) /\\ x < y")) );
      ( "relsafe/ext-active",
        repeat (fun () ->
            Ext_active.finite_in_state ~domain:succ_domain ~state:nat_state (parse "R(x)")) );
      ( "constraintdb/complement+project",
        repeat (fun () -> Crel.project ~keep:[ "y" ] (Crel.complement crel_square)) );
      ("bigint/lcm", repeat (fun () -> Bigint.lcm big_a big_b)) ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match mode with
  | "gates" -> gates ()
  | "smoke-pr6" -> smoke_pr6 ()
  | "" | "quick" ->
    Format.printf "Finite Queries - experiment harness (E1-E15), sweeps and microbenchmarks@.";
    experiments ();
    if mode = "" then begin
      sweeps ();
      microbenchmarks ()
    end;
    Format.printf "@.done.@.";
    if !mismatches <> [] then begin
      List.iter (Printf.eprintf "MISMATCH: %s\n") (List.rev !mismatches);
      exit 1
    end
  | m ->
    Printf.eprintf "usage: main.exe [quick | gates | smoke-pr6] (unknown mode %S)\n" m;
    exit 2
