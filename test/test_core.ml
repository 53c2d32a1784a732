(* Tests for the access-control core: policy semantics (Table 2), the
   optimizer (Table 3), annotation queries (Figure 5), annotation
   (Figure 6), the dependency graph (Figure 7), the trigger (Figure 8)
   and partial re-annotation, on all three backends. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Prng = Xmlac_util.Prng
module W = Xmlac_workload

let parse = Helpers.parse
let hospital_sg = Lazy.force Helpers.hospital_sg
let mapping = Xmlac_shrex.Mapping.of_dtd W.Hospital.dtd

let rule ?name s e = Rule.parse ?name s e

(* ------------------------------------------------------------------ *)
(* Policy semantics: Table 2 on a tiny fixture. *)

let tiny_doc () = W.Hospital.sample_document ()

let mk_policy ds cr =
  Policy.make ~ds ~cr
    [ rule "//patient" Rule.Plus; rule "//patient[treatment]" Rule.Minus ]

let test_semantics_deny_deny () =
  (* [[A]] - [[D]]: only the treatment-less patient. *)
  let doc = tiny_doc () in
  let p = mk_policy Rule.Minus Rule.Minus in
  Alcotest.(check (list int)) "A - D"
    (Helpers.ids doc "//patient[psn = \"099\"]")
    (Policy.accessible_ids p doc)

let test_semantics_deny_allow () =
  (* [[A]]: all patients. *)
  let doc = tiny_doc () in
  let p = mk_policy Rule.Minus Rule.Plus in
  Alcotest.(check (list int)) "A"
    (Helpers.ids doc "//patient")
    (Policy.accessible_ids p doc)

let test_semantics_allow_deny () =
  (* U - [[D]]: everything except patients with treatment. *)
  let doc = tiny_doc () in
  let p = mk_policy Rule.Plus Rule.Minus in
  let denied = Helpers.ids doc "//patient[treatment]" in
  let expected =
    List.filter
      (fun id -> not (List.mem id denied))
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.nodes doc))
  in
  Alcotest.(check (list int)) "U - D" (List.sort compare expected)
    (Policy.accessible_ids p doc)

let test_semantics_allow_allow () =
  (* U - (D - A): the positive rule shields patients from the deny. *)
  let doc = tiny_doc () in
  let p = mk_policy Rule.Plus Rule.Plus in
  Alcotest.(check int) "everything accessible" (Tree.size doc)
    (List.length (Policy.accessible_ids p doc))

let test_semantics_matches_paper_example () =
  (* Figure 2's annotation: under Table 1's policy, the accessible
     nodes are the three names, the third patient and the regular
     element... per the paper's narration: patients 1-2 inaccessible
     (R3), patient 3 accessible (R1), names accessible (R2/R4),
     regular accessible (R6). *)
  let doc = tiny_doc () in
  let expected =
    List.sort_uniq compare
      (Helpers.ids doc "//patient/name"
      @ Helpers.ids doc "//patient[psn = \"099\"]"
      @ Helpers.ids doc "//regular")
  in
  Alcotest.(check (list int)) "paper annotation" expected
    (Policy.accessible_ids W.Hospital.policy doc)

let test_annotate_reference () =
  let doc = tiny_doc () in
  Policy.annotate_reference W.Hospital.policy doc;
  let plus =
    List.sort compare
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.signed doc Tree.Plus))
  in
  Alcotest.(check (list int)) "signs = semantics"
    (Policy.accessible_ids W.Hospital.policy doc)
    plus;
  (* Every node carries a sign after reference annotation. *)
  Alcotest.(check int) "total signed" (Tree.size doc)
    (List.length (Tree.signed doc Tree.Plus)
    + List.length (Tree.signed doc Tree.Minus))

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let test_optimizer_table3 () =
  let report = Optimizer.optimize W.Hospital.policy in
  Alcotest.(check (list string)) "Table 3"
    W.Hospital.optimized_rule_names
    (List.map (fun r -> r.Rule.name) (Policy.rules report.Optimizer.result));
  (* R4 removed because of R2; R7 and R8 because of R6. *)
  let removed_for name =
    List.find_map
      (fun r ->
        if r.Optimizer.removed.Rule.name = name then
          Some r.Optimizer.because_of.Rule.name
        else None)
      report.Optimizer.removals
  in
  Alcotest.(check (option string)) "R4 by R2" (Some "R2") (removed_for "R4");
  Alcotest.(check (option string)) "R7 by R6" (Some "R6") (removed_for "R7");
  Alcotest.(check (option string)) "R8 by R6" (Some "R6") (removed_for "R8")

let test_optimizer_keeps_opposite_effects () =
  (* R3 contained in R1 but with opposite effect: both kept. *)
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//patient" Rule.Plus; rule "//patient[treatment]" Rule.Minus ]
  in
  Alcotest.(check int) "both kept" 2
    (Policy.size (Optimizer.optimize_policy p))

let test_optimizer_equivalent_rules () =
  (* Mutually contained rules: exactly one survives. *)
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//a[b][c]" Rule.Plus; rule "//a[c][b]" Rule.Plus ]
  in
  Alcotest.(check int) "one survives" 1 (Policy.size (Optimizer.optimize_policy p))

let test_optimizer_later_subsumes_earlier () =
  (* A broader rule arriving later still removes the earlier narrow
     one. *)
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//a[b]" Rule.Plus; rule "//a" Rule.Plus ]
  in
  let kept = Policy.rules (Optimizer.optimize_policy p) in
  Alcotest.(check (list string)) "broad survives" [ "//a" ]
    (List.map (fun r -> r.Rule.name) kept)

let optimizer_preserves_semantics_prop =
  QCheck2.Test.make ~name:"optimization preserves policy semantics" ~count:100
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let n_rules = 1 + Prng.int rng 6 in
      let rules =
        List.init n_rules (fun i ->
            Rule.make
              ~name:(Printf.sprintf "G%d" i)
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let p = Policy.make ~ds ~cr rules in
      let p' = Optimizer.optimize_policy p in
      Policy.accessible_ids p doc = Policy.accessible_ids p' doc)

(* ------------------------------------------------------------------ *)
(* Annotation queries: Figure 5's compilation ({!Plan.of_policy})
   evaluated natively, printed as XQuery and lowered to SQL. *)

let test_annotation_query_eval_matches_semantics () =
  (* For deny-default policies, the query's answer is exactly the
     accessible set. *)
  let doc = tiny_doc () in
  List.iter
    (fun cr ->
      let p = mk_policy Rule.Minus cr in
      Alcotest.(check (list int)) "query = semantics"
        (Policy.accessible_ids p doc)
        (Plan.native_ids doc (Plan.of_policy p)))
    [ Rule.Plus; Rule.Minus ]

let test_annotation_query_xquery_form () =
  let plan = Plan.of_policy (Optimizer.optimize_policy W.Hospital.policy) in
  let s = Plan.to_xquery ~doc_name:"xmlgen" plan in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  (* The paper's example query shape:
     (R1 union R2 union R6) except (R3 union R5), marking "+". *)
  Alcotest.(check bool) "union" true (contains "//patient union //patient/name");
  Alcotest.(check bool) "except" true (contains ") except (");
  Alcotest.(check bool) "annotate +" true (contains "xmlac:annotate($n, \"+\")")

let test_annotation_query_sql_runs () =
  let doc = tiny_doc () in
  let db = Db.create Table.Row in
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign:"-" db doc);
  let p = Optimizer.optimize_policy W.Hospital.policy in
  let sql = Plan.to_sql mapping (Plan.of_policy p) in
  Alcotest.(check (list int)) "sql answer = semantics"
    (Policy.accessible_ids p doc)
    (Xmlac_reldb.Executor.query_ids db sql)

(* ------------------------------------------------------------------ *)
(* The plan IR: construction, rewrites, lowerings *)

let test_plan_of_policy_shapes () =
  let check ds cr expect_mark expect_shape =
    let plan = Plan.of_policy (mk_policy ds cr) in
    Alcotest.(check bool) "mark" true (plan.Plan.mark = expect_mark);
    Alcotest.(check bool) "default" true (plan.Plan.default = ds);
    Alcotest.(check bool) "shape" true
      (match (plan.Plan.query, expect_shape) with
      | Plan.Except _, `Except -> true
      | Plan.Union _, `Union -> true
      | _ -> false)
  in
  check Rule.Minus Rule.Minus Rule.Plus `Except;
  check Rule.Minus Rule.Plus Rule.Plus `Union;
  check Rule.Plus Rule.Minus Rule.Minus `Union;
  check Rule.Plus Rule.Plus Rule.Minus `Except

let test_plan_simplify () =
  let a = Plan.Scope (parse "//a") and b = Plan.Scope (parse "//b") in
  (* Nested unions flatten, empties vanish, singletons unwrap. *)
  Alcotest.(check bool) "flatten" true
    (Plan.equal_node
       (Plan.Union [ a; b ])
       (Plan.simplify (Plan.Union [ Plan.Union [ a ]; Plan.Empty; b ])));
  Alcotest.(check bool) "empty union" true
    (Plan.simplify (Plan.Union []) = Plan.Empty);
  Alcotest.(check bool) "except empty rhs" true
    (Plan.equal_node a (Plan.simplify (Plan.Except (a, Plan.Union []))));
  Alcotest.(check bool) "except empty lhs" true
    (Plan.simplify (Plan.Except (Plan.Empty, a)) = Plan.Empty);
  Alcotest.(check bool) "intersect empty" true
    (Plan.simplify (Plan.Intersect (a, Plan.Empty)) = Plan.Empty)

let test_plan_absorb () =
  let narrow = Plan.Scope (parse "//patient[treatment]") in
  let broad = Plan.Scope (parse "//patient") in
  (* Instance containment: the narrow scope disappears into the broad
     sibling, in either order. *)
  Alcotest.(check bool) "narrow absorbed" true
    (Plan.equal_node (Plan.Union [ broad ])
       (Plan.absorb (Plan.Union [ narrow; broad ])));
  Alcotest.(check bool) "order irrelevant" true
    (Plan.equal_node (Plan.Union [ broad ])
       (Plan.absorb (Plan.Union [ broad; narrow ])));
  (* Without a schema only //patient/name ⊆ //patient//name is
     provable, so the broader descendant form survives; under the
     hospital DTD the two are equivalent and the leftmost wins. *)
  let q =
    Plan.Union [ Plan.Scope (parse "//patient/name");
                 Plan.Scope (parse "//patient//name") ]
  in
  Alcotest.(check bool) "broader survives without schema" true
    (Plan.equal_node
       (Plan.Union [ Plan.Scope (parse "//patient//name") ])
       (Plan.absorb q));
  Alcotest.(check bool) "leftmost of schema-equivalent pair survives" true
    (Plan.equal_node
       (Plan.Union [ Plan.Scope (parse "//patient/name") ])
       (Plan.absorb ~schema:hospital_sg q));
  (* Absorption never crosses an Except: the secondary side keeps its
     own scopes. *)
  let e = Plan.Except (Plan.Union [ broad ], Plan.Union [ narrow ]) in
  Alcotest.(check bool) "except sides independent" true
    (Plan.equal_node e (Plan.absorb e))

let test_plan_prune_and_rewrite () =
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Plus
      [ rule "//patient/name" Rule.Plus;
        rule "//doctor/bill" Rule.Plus (* unsatisfiable under the DTD *) ]
  in
  let plan = Plan.of_policy p in
  let rewritten, trace = Plan.rewrite_trace ~schema:hospital_sg plan in
  Alcotest.(check int) "one scope left" 1 (List.length (Plan.scopes rewritten));
  Alcotest.(check bool) "trace shrinks" true
    (Plan.size rewritten < Plan.size plan);
  Alcotest.(check (list string)) "pass names"
    [ "flatten"; "prune-unsat"; "absorb"; "simplify" ]
    (List.map (fun (s : Plan.pass_stat) -> s.Plan.pass) trace);
  (* The rewrite preserves the answer. *)
  let doc = tiny_doc () in
  Alcotest.(check (list int)) "same answer"
    (Plan.native_ids doc plan)
    (Plan.native_ids doc rewritten)

let test_plan_sql_balanced () =
  (* Eight single-table scopes: the flattened union front has eight
     branches and the balanced tree is logarithmic, not a spine. *)
  let exprs =
    [ "//patient"; "//name"; "//regular"; "//staff"; "//doctor"; "//nurse";
      "//phone"; "//bill" ]
  in
  let plan =
    { Plan.query = Plan.Union (List.map (fun s -> Plan.Scope (parse s)) exprs);
      mark = Rule.Plus; default = Rule.Minus }
  in
  let sql = Plan.to_sql mapping plan in
  let module Sql = Xmlac_reldb.Sql in
  Alcotest.(check int) "eight branches" 8 (List.length (Sql.flatten_union sql));
  Alcotest.(check int) "log-depth union" 4 (Sql.depth sql);
  (* And the lowering is still the same query. *)
  let doc = tiny_doc () in
  let db = Db.create Table.Row in
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign:"-" db doc);
  Alcotest.(check (list int)) "sql answer = native answer"
    (Plan.native_ids doc plan)
    (Xmlac_reldb.Executor.query_ids db sql)

let test_engine_explain () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy (tiny_doc ())
  in
  let e = Engine.explain eng in
  Alcotest.(check (list string)) "pass trace"
    [ "flatten"; "prune-unsat"; "absorb"; "simplify" ]
    (List.map (fun (s : Plan.pass_stat) -> s.Plan.pass) e.Plan.trace);
  Alcotest.(check bool) "sql lowering present" true (e.Plan.sql <> None);
  Alcotest.(check bool) "scopes counted" true (e.Plan.scope_counts <> []);
  (* The annotation query marks the five accessible nodes of the paper
     example. *)
  Alcotest.(check (option int)) "answer size" (Some 5) e.Plan.answer_size;
  (* The generated XQuery executes against the engine's document. *)
  let store = Xmlac_xmldb.Store.create () in
  Xmlac_xmldb.Store.add store ~name:"doc" (Tree.copy (Engine.document eng));
  (match Xmlac_xmldb.Xquery.run store e.Plan.xquery with
  | Ok (Xmlac_xmldb.Xquery.Annotated n) -> Alcotest.(check int) "runs" 5 n
  | Ok _ -> Alcotest.fail "expected an annotation query"
  | Error m -> Alcotest.failf "explain xquery did not run: %s" m);
  (* The engine's cached plan is what annotate evaluates. *)
  Alcotest.(check bool) "plan cached" true
    (Plan.equal_node (Engine.plan eng).Plan.query e.Plan.rewritten.Plan.query)

(* The tentpole property: one plan, three backends, rewrites on or
   off — identical accessible sets, all equal to the reference
   semantics. *)
let plan_cross_backend_prop =
  QCheck2.Test.make
    ~name:"plan evaluation agrees across backends and rewrite settings"
    ~count:60 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let n_rules = 1 + Prng.int rng 6 in
      let rules =
        List.init n_rules (fun i ->
            Rule.make
              ~name:(Printf.sprintf "G%d" i)
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let p = Policy.make ~ds ~cr rules in
      let expected = Policy.accessible_ids p doc in
      let backends = Helpers.backends_for doc ~default_sign:(Rule.effect_to_string ds) in
      List.for_all
        (fun rewrite ->
          List.for_all
            (fun backend ->
              let _ = Annotator.annotate ~schema:hospital_sg ~rewrite backend p in
              Backend.accessible_ids backend ~default:ds = expected)
            backends)
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Annotator across backends *)

let test_annotate_cross_backend () =
  let doc = tiny_doc () in
  let p = Optimizer.optimize_policy W.Hospital.policy in
  let expected = Policy.accessible_ids p doc in
  List.iter
    (fun backend ->
      let stats = Annotator.annotate backend p in
      Alcotest.(check int)
        (backend.Backend.name ^ " marked")
        (List.length expected) stats.Annotator.marked;
      Alcotest.(check (list int))
        (backend.Backend.name ^ " accessible")
        expected
        (Backend.accessible_ids backend ~default:(Policy.ds p)))
    (Helpers.backends_for doc ~default_sign:"-")

let test_annotate_allow_default () =
  (* ds = allow: the non-default sign is minus; unannotated nodes are
     accessible. *)
  let doc = tiny_doc () in
  let p =
    Policy.make ~ds:Rule.Plus ~cr:Rule.Minus
      [ rule "//treatment" Rule.Minus ]
  in
  List.iter
    (fun backend ->
      let stats = Annotator.annotate backend p in
      Alcotest.(check int) (backend.Backend.name ^ " marked") 2
        stats.Annotator.marked;
      Alcotest.(check (list int))
        (backend.Backend.name ^ " accessible")
        (Policy.accessible_ids p doc)
        (Backend.accessible_ids backend ~default:(Policy.ds p)))
    (Helpers.backends_for doc ~default_sign:"+")

let test_annotate_is_idempotent () =
  let doc = tiny_doc () in
  let p = Optimizer.optimize_policy W.Hospital.policy in
  List.iter
    (fun backend ->
      let s1 = Annotator.annotate backend p in
      let s2 = Annotator.annotate backend p in
      Alcotest.(check int) "same marks" s1.Annotator.marked s2.Annotator.marked)
    (Helpers.backends_for doc ~default_sign:"-")

let test_coverage_stat () =
  Alcotest.(check bool) "coverage fraction" true
    (abs_float
       (Annotator.coverage
          { Annotator.reset_default = Rule.Minus; marked = 5; total = 20 }
       -. 0.25)
    < 1e-9)

(* ------------------------------------------------------------------ *)
(* Dependency graph *)

let test_depend_paper_example () =
  (* R3 ⊑ R1 with opposite effects: each in the other's list. *)
  let p = Optimizer.optimize_policy W.Hospital.policy in
  let d = Depend.build ~mode:Depend.Paper p in
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "rule %s missing" name
      | r :: _ when r.Rule.name = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (Policy.rules p)
  in
  let r1 = idx "R1" and r3 = idx "R3" and r5 = idx "R5" and r6 = idx "R6" in
  Alcotest.(check bool) "R3 in deps of R1" true
    (List.mem r3 (Depend.depends d r1));
  Alcotest.(check bool) "R1 in deps of R3" true
    (List.mem r1 (Depend.depends d r3));
  Alcotest.(check bool) "R5 related to R1" true
    (List.mem r5 (Depend.depends d r1));
  (* R6 (//regular) is not comparable with any negative rule. *)
  Alcotest.(check (list int)) "R6 isolated" [] (Depend.depends d r6)

let test_depend_paper_opposite_only () =
  (* Same-effect rules are never neighbours in Paper mode. *)
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//patient" Rule.Plus; rule "//patient[treatment]" Rule.Plus ]
  in
  let d = Depend.build ~mode:Depend.Paper p in
  Alcotest.(check (list int)) "no neighbours" [] (Depend.neighbours d 0)

let test_depend_overlap_any_sign () =
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//patient" Rule.Plus; rule "//patient[treatment]" Rule.Plus ]
  in
  let d = Depend.build ~mode:(Depend.Overlap hospital_sg) p in
  Alcotest.(check (list int)) "overlap connects same sign" [ 1 ]
    (Depend.neighbours d 0)

let test_depend_transitive () =
  (* a+ ⊒ b- ⊒ c+: c reaches a through b. *)
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [
        rule "//patient" Rule.Plus;
        rule "//patient[treatment]" Rule.Minus;
        rule "//patient[treatment/regular]" Rule.Plus;
      ]
  in
  let d = Depend.build ~mode:Depend.Paper p in
  Alcotest.(check bool) "transitive closure" true
    (List.mem 0 (Depend.depends d 2))

(* ------------------------------------------------------------------ *)
(* Trigger *)

let optimized = Optimizer.optimize_policy W.Hospital.policy
let depend_paper = Depend.build ~mode:Depend.Paper optimized

let rule_names_of_result result =
  List.map
    (fun r -> r.Rule.name)
    (Trigger.triggered_rules depend_paper result)

let test_trigger_treatment_deletion () =
  (* The paper's example: deleting //patient/treatment triggers R3 by
     expansion and pulls in R1 (and R5) through the dependency graph. *)
  let result =
    Trigger.run ~schema:hospital_sg depend_paper
      ~update:(parse "//patient/treatment")
  in
  let names = rule_names_of_result result in
  Alcotest.(check bool) "R3 triggered" true (List.mem "R3" names);
  Alcotest.(check bool) "R1 via depends" true (List.mem "R1" names);
  (* No containment relates //regular to the update, R3 or R1. *)
  Alcotest.(check bool) "R6 untriggered" false (List.mem "R6" names);
  (* R3 direct, R1 dependent. *)
  let direct = result.Trigger.directly in
  let rules = Array.of_list (Policy.rules optimized) in
  Alcotest.(check bool) "R3 direct" true
    (List.exists (fun i -> rules.(i).Rule.name = "R3") direct)

let test_trigger_descendant_expansion_needed () =
  (* Deleting //treatment must trigger R5 = //patient[.//experimental],
     which only works through schema expansion (the paper's second
     example). *)
  let result =
    Trigger.run ~schema:hospital_sg depend_paper ~update:(parse "//treatment")
  in
  let names = rule_names_of_result result in
  Alcotest.(check bool) "R5 triggered" true (List.mem "R5" names);
  Alcotest.(check bool) "R1 pulled in" true (List.mem "R1" names)

let test_trigger_unrelated_update () =
  (* Deleting staff does not touch any patient rule. *)
  let result =
    Trigger.run ~schema:hospital_sg depend_paper ~update:(parse "//staff")
  in
  Alcotest.(check (list string)) "nothing triggered" []
    (rule_names_of_result result)

let test_trigger_direct_vs_depends_disjoint () =
  let result =
    Trigger.run ~schema:hospital_sg depend_paper
      ~update:(parse "//patient/treatment")
  in
  List.iter
    (fun i ->
      Alcotest.(check bool) "disjoint" false
        (List.mem i result.Trigger.directly))
    result.Trigger.via_depends

(* ------------------------------------------------------------------ *)
(* The footprint trigger, the footprint-built graph, the plan memo and
   the array scope sets, each against what it replaced. *)

module Sm = Xmlac_xpath.Schema_match

let schemas =
  lazy
    [ (hospital_sg, Helpers.hospital_qgen_config);
      (Lazy.force Helpers.xmark_sg, Xmlac_xpath.Qgen.default_config) ]

(* A random policy over the hospital or the XMark schema (resources
   repeat, and now and then one is unsatisfiable), with one or two
   random update expressions. *)
let random_schema_case rng =
  let sg, config = Prng.choose rng (Array.of_list (Lazy.force schemas)) in
  let expr () =
    if Prng.int rng 8 = 0 then parse "//patient/bill"
    else Xmlac_xpath.Qgen.gen_expr ~config rng sg
  in
  let effect () = if Prng.bool rng then Rule.Plus else Rule.Minus in
  let resources = ref [] in
  let rules =
    List.init
      (1 + Prng.int rng 8)
      (fun i ->
        let resource =
          match !resources with
          | e :: _ when Prng.int rng 4 = 0 -> e
          | _ -> expr ()
        in
        resources := resource :: !resources;
        Rule.make ~name:(Printf.sprintf "F%d" i) ~resource (effect ()))
  in
  let policy = Policy.make ~ds:(effect ()) ~cr:(effect ()) rules in
  (sg, policy, List.init (1 + Prng.int rng 2) (fun _ -> expr ()))

let footprint_trigger_prop =
  QCheck2.Test.make ~name:"footprint trigger = expansion overlap test"
    ~count:150 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let sg, policy, updates = random_schema_case rng in
      let d = Depend.build ~mode:(Depend.Overlap sg) policy in
      let expected =
        List.concat
          (List.mapi
             (fun i (r : Rule.t) ->
               if
                 List.exists
                   (fun x -> List.exists (Sm.overlap sg x) updates)
                   (Xmlac_xpath.Expand.expand ~schema:sg r.Rule.resource)
               then [ i ]
               else [])
             (Policy.rules policy))
      in
      List.for_all
        (fun schema ->
          (Trigger.run_all ?schema d ~updates).Trigger.directly = expected)
        [ None; Some sg ])

let footprint_edges_prop =
  QCheck2.Test.make ~name:"footprint-built overlap edges = pairwise overlap"
    ~count:150 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let sg, policy, _ = random_schema_case rng in
      let d = Depend.build ~mode:(Depend.Overlap sg) policy in
      let rules = Array.of_list (Policy.rules policy) in
      let n = Array.length rules in
      List.for_all
        (fun i ->
          Depend.neighbours d i
          = List.filter
              (fun j ->
                j <> i
                && Sm.overlap sg rules.(i).Rule.resource rules.(j).Rule.resource)
              (List.init n Fun.id))
        (List.init n Fun.id))

let plan_memo_prop =
  QCheck2.Test.make ~name:"memoized plan = fresh rewrite" ~count:100
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let sg, policy, _ = random_schema_case rng in
      let d = Depend.build ~mode:(Depend.Overlap sg) policy in
      let rules = Array.of_list (Policy.rules policy) in
      (* Few distinct subsets, drawn often: most calls hit the memo. *)
      List.for_all
        (fun _ ->
          let triggered =
            List.filter
              (fun _ -> Prng.int rng 3 > 0)
              (List.init (min 3 (Array.length rules)) Fun.id)
          in
          let fresh =
            Plan.rewrite ~schema:sg
              (Plan.of_rules policy (List.map (fun i -> rules.(i)) triggered))
          in
          let memo = Depend.plan ~schema:sg d triggered in
          Plan.equal_node memo.Plan.query fresh.Plan.query
          && memo.Plan.mark = fresh.Plan.mark
          && memo.Plan.default = fresh.Plan.default)
        (List.init 12 Fun.id))

module Iset = Set.Make (Int)

let ids_ops_prop =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_bound 40) (int_bound 60))
        (list_size (oneofl [ 0; 1; 3; 80 ]) (int_bound 60)))
  in
  QCheck2.Test.make ~name:"array id sets = Set.Make (Int)" ~count:300 gen
    (fun (l1, l2) ->
      let a = Plan.Ids.of_list l1 and b = Plan.Ids.of_list l2 in
      let s = Iset.of_list l1 and t = Iset.of_list l2 in
      let same ids set = Plan.Ids.elements ids = Iset.elements set in
      let even x = x mod 2 = 0 in
      same a s && same b t
      && same (Plan.Ids.union a b) (Iset.union s t)
      && same (Plan.Ids.diff a b) (Iset.diff s t)
      && same (Plan.Ids.inter a b) (Iset.inter s t)
      && same (Plan.Ids.inter b a) (Iset.inter s t)
      && same (Plan.Ids.sym_diff a b) (Iset.union (Iset.diff s t) (Iset.diff t s))
      && same (Plan.Ids.filter even a) (Iset.filter even s)
      && same (Plan.Ids.of_array (Array.of_list (Iset.elements s))) s
      && Plan.Ids.cardinal a = Iset.cardinal s
      && Plan.Ids.is_empty a = Iset.is_empty s
      && List.for_all
           (fun x -> Plan.Ids.mem x a = Iset.mem x s)
           (List.init 62 (fun x -> x - 1))
      && Plan.Ids.fold (fun x acc -> x :: acc) a []
         = Iset.fold (fun x acc -> x :: acc) s [])

(* ------------------------------------------------------------------ *)
(* Re-annotation *)

let test_reannotate_paper_scenario () =
  (* After deleting treatments, all patients must become accessible,
     on every backend, and partial re-annotation must agree with the
     reference semantics of the updated document. *)
  let doc = tiny_doc () in
  let p = optimized in
  List.iter
    (fun backend ->
      let _ = Annotator.annotate backend p in
      let stats =
        Reannotator.reannotate ~schema:hospital_sg backend depend_paper
          ~update:(parse "//patient/treatment")
      in
      Alcotest.(check int)
        (backend.Backend.name ^ " deleted")
        2 stats.Reannotator.deleted_roots;
      (* Reference: evaluate the policy on a copy of the updated doc. *)
      let updated = tiny_doc () in
      ignore (Xmlac_xmldb.Update.delete updated (parse "//patient/treatment"));
      Alcotest.(check (list int))
        (backend.Backend.name ^ " accessible")
        (Policy.accessible_ids p updated)
        (Backend.accessible_ids backend ~default:(Policy.ds p)))
    (Helpers.backends_for doc ~default_sign:"-")

let test_full_reannotate_baseline () =
  let doc = tiny_doc () in
  let p = optimized in
  List.iter
    (fun backend ->
      let _ = Annotator.annotate backend p in
      let _ =
        Reannotator.full_reannotate backend p
          ~update:(parse "//patient/treatment")
      in
      let updated = tiny_doc () in
      ignore (Xmlac_xmldb.Update.delete updated (parse "//patient/treatment"));
      Alcotest.(check (list int))
        (backend.Backend.name ^ " accessible")
        (Policy.accessible_ids p updated)
        (Backend.accessible_ids backend ~default:(Policy.ds p)))
    (Helpers.backends_for doc ~default_sign:"-")

let test_reannotate_one_evaluation_per_state () =
  (* Section 5.3 evaluates the triggered scopes before and after the
     update.  The region, the sign verdict and every role-bit verdict
     all read one scope memo per document state: each triggered
     resource crosses [eval_ids] exactly once before and once after,
     and no whole-plan evaluation runs. *)
  let policy = Lazy.force Helpers.hospital_roles_policy in
  let depend = Depend.build ~mode:(Depend.Overlap hospital_sg) policy in
  let update = parse "//patient/treatment" in
  List.iter
    (fun (store : Backend.t) ->
      ignore (Annotator.annotate store policy);
      ignore (Annotator.annotate_subjects store policy);
      let counts = Hashtbl.create 8 in
      let counting =
        {
          store with
          Backend.eval_ids =
            (fun e ->
              Hashtbl.replace counts e
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts e));
              store.Backend.eval_ids e);
          eval_plan = (fun _ -> Alcotest.fail "eval_plan called");
          eval_plans = (fun _ -> Alcotest.fail "eval_plans called");
        }
      in
      let evaluated () =
        let l = List.of_seq (Hashtbl.to_seq counts) in
        Hashtbl.reset counts;
        List.sort compare
          (List.map (fun (e, n) -> (Xmlac_xpath.Pp.expr_to_string e, n)) l)
      in
      let p =
        Reannotator.prepare ~schema:hospital_sg ~bits:true counting depend
          ~touched:[ update ]
      in
      let before = evaluated () in
      let deleted_roots = store.Backend.delete_update update in
      let stats =
        Reannotator.finish ~schema:hospital_sg counting depend p
          ~deleted_roots
      in
      let after = evaluated () in
      let rules = Array.of_list (Policy.rules policy) in
      let expected =
        List.sort_uniq compare
          (List.map
             (fun i ->
               (Xmlac_xpath.Pp.expr_to_string rules.(i).Rule.resource, 1))
             stats.Reannotator.triggered)
      in
      let name = store.Backend.name in
      Alcotest.(check bool) (name ^ " triggered") true (expected <> []);
      Alcotest.(check (list (pair string int))) (name ^ " before") expected
        before;
      Alcotest.(check (list (pair string int))) (name ^ " after") expected
        after)
    (Helpers.backends_for (tiny_doc ()) ~default_sign:"-")

(* The repair region is exactly the stored nodes whose membership in
   some triggered scope moved — the union over triggered rules of
   pre △ post — and every sign and role bit the repair writes lies in
   it.  One delete (staff regain untreated patients) and one insert (a
   treatment under the untreated patient) on the native store, each
   region recomputed with [Rule.scope] on copies of the document taken
   before and after. *)
let test_reannotate_region_is_symmetric_difference () =
  let policy = Lazy.force Helpers.hospital_roles_policy in
  let depend = Depend.build ~mode:(Depend.Overlap hospital_sg) policy in
  let rules = Array.of_list (Policy.rules policy) in
  let doc = tiny_doc () in
  let store = Xml_backend.make doc in
  ignore (Annotator.annotate store policy);
  ignore (Annotator.annotate_subjects store policy);
  let scope_ids d r =
    List.map (fun (n : Tree.node) -> n.Tree.id) (Rule.scope d r)
  in
  let check label touched apply =
    let p =
      Reannotator.prepare ~schema:hospital_sg ~bits:true store depend
        ~touched:(List.map parse touched)
    in
    let before = Tree.copy doc in
    let deleted_roots = apply () in
    let stats =
      Reannotator.finish ~schema:hospital_sg store depend p ~deleted_roots
    in
    let moved =
      List.concat_map
        (fun i ->
          let pre = scope_ids before rules.(i)
          and post = scope_ids doc rules.(i) in
          List.filter (fun id -> not (List.mem id post)) pre
          @ List.filter (fun id -> not (List.mem id pre)) post)
        stats.Reannotator.triggered
      |> List.filter (fun id -> Tree.find doc id <> None)
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) (label ^ ": some membership moved") true
      (moved <> []);
    Alcotest.(check int) (label ^ ": affected = |region|") (List.length moved)
      stats.Reannotator.affected;
    List.iter
      (fun (what, ids) ->
        List.iter
          (fun id ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s node %d lies in the region" label what id)
              true (List.mem id moved))
          ids)
      [ ("sign-changed", stats.Reannotator.changed);
        ("bits-changed", stats.Reannotator.bits_changed) ];
    Alcotest.(check bool) (label ^ ": some bitmap rewritten") true
      (stats.Reannotator.bits_changed <> []);
    Alcotest.(check Helpers.int_list) (label ^ ": signs match the policy")
      (Policy.accessible_ids policy doc)
      (Backend.accessible_ids store ~default:(Policy.ds policy));
    List.iter
      (fun role ->
        Alcotest.(check Helpers.int_list)
          (Printf.sprintf "%s: %s bits match the policy" label role)
          (Policy.accessible_ids ~subject:role policy doc)
          (Backend.accessible_ids_role store
             ~default:(Policy.default_bits policy)
             ~role:(Option.get (Subject.index (Policy.subjects policy) role))))
      (Policy.roles policy)
  in
  let update = parse "//patient/treatment" in
  check "delete" [ "//patient/treatment" ] (fun () ->
      store.Backend.delete_update update);
  let at = "//patient[psn = \"099\"]" in
  let fragment = Tree.create ~root_name:"treatment" in
  ignore (Tree.add_child fragment (Tree.root fragment) ~value:"aspirin" "med");
  check "insert"
    [ at ^ "/treatment"; at ^ "/treatment//*" ]
    (fun () ->
      List.length
        (Xmlac_xmldb.Update.insert_nodes doc ~at:(parse at) ~fragment))

(* The headline property: with the Overlap-mode dependency graph,
   partial re-annotation coincides with annotating the updated document
   from scratch — for random documents, random policies and random
   delete updates, on the native backend (the relational ones are
   covered by the cross-backend test plus translation equivalence). *)
let reannotation_correct_prop =
  QCheck2.Test.make ~name:"partial reannotation = full annotation (Overlap)"
    ~count:60 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let n_rules = 1 + Prng.int rng 6 in
      let rules =
        List.init n_rules (fun i ->
            Rule.make
              ~name:(Printf.sprintf "G%d" i)
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let p = Policy.make ~ds ~cr rules in
      let depend = Depend.build ~mode:(Depend.Overlap hospital_sg) p in
      (* Non-root delete update. *)
      let update =
        let rec pick () =
          let e = Helpers.random_hospital_expr rng in
          match e.Xmlac_xpath.Ast.steps with
          | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Name "hospital"; _ } ]
          | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Wildcard; _ } ] ->
              pick ()
          | _ -> e
        in
        pick ()
      in
      let working = Tree.copy doc in
      let backend = Xml_backend.make working in
      let _ = Annotator.annotate backend p in
      let _ =
        Reannotator.reannotate ~schema:hospital_sg backend depend ~update
      in
      let reference = Tree.copy doc in
      ignore (Xmlac_xmldb.Update.delete reference update);
      Policy.accessible_ids p reference
      = Backend.accessible_ids backend ~default:(Policy.ds p))

(* ------------------------------------------------------------------ *)
(* Requester *)

let annotated_backend () =
  let doc = tiny_doc () in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend optimized in
  backend

let test_requester_grants () =
  let b = annotated_backend () in
  match Requester.request_string b ~default:Rule.Minus "//patient/name" with
  | Requester.Granted ids -> Alcotest.(check int) "three names" 3 (List.length ids)
  | Requester.Denied _ -> Alcotest.fail "names should be granted"

let test_requester_denies_all_or_nothing () =
  let b = annotated_backend () in
  (* //patient selects two inaccessible patients: whole request denied
     even though one patient is accessible. *)
  match Requester.request_string b ~default:Rule.Minus "//patient" with
  | Requester.Denied { blocked } -> Alcotest.(check int) "two blocked" 2 blocked
  | Requester.Granted _ -> Alcotest.fail "should be denied"

let test_requester_empty_granted () =
  let b = annotated_backend () in
  Alcotest.(check bool) "vacuous grant" true
    (Requester.is_granted
       (Requester.request_string b ~default:Rule.Minus "//nosuch"))

let test_requester_pp () =
  let s = Format.asprintf "%a" Requester.pp (Requester.Denied { blocked = 2 }) in
  Alcotest.(check string) "pp" "denied (2 inaccessible node(s))" s

(* ------------------------------------------------------------------ *)
(* Engine facade *)

let test_engine_end_to_end () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.check_cross "consistent" c;
  Alcotest.(check int) "optimized to 5" 5 (Policy.size (Engine.policy c.eng));
  Helpers.cross_apply c (Helpers.Update "//patient/treatment");
  Helpers.check_cross "consistent after update" c;
  Alcotest.(check bool) "patients visible" true
    (Requester.is_granted (Engine.request c.eng Engine.Native "//patient"))

let test_engine_no_optimize () =
  let eng =
    Engine.create ~optimize:false ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Alcotest.(check int) "all rules kept" 8 (Policy.size (Engine.policy eng));
  Alcotest.(check bool) "no report" true (Engine.optimizer_report eng = None)

let test_engine_overlap_mode () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.cross_apply c (Helpers.Update "//treatment");
  Helpers.check_cross "consistent" c

let core_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "policy semantics",
      [
        tc "deny/deny" test_semantics_deny_deny;
        tc "deny/allow" test_semantics_deny_allow;
        tc "allow/deny" test_semantics_allow_deny;
        tc "allow/allow" test_semantics_allow_allow;
        tc "paper example annotation" test_semantics_matches_paper_example;
        tc "reference annotation" test_annotate_reference;
      ] );
    ( "optimizer",
      [
        tc "Table 3" test_optimizer_table3;
        tc "opposite effects kept" test_optimizer_keeps_opposite_effects;
        tc "equivalent rules" test_optimizer_equivalent_rules;
        tc "later subsumes earlier" test_optimizer_later_subsumes_earlier;
        QCheck_alcotest.to_alcotest optimizer_preserves_semantics_prop;
      ] );
    ( "annotation query",
      [
        tc "answer = semantics (deny)" test_annotation_query_eval_matches_semantics;
        tc "xquery form" test_annotation_query_xquery_form;
        tc "sql form runs" test_annotation_query_sql_runs;
      ] );
    ( "plan",
      [
        tc "of_policy shapes" test_plan_of_policy_shapes;
        tc "simplify" test_plan_simplify;
        tc "absorb" test_plan_absorb;
        tc "prune and rewrite" test_plan_prune_and_rewrite;
        tc "balanced sql unions" test_plan_sql_balanced;
        tc "engine explain" test_engine_explain;
        QCheck_alcotest.to_alcotest plan_cross_backend_prop;
        QCheck_alcotest.to_alcotest plan_memo_prop;
        QCheck_alcotest.to_alcotest ids_ops_prop;
      ] );
    ( "annotator",
      [
        tc "cross-backend" test_annotate_cross_backend;
        tc "allow default" test_annotate_allow_default;
        tc "idempotent" test_annotate_is_idempotent;
        tc "coverage stat" test_coverage_stat;
      ] );
    ( "depend",
      [
        tc "paper example" test_depend_paper_example;
        tc "paper mode opposite-only" test_depend_paper_opposite_only;
        tc "overlap mode any sign" test_depend_overlap_any_sign;
        tc "transitive" test_depend_transitive;
        QCheck_alcotest.to_alcotest footprint_edges_prop;
      ] );
    ( "trigger",
      [
        tc "treatment deletion (R3 -> R1)" test_trigger_treatment_deletion;
        tc "descendant expansion (R5)" test_trigger_descendant_expansion_needed;
        tc "unrelated update" test_trigger_unrelated_update;
        tc "direct/depends disjoint" test_trigger_direct_vs_depends_disjoint;
        QCheck_alcotest.to_alcotest footprint_trigger_prop;
      ] );
    ( "reannotator",
      [
        tc "paper scenario" test_reannotate_paper_scenario;
        tc "full baseline" test_full_reannotate_baseline;
        tc "one scope evaluation per state"
          test_reannotate_one_evaluation_per_state;
        tc "region is the scope symmetric difference"
          test_reannotate_region_is_symmetric_difference;
        QCheck_alcotest.to_alcotest reannotation_correct_prop;
      ] );
    ( "requester",
      [
        tc "grants" test_requester_grants;
        tc "all-or-nothing denial" test_requester_denies_all_or_nothing;
        tc "empty is granted" test_requester_empty_granted;
        tc "pp" test_requester_pp;
      ] );
    ( "engine",
      [
        tc "end to end" test_engine_end_to_end;
        tc "no optimize" test_engine_no_optimize;
        tc "overlap mode" test_engine_overlap_mode;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Policy files (Policy_io) — appended suite. *)

let ward_policy_text =
  "# hospital ward policy\n\
   default deny\n\
   conflict deny\n\
   allow //patient\n\
   allow //patient/name\n\
   deny //patient[treatment]\n"

let test_policy_io_parse () =
  let p = Policy_io.parse_exn ward_policy_text in
  Alcotest.(check int) "three rules" 3 (Policy.size p);
  Alcotest.(check bool) "ds deny" true (Policy.ds p = Rule.Minus);
  Alcotest.(check bool) "cr deny" true (Policy.cr p = Rule.Minus);
  Alcotest.(check (list string)) "names" [ "R1"; "R2"; "R3" ]
    (List.map (fun r -> r.Rule.name) (Policy.rules p));
  Alcotest.(check int) "one negative" 1 (List.length (Policy.negative p))

let test_policy_io_defaults () =
  let p = Policy_io.parse_exn "allow //a\n" in
  Alcotest.(check bool) "default deny/deny" true
    (Policy.ds p = Rule.Minus && Policy.cr p = Rule.Minus)

let test_policy_io_allow_config () =
  let p = Policy_io.parse_exn "default allow\nconflict allow\ndeny //a\n" in
  Alcotest.(check bool) "allow/allow" true
    (Policy.ds p = Rule.Plus && Policy.cr p = Rule.Plus)

let test_policy_io_round_trip () =
  let p = Policy_io.parse_exn ward_policy_text in
  let p' = Policy_io.parse_exn (Policy_io.to_string p) in
  Alcotest.(check bool) "round trip" true
    (Policy.ds p = Policy.ds p'
    && Policy.cr p = Policy.cr p'
    && List.for_all2 Rule.equal (Policy.rules p) (Policy.rules p'))

let test_policy_io_errors () =
  let bad text =
    match Policy_io.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error e ->
        let msg = Policy_io.error_to_string e in
        Alcotest.(check bool) "mentions line" true
          (String.length msg >= 5 && String.sub msg 0 5 = "line ");
        Alcotest.(check bool) "positive position" true
          (e.Policy_io.line >= 1 && e.Policy_io.pos >= 1)
  in
  bad "allow not an xpath\n";
  bad "default maybe\n";
  bad "default deny\ndefault deny\n";
  bad "grant //a\n"

let test_policy_io_comments_blank () =
  let p = Policy_io.parse_exn "\n# comment\n\nallow //a\n# another\n" in
  Alcotest.(check int) "one rule" 1 (Policy.size p)

(* Backend.has_node across stores. *)
let test_has_node () =
  let doc = tiny_doc () in
  let some_id =
    match Helpers.ids doc "//patient" with
    | id :: _ -> id
    | [] -> Alcotest.fail "no patients"
  in
  List.iter
    (fun (backend : Backend.t) ->
      Alcotest.(check bool) (backend.Backend.name ^ " present") true
        (backend.Backend.has_node some_id);
      Alcotest.(check bool) (backend.Backend.name ^ " absent") false
        (backend.Backend.has_node 987654);
      let _ = backend.Backend.delete_update (parse "//patient") in
      Alcotest.(check bool) (backend.Backend.name ^ " deleted") false
        (backend.Backend.has_node some_id))
    (Helpers.backends_for doc ~default_sign:"-")

(* Re-annotation touches only nodes whose sign changed. *)
let test_reannotate_minimal_writes () =
  let doc = tiny_doc () in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend optimized in
  let stats =
    Reannotator.reannotate ~schema:hospital_sg backend depend_paper
      ~update:(parse "//patient/treatment")
  in
  (* Exactly the two patients flip from - to +; names/regular already
     annotated stay untouched. *)
  Alcotest.(check int) "two nodes re-marked" 2 stats.Reannotator.marked


(* Guarded updates (Update_guard) — the future-work extension. *)

let guarded_backend () =
  let doc = tiny_doc () in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend optimized in
  backend

let test_guard_refuses_inaccessible () =
  let b = guarded_backend () in
  (* Patients with treatment are inaccessible: deleting them is
     refused. *)
  match Update_guard.check_delete b ~default:Rule.Minus (parse "//patient[treatment]") with
  | Update_guard.Refused { blocked } ->
      Alcotest.(check bool) "blocked some" true (blocked > 0)
  | Update_guard.Permitted _ -> Alcotest.fail "should refuse"

let test_guard_refuses_hidden_subtree () =
  (* The target itself is accessible but its subtree contains
     inaccessible nodes: still refused. *)
  let doc = tiny_doc () in
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//patient" Rule.Plus; rule "//treatment" Rule.Minus ]
  in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend p in
  match Update_guard.check_delete backend ~default:Rule.Minus (parse "//patient") with
  | Update_guard.Refused _ -> ()
  | Update_guard.Permitted _ -> Alcotest.fail "subtree should block"

let test_guard_permits_and_applies () =
  let doc = tiny_doc () in
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//regular" Rule.Plus; rule "//regular//*" Rule.Plus ]
  in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend p in
  let depend = Depend.build ~mode:(Depend.Overlap hospital_sg) p in
  match
    Update_guard.guarded_delete ~schema:hospital_sg backend depend
      ~update:(parse "//regular")
  with
  | Ok stats ->
      Alcotest.(check int) "one subtree" 1 stats.Reannotator.deleted_roots;
      Alcotest.(check bool) "regular gone" true
        (backend.Backend.eval_ids (parse "//regular") = [])
  | Error _ -> Alcotest.fail "should permit"

let test_guard_vacuous_permit () =
  let b = guarded_backend () in
  match Update_guard.check_delete b ~default:Rule.Minus (parse "//nosuch") with
  | Update_guard.Permitted { targets } -> Alcotest.(check int) "none" 0 targets
  | Update_guard.Refused _ -> Alcotest.fail "vacuously permitted"

let test_guard_pp () =
  Alcotest.(check string) "pp" "refused (3 inaccessible node(s))"
    (Format.asprintf "%a" Update_guard.pp (Update_guard.Refused { blocked = 3 }))

let core_extra_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "policy io",
      [
        tc "parse" test_policy_io_parse;
        tc "defaults" test_policy_io_defaults;
        tc "allow config" test_policy_io_allow_config;
        tc "round trip" test_policy_io_round_trip;
        tc "errors" test_policy_io_errors;
        tc "comments and blanks" test_policy_io_comments_blank;
      ] );
    ( "backend",
      [
        tc "has_node" test_has_node;
        tc "minimal re-annotation writes" test_reannotate_minimal_writes;
      ] );
    ( "update guard",
      [
        tc "refuses inaccessible targets" test_guard_refuses_inaccessible;
        tc "refuses hidden subtrees" test_guard_refuses_hidden_subtree;
        tc "permits and applies" test_guard_permits_and_applies;
        tc "vacuous permit" test_guard_vacuous_permit;
        tc "pp" test_guard_pp;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases and failure injection — appended suite. *)

let test_empty_policy_deny () =
  let doc = tiny_doc () in
  let p = Policy.make ~ds:Rule.Minus ~cr:Rule.Minus [] in
  Alcotest.(check (list int)) "nothing accessible" []
    (Policy.accessible_ids p doc);
  List.iter
    (fun backend ->
      let stats = Annotator.annotate backend p in
      Alcotest.(check int) (backend.Backend.name ^ " marks nothing") 0
        stats.Annotator.marked)
    (Helpers.backends_for doc ~default_sign:"-")

let test_empty_policy_allow () =
  let doc = tiny_doc () in
  let p = Policy.make ~ds:Rule.Plus ~cr:Rule.Minus [] in
  Alcotest.(check int) "everything accessible" (Tree.size doc)
    (List.length (Policy.accessible_ids p doc))

let test_negative_only_deny_default () =
  (* Denies on top of deny-by-default are inert: still nothing
     accessible, and the annotation marks nothing. *)
  let doc = tiny_doc () in
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus [ rule "//patient" Rule.Minus ]
  in
  List.iter
    (fun backend ->
      let stats = Annotator.annotate backend p in
      Alcotest.(check int) (backend.Backend.name) 0 stats.Annotator.marked)
    (Helpers.backends_for doc ~default_sign:"-")

let test_unsatisfiable_rule_harmless () =
  let doc = tiny_doc () in
  let p =
    Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
      [ rule "//patient/bill" Rule.Plus; rule "//name" Rule.Plus ]
  in
  List.iter
    (fun backend ->
      let _ = Annotator.annotate backend p in
      Alcotest.(check (list int))
        (backend.Backend.name ^ " accessible")
        (Policy.accessible_ids p doc)
        (Backend.accessible_ids backend ~default:Rule.Minus))
    (Helpers.backends_for doc ~default_sign:"-")

let test_update_wipes_scope () =
  (* Deleting every patient leaves consistent stores and a vacuous
     grant on //patient. *)
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.cross_apply c (Helpers.Update "//patient");
  Helpers.check_cross "consistent" c;
  Alcotest.(check bool) "vacuous grant" true
    (Requester.is_granted (Engine.request c.eng Engine.Native "//patient"))

let test_untriggering_update () =
  (* An update unrelated to every rule must not change any sign. *)
  let doc = tiny_doc () in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend optimized in
  let before = Backend.accessible_ids backend ~default:Rule.Minus in
  let stats =
    Reannotator.reannotate ~schema:hospital_sg backend depend_paper
      ~update:(parse "//staffinfo/staff")
  in
  Alcotest.(check (list int)) "no rules triggered" [] stats.Reannotator.triggered;
  Alcotest.(check int) "nothing re-marked" 0 stats.Reannotator.marked;
  Alcotest.(check (list int)) "accessible unchanged" before
    (Backend.accessible_ids backend ~default:Rule.Minus)

let test_engine_rejects_recursive_dtd () =
  let rec_dtd =
    Xmlac_xml.Dtd.make ~root:"a"
      [ ("a", Xmlac_xml.Dtd.Seq [ { elem = "a"; occ = Xmlac_xml.Dtd.Star } ]) ]
  in
  let doc = Tree.create ~root_name:"a" in
  try
    ignore
      (Engine.create ~dtd:rec_dtd
         ~policy:(Policy.make ~ds:Rule.Minus ~cr:Rule.Minus [])
         doc);
    Alcotest.fail "accepted recursive DTD"
  with Invalid_argument _ -> ()

let test_requester_after_full_delete_of_rule_scope () =
  let doc = tiny_doc () in
  let backend = List.hd (Helpers.backends_for doc ~default_sign:"-") in
  let _ = Annotator.annotate backend optimized in
  let _ =
    Reannotator.reannotate ~schema:hospital_sg backend depend_paper
      ~update:(parse "//regular")
  in
  (* regular is gone; bill under experimental survives and stays
     inaccessible. *)
  Alcotest.(check (list int)) "no regular" []
    (backend.Backend.eval_ids (parse "//regular"));
  match Requester.request backend ~default:Rule.Minus (parse "//bill") with
  | Requester.Denied _ -> ()
  | Requester.Granted _ -> Alcotest.fail "bill should stay denied"

let test_double_update_idempotent_consistency () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.cross_apply c (Helpers.Update "//treatment");
  (* The second identical update deletes nothing. *)
  let before = Tree.size (Engine.document c.eng) in
  Helpers.cross_apply c (Helpers.Update "//treatment");
  Alcotest.(check int) "nothing left" before (Tree.size (Engine.document c.eng));
  Helpers.check_cross "still consistent" c

let core_edge_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "edge cases",
      [
        tc "empty policy (deny)" test_empty_policy_deny;
        tc "empty policy (allow)" test_empty_policy_allow;
        tc "negative-only under deny default" test_negative_only_deny_default;
        tc "unsatisfiable rule harmless" test_unsatisfiable_rule_harmless;
        tc "update wipes a scope" test_update_wipes_scope;
        tc "untriggering update" test_untriggering_update;
        tc "recursive DTD rejected" test_engine_rejects_recursive_dtd;
        tc "scope fully deleted" test_requester_after_full_delete_of_rule_scope;
        tc "double update" test_double_update_idempotent_consistency;
      ] );
  ]

let () = Alcotest.run "core" (core_tests @ core_extra_tests @ core_edge_tests)
