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

(* All three backends over (copies of) one document. *)
let backends_for doc ~default_sign =
  let native_doc = Tree.copy doc in
  let row_db = Db.create Table.Row in
  let col_db = Db.create Table.Column in
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign row_db doc);
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign col_db doc);
  [ Xml_backend.make native_doc;
    Rel_backend.make mapping row_db;
    Rel_backend.make mapping col_db ]

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
(* Annotation queries *)

let test_annotation_query_shapes () =
  let check ds cr shape mark =
    let q = Annotation_query.build (mk_policy ds cr) in
    Alcotest.(check bool) "shape" true (q.Annotation_query.shape = shape);
    Alcotest.(check bool) "mark" true (q.Annotation_query.mark = mark)
  in
  check Rule.Minus Rule.Minus Annotation_query.Except Rule.Plus;
  check Rule.Minus Rule.Plus Annotation_query.Single Rule.Plus;
  check Rule.Plus Rule.Minus Annotation_query.Single Rule.Minus;
  check Rule.Plus Rule.Plus Annotation_query.Except Rule.Minus

let test_annotation_query_eval_matches_semantics () =
  (* For deny-default policies, the query's answer is exactly the
     accessible set. *)
  let doc = tiny_doc () in
  List.iter
    (fun cr ->
      let p = mk_policy Rule.Minus cr in
      let q = Annotation_query.build p in
      let answer =
        List.sort compare
          (List.map
             (fun (n : Tree.node) -> n.Tree.id)
             (Annotation_query.eval_native doc q))
      in
      Alcotest.(check (list int)) "query = semantics"
        (Policy.accessible_ids p doc)
        answer)
    [ Rule.Plus; Rule.Minus ]

let test_annotation_query_xquery_form () =
  let q = Annotation_query.build (Optimizer.optimize_policy W.Hospital.policy) in
  let s = Annotation_query.to_xquery_string ~doc_name:"xmlgen" q in
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
  let q = Annotation_query.build p in
  let sql = Annotation_query.to_sql mapping q in
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
    (Plan.simplify (Plan.Intersect (a, Plan.Empty)) = Plan.Empty);
  (* Nested restrictions fuse by intersection. *)
  let s12 = Plan.Ids.of_list [ 1; 2 ] and s23 = Plan.Ids.of_list [ 2; 3 ] in
  Alcotest.(check bool) "restrict fusion" true
    (Plan.equal_node
       (Plan.Restrict (Plan.Ids.singleton 2, a))
       (Plan.simplify (Plan.Restrict (s12, Plan.Restrict (s23, a)))))

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

let test_plan_restrict () =
  let doc = tiny_doc () in
  let plan = Plan.of_policy (mk_policy Rule.Minus Rule.Plus) in
  let all = Plan.eval_native doc plan in
  let some = Plan.Ids.of_list [ Plan.Ids.min_elt all ] in
  let restricted = Plan.restrict some plan in
  Alcotest.(check (list int)) "native restrict"
    (Plan.Ids.elements some)
    (Plan.native_ids doc restricted);
  (* split_restriction peels (and fuses) the id sets off the query. *)
  let peeled, core = Plan.split_restriction (Plan.restrict some restricted) in
  Alcotest.(check bool) "peeled" true (peeled = Some some);
  Alcotest.(check bool) "core restrict-free" true
    (Plan.equal_node plan.Plan.query core.Plan.query);
  (* SQL refuses an unpeeled restriction. *)
  (try
     ignore (Plan.to_sql mapping restricted);
     Alcotest.fail "to_sql accepted a Restrict"
   with Invalid_argument _ -> ());
  (* The relational backends apply it as a semijoin. *)
  List.iter
    (fun (backend : Backend.t) ->
      Alcotest.(check (list int))
        (backend.Backend.name ^ " restricted answer")
        (Plan.Ids.elements some)
        (backend.Backend.eval_plan restricted))
    (backends_for doc ~default_sign:"-")

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
      let backends = backends_for doc ~default_sign:(Rule.effect_to_string ds) in
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
    (backends_for doc ~default_sign:"-")

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
    (backends_for doc ~default_sign:"+")

let test_annotate_is_idempotent () =
  let doc = tiny_doc () in
  let p = Optimizer.optimize_policy W.Hospital.policy in
  List.iter
    (fun backend ->
      let s1 = Annotator.annotate backend p in
      let s2 = Annotator.annotate backend p in
      Alcotest.(check int) "same marks" s1.Annotator.marked s2.Annotator.marked)
    (backends_for doc ~default_sign:"-")

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
    (backends_for doc ~default_sign:"-")

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
    (backends_for doc ~default_sign:"-")

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
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let eng =
    Engine.create ~mirrored:true ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (tiny_doc ())
  in
  let _ = Engine.annotate_all eng in
  Alcotest.(check bool) "consistent" true (Engine.consistent eng);
  Alcotest.(check int) "optimized to 5" 5 (Policy.size (Engine.policy eng));
  let _ = Engine.update eng "//patient/treatment" in
  Alcotest.(check bool) "consistent after update" true (Engine.consistent eng);
  Alcotest.(check bool) "patients visible" true
    (Requester.is_granted (Engine.request eng Engine.Native "//patient"))

let test_engine_no_optimize () =
  let eng =
    Engine.create ~optimize:false ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (tiny_doc ())
  in
  Alcotest.(check int) "all rules kept" 8 (Policy.size (Engine.policy eng));
  Alcotest.(check bool) "no report" true (Engine.optimizer_report eng = None)

let test_engine_overlap_mode () =
  let eng =
    Engine.create ~mirrored:true ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (tiny_doc ())
  in
  let _ = Engine.annotate_all eng in
  let _ = Engine.update eng "//treatment" in
  Alcotest.(check bool) "consistent" true (Engine.consistent eng)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "core"
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
          tc "Figure 5 shapes" test_annotation_query_shapes;
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
          tc "restrict" test_plan_restrict;
          tc "balanced sql unions" test_plan_sql_balanced;
          tc "engine explain" test_engine_explain;
          QCheck_alcotest.to_alcotest plan_cross_backend_prop;
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
        ] );
      ( "trigger",
        [
          tc "treatment deletion (R3 -> R1)" test_trigger_treatment_deletion;
          tc "descendant expansion (R5)" test_trigger_descendant_expansion_needed;
          tc "unrelated update" test_trigger_unrelated_update;
          tc "direct/depends disjoint" test_trigger_direct_vs_depends_disjoint;
        ] );
      ( "reannotator",
        [
          tc "paper scenario" test_reannotate_paper_scenario;
          tc "full baseline" test_full_reannotate_baseline;
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
    (backends_for doc ~default_sign:"-")

(* Re-annotation touches only nodes whose sign changed. *)
let test_reannotate_minimal_writes () =
  let doc = tiny_doc () in
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "core-extra"
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
(* Subjects: role DAG, per-role resolution, role-aware policy files,
   and the shared multi-role annotation pass. *)

module Bitset = Xmlac_util.Bitset

let two_role_subjects () =
  Subject.make_exn
    [
      Subject.role "staff";
      Subject.role ~inherits:[ "staff" ] ~ds:Rule.Plus "doctor";
    ]

let test_subject_dag_basics () =
  let s = two_role_subjects () in
  Alcotest.(check (list string)) "names in bit order" [ "staff"; "doctor" ]
    (Subject.names s);
  Alcotest.(check (option int)) "staff bit" (Some 0) (Subject.index s "staff");
  Alcotest.(check (option int)) "doctor bit" (Some 1) (Subject.index s "doctor");
  Alcotest.(check (option int)) "unknown role" None (Subject.index s "nurse");
  Alcotest.(check (list string)) "closure is self-first" [ "doctor"; "staff" ]
    (Subject.closure s "doctor");
  Alcotest.(check bool) "doctor overrides ds" true
    (Subject.resolved_ds s "doctor" = Some Rule.Plus);
  Alcotest.(check bool) "staff has no ds" true
    (Subject.resolved_ds s "staff" = None)

let test_subject_dag_inherited_override () =
  (* ds/cr resolve through the nearest ancestor that sets them. *)
  let s =
    Subject.make_exn
      [
        Subject.role ~ds:Rule.Plus ~cr:Rule.Plus "root";
        Subject.role ~inherits:[ "root" ] "mid";
        Subject.role ~inherits:[ "mid" ] ~cr:Rule.Minus "leaf";
      ]
  in
  Alcotest.(check bool) "mid inherits ds" true
    (Subject.resolved_ds s "mid" = Some Rule.Plus);
  Alcotest.(check bool) "leaf inherits ds from root" true
    (Subject.resolved_ds s "leaf" = Some Rule.Plus);
  Alcotest.(check bool) "leaf keeps own cr" true
    (Subject.resolved_cr s "leaf" = Some Rule.Minus)

let test_subject_dag_rejects () =
  let rejects what decls needle =
    match Subject.make decls with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error msg ->
        Alcotest.(check bool)
          (what ^ " names offender: " ^ msg)
          true
          (Helpers.contains msg needle)
  in
  rejects "duplicate" [ Subject.role "a"; Subject.role "a" ] "a";
  rejects "unknown parent" [ Subject.role ~inherits:[ "ghost" ] "a" ] "ghost";
  rejects "self cycle" [ Subject.role ~inherits:[ "a" ] "a" ] "a";
  rejects "two-step cycle"
    [ Subject.role ~inherits:[ "b" ] "a"; Subject.role ~inherits:[ "a" ] "b" ]
    "cycle";
  rejects "empty declaration list" [] ""

let two_role_policy () =
  Policy.make ~subjects:(two_role_subjects ()) ~ds:Rule.Minus ~cr:Rule.Minus
    [
      rule "//patient" Rule.Plus;
      Rule.parse ~subjects:[ "staff" ] "//patient[treatment]" Rule.Minus;
      Rule.parse ~subjects:[ "doctor" ] "//treatment" Rule.Plus;
    ]

let test_policy_for_subject () =
  let p = two_role_policy () in
  let staff = Policy.for_subject p "staff" in
  let doctor = Policy.for_subject p "doctor" in
  (* staff sees the unqualified rule and its own; doctor (an heir of
     staff) sees all three. *)
  Alcotest.(check int) "staff rules" 2 (List.length (Policy.rules staff));
  Alcotest.(check int) "doctor rules" 3 (List.length (Policy.rules doctor));
  Alcotest.(check bool) "doctor projection carries its ds override" true
    (Policy.ds doctor = Rule.Plus);
  Alcotest.(check bool) "staff projection keeps the policy ds" true
    (Policy.ds staff = Rule.Minus);
  Alcotest.(check bool) "resolved_ds agrees" true
    (Policy.resolved_ds p "doctor" = Rule.Plus)

let test_policy_applicability_defaults () =
  let p = two_role_policy () in
  let rules = Policy.rules p in
  let bits r = Bitset.to_list (Policy.applicability p r) in
  Alcotest.(check (list int)) "unqualified reaches every role" [ 0; 1 ]
    (bits (List.nth rules 0));
  Alcotest.(check (list int)) "@staff also reaches its heir" [ 0; 1 ]
    (bits (List.nth rules 1));
  Alcotest.(check (list int)) "@doctor reaches doctor only" [ 1 ]
    (bits (List.nth rules 2));
  Alcotest.(check (list int)) "default bits = roles resolving ds to +" [ 1 ]
    (Bitset.to_list (Policy.default_bits p))

let roles_policy_text =
  "role staff\n\
   role doctor inherits staff default allow\n\
   default deny\n\
   conflict deny\n\
   allow //patient\n\
   deny @staff //patient[treatment]\n\
   allow @doctor //treatment\n"

let test_policy_io_roles_round_trip () =
  let p = Policy_io.parse_exn roles_policy_text in
  Alcotest.(check (list string)) "roles" [ "staff"; "doctor" ] (Policy.roles p);
  Alcotest.(check bool) "doctor ds from decl" true
    (Policy.resolved_ds p "doctor" = Rule.Plus);
  let p' = Policy_io.parse_exn (Policy_io.to_string p) in
  Alcotest.(check bool) "role DAG survives the round trip" true
    (Subject.equal (Policy.subjects p) (Policy.subjects p'));
  Alcotest.(check (list string)) "rule qualifier survives" [ "staff" ]
    (List.nth (Policy.rules p') 1).Rule.subjects;
  let doc = tiny_doc () in
  List.iter
    (fun role ->
      Alcotest.(check (list int))
        ("same accessibility for " ^ role)
        (Policy.accessible_ids ~subject:role p doc)
        (Policy.accessible_ids ~subject:role p' doc))
    (Policy.roles p)

let test_policy_io_role_errors () =
  let err what text needle ~line =
    match Policy_io.parse text with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error e ->
        let msg = Policy_io.error_to_string e in
        Alcotest.(check int) (what ^ ": line") line e.Policy_io.line;
        Alcotest.(check bool) (what ^ ": pos is 1-based") true
          (e.Policy_io.pos >= 1);
        Alcotest.(check bool)
          (what ^ " names offender: " ^ msg)
          true
          (Helpers.contains msg needle)
  in
  err "unknown parent" "role a inherits ghost\ndefault deny\n" "ghost" ~line:1;
  err "duplicate role" "role a\nrole a\ndefault deny\n" "a" ~line:2;
  (* The cycle is reported at the first declaration on the loop. *)
  err "inheritance cycle"
    "role a inherits b\nrole b inherits a\ndefault deny\n" "cycle" ~line:1;
  err "unknown qualifier role" "role a\ndefault deny\nallow @ghost //patient\n"
    "ghost" ~line:3;
  err "qualifier without role decls" "default deny\nallow @ghost //patient\n"
    "ghost" ~line:2

(* The tentpole property: for every role of a random multi-role policy
   over a random document, on each of the three backends, the one
   shared annotation pass materializes exactly the same accessible set
   as (a) the historical single-subject path run on the role's
   projected policy and (b) the reference semantics. *)

let subjects_equivalence_prop =
  QCheck2.Test.make
    ~name:"shared multi-role pass = per-role plans = reference (3 backends)"
    ~count:40 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let subjects = Helpers.random_subjects rng in
      let names = Subject.names subjects in
      let n_rules = 1 + Prng.int rng 5 in
      let rules =
        List.init n_rules (fun i ->
            let quals = List.filter (fun _ -> Prng.int rng 3 = 0) names in
            Rule.make
              ~name:(Printf.sprintf "S%d" i)
              ~subjects:quals
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
      let p = Policy.make ~subjects ~ds ~cr rules in
      let reference =
        List.map
          (fun role -> (role, Policy.accessible_ids ~subject:role p doc))
          names
      in
      let default_bits = Policy.default_bits p in
      let shared_ok =
        List.for_all
          (fun backend ->
            let _ = Annotator.annotate_subjects ~schema:hospital_sg backend p in
            List.for_all
              (fun (i, role) ->
                Backend.accessible_ids_role backend ~default:default_bits
                  ~role:i
                = List.assoc role reference)
              (List.mapi (fun i r -> (i, r)) names))
          (backends_for doc ~default_sign:"-")
      in
      let single_ok =
        List.for_all
          (fun role ->
            let solo = Policy.for_subject p role in
            List.for_all
              (fun backend ->
                let _ = Annotator.annotate ~schema:hospital_sg backend solo in
                Backend.accessible_ids backend ~default:(Policy.ds solo)
                = List.assoc role reference)
              (backends_for doc ~default_sign:"-"))
          names
      in
      shared_ok && single_ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "subjects"
    [
      ( "role dag",
        [
          tc "basics" test_subject_dag_basics;
          tc "inherited overrides" test_subject_dag_inherited_override;
          tc "rejects malformed" test_subject_dag_rejects;
        ] );
      ( "policy projection",
        [
          tc "for_subject" test_policy_for_subject;
          tc "applicability and default bits"
            test_policy_applicability_defaults;
        ] );
      ( "policy io roles",
        [
          tc "round trip" test_policy_io_roles_round_trip;
          tc "errors carry line/pos" test_policy_io_role_errors;
        ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest subjects_equivalence_prop ] );
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
    (backends_for doc ~default_sign:"-")

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
    (backends_for doc ~default_sign:"-")

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
    (backends_for doc ~default_sign:"-")

let test_update_wipes_scope () =
  (* Deleting every patient leaves consistent stores and a vacuous
     grant on //patient. *)
  let eng =
    Engine.create ~mirrored:true ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (tiny_doc ())
  in
  let _ = Engine.annotate_all eng in
  let _ = Engine.update eng "//patient" in
  Alcotest.(check bool) "consistent" true (Engine.consistent eng);
  Alcotest.(check bool) "vacuous grant" true
    (Requester.is_granted (Engine.request eng Engine.Native "//patient"))

let test_untriggering_update () =
  (* An update unrelated to every rule must not change any sign. *)
  let doc = tiny_doc () in
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let backend = List.hd (backends_for doc ~default_sign:"-") in
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
  let eng =
    Engine.create ~mirrored:true ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (tiny_doc ())
  in
  let _ = Engine.annotate_all eng in
  let _ = Engine.update eng "//treatment" in
  (* The second identical update deletes nothing. *)
  let stats = Engine.update eng "//treatment" in
  List.iter
    (fun (_, s) -> Alcotest.(check int) "nothing left" 0 s.Reannotator.deleted_roots)
    stats;
  Alcotest.(check bool) "still consistent" true (Engine.consistent eng)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core-edge"
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
