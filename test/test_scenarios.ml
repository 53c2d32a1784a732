(* End-to-end integration scenarios across the whole stack, on both the
   hospital and XMark workloads. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
module W = Xmlac_workload

(* ------------------------------------------------------------------ *)
(* Scenario 1: the paper's motivating walk-through, verbatim, on the
   engine and on both relational stores. *)

let test_paper_walkthrough () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  (* Optimization reproduces Table 3. *)
  Alcotest.(check (list string)) "Table 3"
    W.Hospital.optimized_rule_names
    (List.map (fun r -> r.Rule.name) (Policy.rules (Engine.policy c.eng)));
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.check_cross "annotated" c;
  let granted store q =
    List.iter
      (fun (name, d) ->
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name q) store
          (Requester.is_granted d))
      (Helpers.cross_decisions c q)
  in
  (* Patients one and two are inaccessible (R3 overrides R1), the third
     accessible; names are accessible (R2). *)
  granted false "//patient";
  granted true "//patient[psn = \"099\"]";
  granted true "//patient/name";
  granted false "//patient[.//experimental]";
  (* Delete treatments: R3/R5 no longer apply, R1 resurfaces. *)
  Helpers.cross_apply c (Helpers.Update "//patient/treatment");
  Helpers.check_cross "after the update" c;
  granted true "//patient"

(* ------------------------------------------------------------------ *)
(* Scenario 2: XMark with a coverage policy; queries and updates keep
   the relational stores in lockstep with the engine. *)

let test_xmark_lockstep () =
  let doc = W.Xmark.generate ~factor:0.005 () in
  let policy = W.Coverage.policy_for_target ~doc ~target:0.5 in
  let c = Helpers.cross_stores ~dtd:W.Xmark.dtd ~policy doc in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.check_cross "annotated" c;
  (* A few queries decided identically everywhere. *)
  List.iter
    (fun q ->
      match
        List.map
          (fun (_, d) -> Requester.is_granted d)
          (Helpers.cross_decisions c q)
      with
      | [ a; b; c ] ->
          Alcotest.(check bool) ("agree on " ^ q) true (a = b && b = c)
      | _ -> assert false)
    [ "//person"; "//person/name"; "//creditcard"; "//open_auction/initial";
      "//bidder"; "//annotation" ];
  (* Three delete updates, staying consistent throughout. *)
  List.iter
    (fun u ->
      Helpers.cross_apply c (Helpers.Update u);
      Helpers.check_cross ("after " ^ u) c)
    [ "//watches"; "//bidder"; "//person[creditcard]" ]

(* ------------------------------------------------------------------ *)
(* Scenario 3: partial re-annotation equals reference semantics after a
   sequence of updates, on every store. *)

let test_update_sequence_reference () =
  let doc = W.Hospital.generate ~departments:3 ~patients_per_dept:8 () in
  let policy = Optimizer.optimize_policy W.Hospital.policy in
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy doc
  in
  Helpers.cross_apply c Helpers.Annotate;
  let reference = Tree.copy doc in
  List.iter
    (fun u ->
      Helpers.cross_apply c (Helpers.Update u);
      ignore (Xmlac_xmldb.Update.delete reference (Helpers.parse u));
      Alcotest.(check Helpers.int_list) ("native after " ^ u)
        (Policy.accessible_ids policy reference)
        (Engine.accessible c.eng);
      Helpers.check_cross ("relational after " ^ u) c)
    [ "//regular"; "//patient[.//experimental]"; "//staffinfo/staff" ]

(* ------------------------------------------------------------------ *)
(* Scenario 4: annotation survives the XML round trip — serialize the
   annotated native document, re-parse it, and the signs still encode
   the same accessible set. *)

let test_annotation_round_trip () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  let _ = Engine.annotate eng in
  let xml = Xmlac_xml.Serializer.to_string (Engine.document eng) in
  let reparsed = Xmlac_xml.Xml_parser.parse_exn xml in
  (* Universal ids are not serialized, so compare the annotated shape
     (names, values, signs), which is id-independent. *)
  Alcotest.(check bool) "annotated structure preserved" true
    (Tree.equal_annotated (Engine.document eng) reparsed);
  let backend = Xml_backend.make reparsed in
  Alcotest.(check int) "accessible count preserved"
    (List.length (Engine.accessible eng))
    (List.length (Backend.accessible_ids backend ~default:Rule.Minus))

(* ------------------------------------------------------------------ *)
(* Scenario 5: all four (ds, cr) configurations stay cross-store
   consistent on a random document. *)

let test_all_configurations_consistent () =
  let doc = W.Hospital.generate ~departments:2 ~patients_per_dept:6 () in
  List.iter
    (fun (ds, cr) ->
      let policy =
        Policy.make ~ds ~cr
          [
            Rule.parse "//patient" Rule.Plus;
            Rule.parse "//patient[.//experimental]" Rule.Minus;
            Rule.parse "//name" Rule.Plus;
            Rule.parse "//staff" Rule.Minus;
          ]
      in
      let c =
        Helpers.cross_stores ~optimize:false ~dtd:W.Hospital.dtd ~policy doc
      in
      Helpers.cross_apply c Helpers.Annotate;
      Helpers.check_cross
        (Printf.sprintf "ds=%s cr=%s" (Rule.effect_to_string ds)
           (Rule.effect_to_string cr))
        c;
      (* And equal to the reference semantics. *)
      Alcotest.(check Helpers.int_list) "matches reference"
        (Policy.accessible_ids policy (Engine.document c.eng))
        (Engine.accessible c.eng))
    [ (Rule.Minus, Rule.Minus); (Rule.Minus, Rule.Plus);
      (Rule.Plus, Rule.Minus); (Rule.Plus, Rule.Plus) ]

(* ------------------------------------------------------------------ *)
(* Scenario 6: randomized end-to-end fuzz. *)

let fuzz_prop =
  QCheck2.Test.make ~name:"engine fuzz: annotate/update/query stay consistent"
    ~count:20 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let rules =
        List.init
          (1 + Prng.int rng 5)
          (fun i ->
            Rule.make
              ~name:(Printf.sprintf "F%d" i)
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Rule.Plus else Rule.Minus))
      in
      let policy = Policy.make ~ds:Rule.Minus ~cr:Rule.Minus rules in
      let c = Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy doc in
      Helpers.cross_apply c Helpers.Annotate;
      let ok = ref (Helpers.cross_disagreement c = None) in
      for _ = 1 to 3 do
        let e = Helpers.random_hospital_expr rng in
        (match e.Xmlac_xpath.Ast.steps with
        | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Name "hospital"; _ } ]
        | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Wildcard; _ } ] ->
            ()
        | _ ->
            Helpers.cross_apply c
              (Helpers.Update (Xmlac_xpath.Pp.expr_to_string e));
            if Helpers.cross_disagreement c <> None then ok := false)
      done;
      !ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          tc "paper walkthrough" test_paper_walkthrough;
          tc "xmark lockstep" test_xmark_lockstep;
          tc "update sequence vs reference" test_update_sequence_reference;
          tc "annotation round trip" test_annotation_round_trip;
          tc "all ds/cr configurations" test_all_configurations_consistent;
          QCheck_alcotest.to_alcotest fuzz_prop;
        ] );
    ]
