(* Tests for the native XML store: document registry, the
   xmlac:annotate function and XPath-located updates. *)

module Store = Xmlac_xmldb.Store
module Update = Xmlac_xmldb.Update
module Tree = Xmlac_xml.Tree
module Serializer = Xmlac_xml.Serializer

let parse = Helpers.parse

let fresh_store () =
  let store = Store.create () in
  let doc = Xmlac_workload.Hospital.sample_document () in
  Store.add store ~name:"hospital" doc;
  (store, doc)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_store_add_get () =
  let store, doc = fresh_store () in
  Alcotest.(check bool) "same doc" true (Store.doc store "hospital" == doc);
  Alcotest.(check (list string)) "names" [ "hospital" ] (Store.names store)

let test_store_duplicate () =
  let store, _ = fresh_store () in
  let another = Xmlac_workload.Hospital.sample_document () in
  Alcotest.check_raises "dup" (Invalid_argument "Store.add: duplicate document hospital")
    (fun () -> Store.add store ~name:"hospital" another)

let test_store_remove () =
  let store, _ = fresh_store () in
  Store.remove store "hospital";
  Alcotest.(check bool) "gone" true (Store.doc_opt store "hospital" = None);
  Alcotest.(check (list string)) "names" [] (Store.names store)

let test_store_load_xml () =
  let store = Store.create () in
  (match Store.load_xml store ~name:"d" "<a><b sign=\"+\"/></a>" with
  | Ok doc -> Alcotest.(check int) "size" 2 (Tree.size doc)
  | Error e -> Alcotest.failf "load failed: %s" e);
  match Store.load_xml store ~name:"bad" "<a><b></a>" with
  | Ok _ -> Alcotest.fail "accepted malformed"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Annotation *)

let test_annotate_insert_then_replace () =
  let _, doc = fresh_store () in
  let patient = List.hd (Xmlac_xpath.Eval.eval doc (parse "//patient")) in
  (* xmlac:annotate inserts the sign attribute when absent... *)
  Store.annotate doc patient Tree.Plus;
  Alcotest.(check bool) "inserted" true (patient.Tree.sign = Some Tree.Plus);
  (* ...and replaces its value when present. *)
  Store.annotate doc patient Tree.Minus;
  Alcotest.(check bool) "replaced" true (patient.Tree.sign = Some Tree.Minus)

let test_annotate_all () =
  let store, doc = fresh_store () in
  let n = Store.annotate_all doc (parse "//patient") Tree.Plus in
  Alcotest.(check int) "three patients" 3 n;
  Alcotest.(check int) "signed" 3 (List.length (Tree.signed doc Tree.Plus));
  Store.clear_annotations doc;
  Alcotest.(check int) "cleared" 0 (List.length (Tree.signed doc Tree.Plus));
  ignore store

let test_annotation_serializes () =
  let _, doc = fresh_store () in
  ignore (Store.annotate_all doc (parse "//regular") Tree.Plus);
  let xml = Serializer.to_string doc in
  let needle = "<regular sign=\"+\">" in
  let rec go i =
    i + String.length needle <= String.length xml
    && (String.sub xml i (String.length needle) = needle || go (i + 1))
  in
  Alcotest.(check bool) "sign attribute in output" true (go 0)

let test_eval_ids () =
  let store, doc = fresh_store () in
  Alcotest.(check (list int)) "agrees with direct eval"
    (Helpers.ids doc "//patient")
    (Store.eval_ids store ~doc:"hospital" (parse "//patient"))

(* ------------------------------------------------------------------ *)
(* Updates *)

let test_delete_subtree () =
  let _, doc = fresh_store () in
  let before = Tree.size doc in
  let n = Update.delete doc (parse "//treatment") in
  Alcotest.(check int) "two roots" 2 n;
  Alcotest.(check int) "eight nodes gone" (before - 8) (Tree.size doc);
  Alcotest.(check int) "no experimentals" 0
    (Xmlac_xpath.Eval.count doc (parse "//experimental"))

let test_delete_nested_targets () =
  (* //\* selects ancestors before descendants; deleting an ancestor
     must not double-count its children. *)
  let _, doc = fresh_store () in
  let n = Update.delete doc (parse "//patient[treatment]") in
  Alcotest.(check int) "two patients" 2 n;
  let n2 = Update.delete doc (parse "//patients/*") in
  Alcotest.(check int) "remaining patient" 1 n2

let test_delete_root_rejected () =
  let _, doc = fresh_store () in
  Alcotest.check_raises "root"
    (Invalid_argument "Update.delete: cannot delete the document root")
    (fun () -> ignore (Update.delete doc (parse "/hospital")))

let test_delete_no_match () =
  let _, doc = fresh_store () in
  let before = Tree.size doc in
  Alcotest.(check int) "nothing" 0 (Update.delete doc (parse "//nosuch"));
  Alcotest.(check int) "unchanged" before (Tree.size doc)

let test_insert_fragment () =
  let _, doc = fresh_store () in
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:"celecoxib" "med");
  ignore (Tree.add_child frag reg ~value:"250" "bill");
  (* Graft under the patient without a treatment. *)
  let n =
    Update.insert doc ~at:(parse "//patient[psn = \"099\"]") ~fragment:frag
  in
  Alcotest.(check int) "one insertion" 1 n;
  Alcotest.(check int) "celecoxib present" 1
    (Xmlac_xpath.Eval.count doc (parse "//regular[med = \"celecoxib\"]"));
  Alcotest.(check int) "all patients treated" 3
    (Xmlac_xpath.Eval.count doc (parse "//patient[treatment]"));
  (* The document is still schema-valid. *)
  Alcotest.(check bool) "valid" true
    (Xmlac_xml.Dtd.is_valid Xmlac_workload.Hospital.dtd doc)

let test_insert_multiple_targets () =
  let _, doc = fresh_store () in
  let frag = Tree.create ~root_name:"staff" in
  let d = Tree.add_child frag (Tree.root frag) "doctor" in
  ignore (Tree.add_child frag d ~value:"S1" "sid");
  ignore (Tree.add_child frag d ~value:"doc" "name");
  ignore (Tree.add_child frag d ~value:"555" "phone");
  let n = Update.insert doc ~at:(parse "//staffinfo") ~fragment:frag in
  Alcotest.(check int) "one staffinfo" 1 n;
  Alcotest.(check int) "doctor added" 1
    (Xmlac_xpath.Eval.count doc (parse "//doctor"))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "xmldb"
    [
      ( "store",
        [
          tc "add/get" test_store_add_get;
          tc "duplicate rejected" test_store_duplicate;
          tc "remove" test_store_remove;
          tc "load_xml" test_store_load_xml;
        ] );
      ( "annotate",
        [
          tc "insert then replace" test_annotate_insert_then_replace;
          tc "annotate_all" test_annotate_all;
          tc "serializes as sign attribute" test_annotation_serializes;
          tc "eval_ids" test_eval_ids;
        ] );
      ( "update",
        [
          tc "delete subtree" test_delete_subtree;
          tc "nested targets" test_delete_nested_targets;
          tc "delete root rejected" test_delete_root_rejected;
          tc "delete no match" test_delete_no_match;
          tc "insert fragment" test_insert_fragment;
          tc "insert multiple targets" test_insert_multiple_targets;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* XQuery engine — appended suite. *)

module Xquery = Xmlac_xmldb.Xquery

let xq_store () =
  let store = Store.create () in
  Store.add store ~name:"hospital" (Xmlac_workload.Hospital.sample_document ());
  store

let test_xq_plain_query () =
  let store = xq_store () in
  match Xquery.run_exn store "doc(\"hospital\")(//patient)" with
  | Xquery.Nodes ns -> Alcotest.(check int) "patients" 3 (List.length ns)
  | Xquery.Annotated _ -> Alcotest.fail "expected nodes"

let test_xq_set_ops () =
  let store = xq_store () in
  let count q =
    match Xquery.run_exn store q with
    | Xquery.Nodes ns -> List.length ns
    | Xquery.Annotated _ -> Alcotest.fail "expected nodes"
  in
  Alcotest.(check int) "union" 4
    (count "doc(\"hospital\")(//patient union //regular)");
  Alcotest.(check int) "except" 1
    (count "doc(\"hospital\")(//patient except //patient[treatment])");
  Alcotest.(check int) "intersect" 2
    (count "doc(\"hospital\")(//patient intersect //patient[treatment])");
  Alcotest.(check int) "nested parens" 2
    (count
       "doc(\"hospital\")((//patient union //regular) except (//patient[psn = \"099\"] union //regular))")

let test_xq_for_return () =
  let store = xq_store () in
  match
    Xquery.run_exn store "for $n in doc(\"hospital\")(//name) return $n"
  with
  | Xquery.Nodes ns -> Alcotest.(check int) "names" 3 (List.length ns)
  | Xquery.Annotated _ -> Alcotest.fail "expected nodes"

let test_xq_annotate () =
  let store = xq_store () in
  (match
     Xquery.run_exn store
       "for $n in doc(\"hospital\")(//patient[treatment]) return xmlac:annotate($n, \"-\")"
   with
  | Xquery.Annotated n -> Alcotest.(check int) "two annotated" 2 n
  | Xquery.Nodes _ -> Alcotest.fail "expected annotation");
  let doc = Store.doc store "hospital" in
  Alcotest.(check int) "signs set" 2
    (List.length (Tree.signed doc Tree.Minus))

let test_xq_paper_annotation_query_executes () =
  (* The exact text Plan.to_xquery generates for the optimized
     Table 1 policy must parse, run, and reproduce the reference
     annotation. *)
  let store = xq_store () in
  let doc = Store.doc store "hospital" in
  let policy =
    Xmlac_core.Optimizer.optimize_policy Xmlac_workload.Hospital.policy
  in
  let plan = Xmlac_core.Plan.of_policy policy in
  let text = Xmlac_core.Plan.to_xquery ~doc_name:"hospital" plan in
  (match Xquery.run store text with
  | Ok (Xquery.Annotated n) ->
      Alcotest.(check int) "five accessible" 5 n
  | Ok (Xquery.Nodes _) -> Alcotest.fail "expected annotation"
  | Error m -> Alcotest.failf "did not run: %s" m);
  let plus =
    List.sort compare
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.signed doc Tree.Plus))
  in
  Alcotest.(check (list int)) "matches reference semantics"
    (Xmlac_core.Policy.accessible_ids policy doc)
    plus

let test_xq_empty_sequence () =
  (* [()] is the empty sequence, alone and as a set operand. *)
  let store = xq_store () in
  let count q =
    match Xquery.run_exn store q with
    | Xquery.Nodes ns -> List.length ns
    | Xquery.Annotated _ -> Alcotest.fail "expected nodes"
  in
  Alcotest.(check int) "bare" 0 (count "doc(\"hospital\")(())");
  Alcotest.(check int) "union with empty" 3
    (count "doc(\"hospital\")(//patient union ())");
  Alcotest.(check int) "except empty" 3
    (count "doc(\"hospital\")(//patient except ())");
  Alcotest.(check int) "empty except" 0
    (count "doc(\"hospital\")(() except //patient)");
  Alcotest.(check int) "intersect empty" 0
    (count "doc(\"hospital\")(//patient intersect ())")

let test_xq_degenerate_query_roundtrips () =
  (* A policy with no grants compiles to an annotation query whose
     primary union is empty; its generated text — doc("...")(()) in
     application form — must still parse and run (the regression this
     pins down: the printer used to emit doc("hospital")() which the
     parser rejected). *)
  let store = xq_store () in
  let no_grants =
    Xmlac_core.Policy_io.parse_exn "default deny\nconflict deny\ndeny //patient\n"
  in
  let text =
    Xmlac_core.Plan.to_xquery ~doc_name:"hospital"
      (Xmlac_core.Plan.of_policy no_grants)
  in
  (match Xquery.run store text with
  | Ok (Xquery.Annotated n) -> Alcotest.(check int) "nothing marked" 0 n
  | Ok (Xquery.Nodes _) -> Alcotest.fail "expected annotation"
  | Error m -> Alcotest.failf "generated text did not run: %s" m);
  (* The same for a rule-less policy. *)
  let rule_less = Xmlac_core.Policy_io.parse_exn "default deny\nconflict deny\n" in
  let plan = Xmlac_core.Plan.of_policy rule_less in
  let text = Xmlac_core.Plan.to_xquery ~doc_name:"hospital" plan in
  match Xquery.run store text with
  | Ok (Xquery.Annotated 0) -> ()
  | Ok _ -> Alcotest.fail "expected an empty annotation"
  | Error m -> Alcotest.failf "rule-less plan text did not run: %s" m

let test_xq_errors () =
  let store = xq_store () in
  let bad q =
    match Xquery.run store q with
    | Ok _ -> Alcotest.failf "accepted %S" q
    | Error _ -> ()
  in
  bad "doc(\"nosuch\")(//a)";
  bad "doc(\"hospital\")(//a";
  bad "for $n in doc(\"hospital\")(//a) return $m";
  bad "for $n in doc(\"hospital\")(//a) return xmlac:annotate($n, \"?\")";
  bad "doc(\"hospital\")(//a) trailing";
  bad "doc(\"hospital\")(not an xpath)"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xmldb-xquery"
    [
      ( "xquery",
        [
          tc "plain query" test_xq_plain_query;
          tc "set operators" test_xq_set_ops;
          tc "for/return" test_xq_for_return;
          tc "xmlac:annotate" test_xq_annotate;
          tc "generated annotation query executes"
            test_xq_paper_annotation_query_executes;
          tc "empty sequence" test_xq_empty_sequence;
          tc "degenerate query round-trips" test_xq_degenerate_query_roundtrips;
          tc "errors" test_xq_errors;
        ] );
    ]
