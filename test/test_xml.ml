(* Tests for the XML substrate: trees, serializer, parser, DTDs and the
   schema graph. *)

module Tree = Xmlac_xml.Tree
module Serializer = Xmlac_xml.Serializer
module Xml_parser = Xmlac_xml.Xml_parser
module Dtd = Xmlac_xml.Dtd
module Sg = Xmlac_xml.Schema_graph
module Prng = Xmlac_util.Prng

(* ------------------------------------------------------------------ *)
(* Tree *)

let small_doc () =
  let doc = Tree.create ~root_name:"a" in
  let root = Tree.root doc in
  let b = Tree.add_child doc root "b" in
  let c = Tree.add_child doc root "c" in
  let d = Tree.add_child doc b ~value:"x" "d" in
  (doc, root, b, c, d)

let test_tree_ids_unique () =
  let doc, _, _, _, _ = small_doc () in
  let ids = List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.nodes doc) in
  Alcotest.(check int) "distinct ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_tree_size () =
  let doc, _, _, _, _ = small_doc () in
  Alcotest.(check int) "size" 4 (Tree.size doc)

let test_tree_parent_children () =
  let doc, root, b, _, d = small_doc () in
  (* Physical identity: node values are cyclic (parent pointers). *)
  Alcotest.(check bool) "parent" true
    (match Tree.parent d with Some p -> p == b | None -> false);
  Alcotest.(check int) "root fanout" 2 (List.length (Tree.children root));
  Alcotest.(check bool) "root has no parent" true (Tree.parent root = None);
  ignore doc

let test_tree_descendants_order () =
  let doc, root, _, _, _ = small_doc () in
  let names = List.map (fun (n : Tree.node) -> n.Tree.name) (Tree.descendants root) in
  Alcotest.(check (list string)) "preorder" [ "b"; "d"; "c" ] names;
  ignore doc

let test_tree_ancestors_depth () =
  let _, _, b, _, d = small_doc () in
  Alcotest.(check int) "depth" 2 (Tree.depth d);
  Alcotest.(check (list string)) "ancestors nearest-first"
    [ "b"; "a" ]
    (List.map (fun (n : Tree.node) -> n.Tree.name) (Tree.ancestors d));
  ignore b

let test_tree_label_path () =
  let _, _, _, _, d = small_doc () in
  Alcotest.(check (list string)) "label path" [ "a"; "b"; "d" ]
    (Tree.label_path d)

let test_tree_delete () =
  let doc, _, b, _, _ = small_doc () in
  Tree.delete doc b;
  Alcotest.(check int) "size after delete" 2 (Tree.size doc);
  Alcotest.(check bool) "b gone" false (Tree.mem doc b)

let test_tree_delete_root_rejected () =
  let doc, root, _, _, _ = small_doc () in
  Alcotest.check_raises "root" (Invalid_argument "Tree.delete: cannot delete the root")
    (fun () -> Tree.delete doc root)

let test_tree_value_vs_children () =
  let doc, _, _, _, d = small_doc () in
  Alcotest.check_raises "child under value"
    (Invalid_argument "Tree.add_child: parent holds a text value") (fun () ->
      ignore (Tree.add_child doc d "e"))

let test_tree_find () =
  let doc, _, b, _, _ = small_doc () in
  (match Tree.find doc b.Tree.id with
  | Some n -> Alcotest.(check string) "found" "b" n.Tree.name
  | None -> Alcotest.fail "not found");
  Tree.delete doc b;
  Alcotest.(check bool) "gone from index" true (Tree.find doc b.Tree.id = None)

let test_tree_signs () =
  let doc, _, b, c, _ = small_doc () in
  Tree.set_sign doc b (Some Tree.Plus);
  Tree.set_sign doc c (Some Tree.Minus);
  Alcotest.(check int) "plus" 1 (List.length (Tree.signed doc Tree.Plus));
  Tree.clear_signs doc;
  Alcotest.(check int) "cleared" 0 (List.length (Tree.signed doc Tree.Plus))

let test_tree_copy_independent () =
  let doc, _, b, _, _ = small_doc () in
  Tree.set_sign doc b (Some Tree.Plus);
  let copy = Tree.copy doc in
  Alcotest.(check bool) "annotated equal" true (Tree.equal_annotated doc copy);
  Tree.delete doc b;
  Alcotest.(check int) "copy unaffected" 4 (Tree.size copy);
  Alcotest.(check bool) "ids preserved" true (Tree.find copy b.Tree.id <> None)

let test_tree_graft () =
  let doc, _, _, c, _ = small_doc () in
  let frag = Tree.create ~root_name:"f" in
  ignore (Tree.add_child frag (Tree.root frag) ~value:"v" "g");
  let grafted = Tree.graft doc c frag in
  Alcotest.(check string) "grafted name" "f" grafted.Tree.name;
  Alcotest.(check int) "size" 6 (Tree.size doc);
  let ids = List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.nodes doc) in
  Alcotest.(check int) "distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* The change set of a frozen generation lists written ids only: a
   sign write path-copies its ancestors, but their slots did not
   change, so they are not listed; an insert lists the born id, not
   the parent whose child list it extended; a delete lists the whole
   deleted subtree.  The write path-copies only the written node and
   its ancestors: the view frozen before it keeps every other record
   physically shared with the live tree. *)
let test_tree_freeze_change_set () =
  let doc, root, b, c, d = small_doc () in
  let view, _ = Tree.freeze doc in
  Tree.set_sign doc d (Some Tree.Plus);
  let shared (n : Tree.node) =
    Option.get (Tree.find view n.Tree.id) == Option.get (Tree.find doc n.Tree.id)
  in
  Alcotest.(check bool) "untouched record shared" true (shared c);
  List.iter
    (fun (n : Tree.node) ->
      Alcotest.(check bool) (n.Tree.name ^ " path-copied") false (shared n))
    [ d; b; root ];
  let _, st = Tree.freeze doc in
  Alcotest.(check (list int)) "sign write" [ d.Tree.id ] st.Tree.changed;
  Alcotest.(check bool) "signs only" false st.Tree.structural;
  let e = Tree.add_child doc c "e" in
  let _, st = Tree.freeze doc in
  Alcotest.(check (list int)) "insert" [ e.Tree.id ] st.Tree.changed;
  Alcotest.(check bool) "insert is structural" true st.Tree.structural;
  Tree.delete doc b;
  let _, st = Tree.freeze doc in
  Alcotest.(check (list int)) "delete" [ b.Tree.id; d.Tree.id ] st.Tree.changed;
  Alcotest.(check bool) "the root was never written" false
    (List.mem root.Tree.id st.Tree.changed)

let test_tree_equal_structure () =
  let a, _, _, _, _ = small_doc () in
  let b, _, _, _, _ = small_doc () in
  Alcotest.(check bool) "equal" true (Tree.equal_structure a b);
  let c, _, cb, _, _ = small_doc () in
  Tree.delete c cb;
  Alcotest.(check bool) "unequal" false (Tree.equal_structure a c)

(* ------------------------------------------------------------------ *)
(* Serializer / parser *)

let test_escape () =
  Alcotest.(check string) "escape" "&lt;a&gt; &amp; &quot;b&quot;"
    (Serializer.escape "<a> & \"b\"")

let test_serialize_shape () =
  let doc, _, b, _, _ = small_doc () in
  Tree.set_sign doc b (Some Tree.Plus);
  let s = Serializer.to_string doc in
  Alcotest.(check string) "xml" "<a><b sign=\"+\"><d>x</d></b><c/></a>" s

let test_serialize_no_signs () =
  let doc, _, b, _, _ = small_doc () in
  Tree.set_sign doc b (Some Tree.Plus);
  let s = Serializer.to_string ~signs:false doc in
  Alcotest.(check string) "xml" "<a><b><d>x</d></b><c/></a>" s

let test_byte_size_consistent () =
  let doc, _, _, _, _ = small_doc () in
  Alcotest.(check int) "byte_size"
    (String.length (Serializer.to_string doc))
    (Serializer.byte_size doc)

let test_parse_round_trip () =
  let doc, _, b, _, _ = small_doc () in
  Tree.set_sign doc b (Some Tree.Minus);
  let s = Serializer.to_string doc in
  let doc' = Xml_parser.parse_exn s in
  Alcotest.(check bool) "round trip (structure+signs)" true
    (Tree.equal_annotated doc doc')

let test_parse_indent_round_trip () =
  let doc, _, _, _, _ = small_doc () in
  let s = Serializer.to_string ~indent:true doc in
  let doc' = Xml_parser.parse_exn s in
  Alcotest.(check bool) "indented round trip" true (Tree.equal_structure doc doc')

let test_parse_escapes () =
  let doc = Xml_parser.parse_exn "<a><b>1 &lt; 2 &amp; 3 &gt; 2</b></a>" in
  match Tree.children (Tree.root doc) with
  | [ b ] ->
      Alcotest.(check (option string)) "unescaped" (Some "1 < 2 & 3 > 2")
        b.Tree.value
  | _ -> Alcotest.fail "expected one child"

let test_parse_comments_prolog () =
  let doc =
    Xml_parser.parse_exn
      "<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>"
  in
  Alcotest.(check int) "size" 2 (Tree.size doc)

let test_parse_errors () =
  let bad input =
    match Xml_parser.parse input with
    | Ok _ -> Alcotest.failf "accepted %S" input
    | Error _ -> ()
  in
  bad "<a><b></a>";
  bad "<a>";
  bad "<a></a><b/>";
  bad "<a>text<b/></a>";
  bad "<a foo=\"1\"/>";
  bad "<a sign=\"?\"/>"

let test_parse_error_position () =
  match Xml_parser.parse "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "accepted mismatched tags"
  | Error e -> Alcotest.(check int) "line" 2 e.Xml_parser.line

(* ------------------------------------------------------------------ *)
(* DTD *)

let hospital = Xmlac_workload.Hospital.dtd

let test_dtd_roundtrip_text () =
  let text = Dtd.to_string hospital in
  let dtd' = Dtd.parse_exn text in
  Alcotest.(check (list string)) "types preserved"
    (Dtd.element_types hospital) (Dtd.element_types dtd');
  Alcotest.(check string) "same rendering" text (Dtd.to_string dtd')

let test_dtd_parse_forms () =
  let dtd =
    Dtd.parse_exn
      "<!ELEMENT a (b+, c?)> <!ELEMENT b (#PCDATA)> <!ELEMENT c EMPTY>"
  in
  Alcotest.(check string) "root" "a" (Dtd.root dtd);
  Alcotest.(check bool) "pcdata" true (Dtd.content dtd "b" = Dtd.Pcdata);
  Alcotest.(check bool) "empty" true (Dtd.content dtd "c" = Dtd.Empty)

let test_dtd_parse_rejects () =
  let bad s =
    match Dtd.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad
    "<!ELEMENT a (b | c, d)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>";
  bad "<!ELEMENT a (undeclared)>";
  bad "";
  bad "<!ELEMENT a (b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>"

let test_dtd_child_types () =
  Alcotest.(check (list string)) "patient kids" [ "psn"; "name"; "treatment" ]
    (Dtd.child_types hospital "patient")

let test_validate_sample () =
  let doc = Xmlac_workload.Hospital.sample_document () in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Dtd.reason) (Dtd.validate hospital doc))

let test_validate_catches_missing_child () =
  let doc = Tree.create ~root_name:"hospital" in
  let dept = Tree.add_child doc (Tree.root doc) "dept" in
  ignore (Tree.add_child doc dept "patients");
  let vs = Dtd.validate hospital doc in
  Alcotest.(check bool) "violation found" true (vs <> [])

let test_validate_catches_bad_root () =
  let doc = Tree.create ~root_name:"dept" in
  let vs = Dtd.validate hospital doc in
  Alcotest.(check bool) "bad root" true (vs <> [])

let test_validate_catches_choice_mix () =
  let dtd' =
    Dtd.make ~root:"treatment"
      [
        ( "treatment",
          Dtd.Choice
            [ { elem = "regular"; occ = Dtd.Optional };
              { elem = "experimental"; occ = Dtd.Optional } ] );
        ("regular", Dtd.Empty);
        ("experimental", Dtd.Empty);
      ]
  in
  let doc = Tree.create ~root_name:"treatment" in
  ignore (Tree.add_child doc (Tree.root doc) "regular");
  ignore (Tree.add_child doc (Tree.root doc) "experimental");
  let vs = Dtd.validate dtd' doc in
  Alcotest.(check bool) "mixed branches" true
    (List.exists
       (fun v -> v.Dtd.reason = "children from more than one choice branch")
       vs)

let test_validate_undeclared () =
  let doc = Tree.create ~root_name:"hospital" in
  ignore (Tree.add_child doc (Tree.root doc) "alien");
  let vs = Dtd.validate hospital doc in
  Alcotest.(check bool) "undeclared" true
    (List.exists (fun v -> v.Dtd.reason = "undeclared element type") vs)

(* ------------------------------------------------------------------ *)
(* Schema graph *)

let sg = Sg.build hospital

let test_sg_non_recursive () =
  Alcotest.(check bool) "hospital non-recursive" false (Sg.is_recursive sg)

let test_sg_recursive_detection () =
  let dtd =
    Dtd.make ~root:"a"
      [
        ("a", Dtd.Seq [ { elem = "b"; occ = Dtd.Star } ]);
        ("b", Dtd.Seq [ { elem = "a"; occ = Dtd.Star } ]);
      ]
  in
  Alcotest.(check bool) "recursive" true (Sg.is_recursive (Sg.build dtd))

let test_sg_parents () =
  Alcotest.(check (list string)) "bill parents" [ "regular"; "experimental" ]
    (Sg.parents sg "bill");
  Alcotest.(check (list string)) "name parents"
    [ "patient"; "nurse"; "doctor" ]
    (Sg.parents sg "name")

let test_sg_reachable () =
  Alcotest.(check bool) "hospital->bill" true
    (Sg.reachable sg ~src:"hospital" ~dst:"bill");
  Alcotest.(check bool) "patient->experimental" true
    (Sg.reachable sg ~src:"patient" ~dst:"experimental");
  Alcotest.(check bool) "regular->experimental" false
    (Sg.reachable sg ~src:"regular" ~dst:"experimental");
  Alcotest.(check bool) "not self" false (Sg.reachable sg ~src:"bill" ~dst:"bill")

let test_sg_paths_between () =
  Alcotest.(check (list (list string))) "patient=>experimental"
    [ [ "patient"; "treatment"; "experimental" ] ]
    (Sg.paths_between sg ~src:"patient" ~dst:"experimental");
  Alcotest.(check int) "dept=>name paths" 3
    (List.length (Sg.paths_between sg ~src:"dept" ~dst:"name"))

let test_sg_paths_to () =
  Alcotest.(check (list (list string))) "paths to med"
    [ [ "hospital"; "dept"; "patients"; "patient"; "treatment"; "regular"; "med" ] ]
    (Sg.paths_to sg "med")

let test_sg_root_paths_cover_types () =
  let paths = Sg.root_paths sg in
  let endpoints =
    List.sort_uniq String.compare
      (List.filter_map (fun p -> List.nth_opt p (List.length p - 1)) paths)
  in
  Alcotest.(check (list string)) "every type reachable"
    (List.sort String.compare (Dtd.element_types hospital))
    endpoints

let test_sg_max_depth () =
  Alcotest.(check int) "max depth" 7 (Sg.max_depth sg)

let test_sg_covers () =
  let doc = Xmlac_workload.Hospital.sample_document () in
  Alcotest.(check bool) "sample lies on the paths" true
    (Sg.covers sg (Tree.root doc));
  let patient =
    List.find (fun (n : Tree.node) -> n.Tree.name = "patient") (Tree.nodes doc)
  in
  Alcotest.(check bool) "a subtree on the paths" true (Sg.covers sg patient);
  (* A declared element at an undeclared position: a [bill] is a DTD
     type, but never a child of [treatment]. *)
  let t = Tree.add_child doc patient "treatment" in
  let bill = Tree.add_child doc t "bill" in
  Alcotest.(check bool) "misplaced child" false (Sg.covers sg t);
  Alcotest.(check bool) "misplaced root" false (Sg.covers sg bill);
  Alcotest.(check bool) "whole document" false (Sg.covers sg (Tree.root doc));
  Alcotest.(check bool) "wrong root" false
    (Sg.covers sg (Tree.root (Tree.create ~root_name:"dept")))

let test_sg_rejects_recursive_enumeration () =
  let dtd =
    Dtd.make ~root:"a" [ ("a", Dtd.Seq [ { elem = "a"; occ = Dtd.Star } ]) ]
  in
  let rsg = Sg.build dtd in
  Alcotest.(check bool) "recursive" true (Sg.is_recursive rsg);
  try
    ignore (Sg.root_paths rsg);
    Alcotest.fail "root_paths should raise"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Properties *)

let roundtrip_prop =
  QCheck2.Test.make ~name:"serialize/parse round trip (random hospital docs)"
    ~count:50 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      Tree.iter
        (fun n ->
          match Prng.int rng 3 with
          | 0 -> Tree.set_sign doc n (Some Tree.Plus)
          | 1 -> Tree.set_sign doc n (Some Tree.Minus)
          | _ -> ())
        doc;
      let doc' = Xml_parser.parse_exn (Serializer.to_string doc) in
      Tree.equal_annotated doc doc')

let validate_prop =
  QCheck2.Test.make ~name:"generated hospital docs validate" ~count:50
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      Dtd.is_valid hospital doc)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xml"
    [
      ( "tree",
        [
          tc "unique ids" test_tree_ids_unique;
          tc "size" test_tree_size;
          tc "parent/children" test_tree_parent_children;
          tc "descendants preorder" test_tree_descendants_order;
          tc "ancestors/depth" test_tree_ancestors_depth;
          tc "label path" test_tree_label_path;
          tc "delete" test_tree_delete;
          tc "delete root rejected" test_tree_delete_root_rejected;
          tc "value vs children" test_tree_value_vs_children;
          tc "find/index" test_tree_find;
          tc "signs" test_tree_signs;
          tc "copy independence" test_tree_copy_independent;
          tc "graft" test_tree_graft;
          tc "structural equality" test_tree_equal_structure;
          tc "freeze change set" test_tree_freeze_change_set;
        ] );
      ( "serializer",
        [
          tc "escape" test_escape;
          tc "shape" test_serialize_shape;
          tc "signs off" test_serialize_no_signs;
          tc "byte_size" test_byte_size_consistent;
        ] );
      ( "parser",
        [
          tc "round trip" test_parse_round_trip;
          tc "indented round trip" test_parse_indent_round_trip;
          tc "escapes" test_parse_escapes;
          tc "comments and prolog" test_parse_comments_prolog;
          tc "rejects malformed" test_parse_errors;
          tc "error position" test_parse_error_position;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "dtd",
        [
          tc "text round trip" test_dtd_roundtrip_text;
          tc "parse forms" test_dtd_parse_forms;
          tc "parse rejects" test_dtd_parse_rejects;
          tc "child types" test_dtd_child_types;
          tc "sample validates" test_validate_sample;
          tc "missing child" test_validate_catches_missing_child;
          tc "bad root" test_validate_catches_bad_root;
          tc "choice mix" test_validate_catches_choice_mix;
          tc "undeclared type" test_validate_undeclared;
          QCheck_alcotest.to_alcotest validate_prop;
        ] );
      ( "schema graph",
        [
          tc "non-recursive" test_sg_non_recursive;
          tc "recursion detection" test_sg_recursive_detection;
          tc "parents" test_sg_parents;
          tc "reachability" test_sg_reachable;
          tc "paths between" test_sg_paths_between;
          tc "paths to" test_sg_paths_to;
          tc "root paths cover types" test_sg_root_paths_cover_types;
          tc "max depth" test_sg_max_depth;
          tc "covers" test_sg_covers;
          tc "recursive enumeration rejected"
            test_sg_rejects_recursive_enumeration;
        ] );
    ]
