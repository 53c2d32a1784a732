(* Tests for the XPath fragment: parsing, printing, evaluation,
   containment, schema-level matching, expansion and generation. *)

module Ast = Xmlac_xpath.Ast
module Parser = Xmlac_xpath.Parser
module Pp = Xmlac_xpath.Pp
module Eval = Xmlac_xpath.Eval
module Containment = Xmlac_xpath.Containment
module Pattern = Xmlac_xpath.Pattern
module Schema_match = Xmlac_xpath.Schema_match
module Expand = Xmlac_xpath.Expand
module Qgen = Xmlac_xpath.Qgen
module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Prng = Xmlac_util.Prng

let parse = Helpers.parse
let hospital_sg = Lazy.force Helpers.hospital_sg

(* ------------------------------------------------------------------ *)
(* Parser & printer *)

let test_parse_shapes () =
  let e = parse "//patient[treatment]/name" in
  (match e.Ast.steps with
  | [ s1; s2 ] ->
      Alcotest.(check bool) "descendant first" true (s1.Ast.axis = Ast.Descendant);
      Alcotest.(check bool) "child second" true (s2.Ast.axis = Ast.Child);
      Alcotest.(check int) "one qual" 1 (List.length s1.Ast.quals)
  | _ -> Alcotest.fail "expected two steps");
  let e = parse "/hospital" in
  match e.Ast.steps with
  | [ s ] -> Alcotest.(check bool) "child-anchored" true (s.Ast.axis = Ast.Child)
  | _ -> Alcotest.fail "expected one step"

let test_parse_value_preds () =
  match (parse "//regular[bill > 1000]").Ast.steps with
  | [ { Ast.quals = [ Ast.Value ([ b ], Ast.Gt, "1000") ]; _ } ] ->
      Alcotest.(check bool) "bill step" true (b.Ast.test = Ast.Name "bill")
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_self_value () =
  match (parse "//med[. = \"x\"]").Ast.steps with
  | [ { Ast.quals = [ Ast.Value ([], Ast.Eq, "x") ]; _ } ] -> ()
  | _ -> Alcotest.fail "self value predicate"

let test_parse_conjunction () =
  match (parse "//a[b and c = \"d\"]").Ast.steps with
  | [ { Ast.quals = [ Ast.And (Ast.Exists _, Ast.Value _) ]; _ } ] -> ()
  | _ -> Alcotest.fail "conjunction"

let test_parse_descendant_in_pred () =
  match (parse "//patient[.//experimental]").Ast.steps with
  | [ { Ast.quals = [ Ast.Exists [ s ] ]; _ } ] ->
      Alcotest.(check bool) "descendant" true (s.Ast.axis = Ast.Descendant)
  | _ -> Alcotest.fail "descendant in predicate"

let test_parse_rejects () =
  let bad s =
    match Parser.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "patient";
  bad "//";
  bad "//a[";
  bad "//a[]";
  bad "//a[b = ]";
  bad "//a]";
  bad "//a[.]";
  bad "//a trailing"

let test_pp_roundtrip_cases () =
  List.iter
    (fun s ->
      let e = parse s in
      let printed = Pp.expr_to_string e in
      let e' = parse printed in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s" s printed)
        true (Ast.equal_expr e e'))
    [
      "//patient"; "/hospital/dept"; "//patient[treatment]/name";
      "//patient[.//experimental]"; "//regular[med = \"celecoxib\"]";
      "//regular[bill > 1000]"; "//a[b and c = \"d\"]"; "//a[b/c][d]";
      "//*[*]"; "//med[. = \"x\"]"; "//a[b != \"q\"]"; "//a[b <= 3]";
      "/a//b/c//d";
    ]

let test_ast_size () =
  Alcotest.(check int) "size counts qual steps" 3
    (Ast.size (parse "//patient[treatment]/name"));
  Alcotest.(check int) "self preds add nothing" 1
    (Ast.size (parse "//med[. = \"x\"]"))

let test_strip_quals () =
  Alcotest.(check string) "stripped" "//patient/name"
    (Pp.expr_to_string (Ast.strip_quals (parse "//patient[treatment]/name")))

let test_has_descendant_in_qual () =
  Alcotest.(check bool) "yes" true
    (Ast.has_descendant_in_qual (parse "//patient[.//experimental]"));
  Alcotest.(check bool) "no" false
    (Ast.has_descendant_in_qual (parse "//patient[treatment]//name"))

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let doc = Helpers.hospital_doc ()

let test_eval_counts () =
  List.iter
    (fun (q, n) ->
      Alcotest.(check int) q n (Eval.count doc (parse q)))
    [
      ("//patient", 3);
      ("//patient[treatment]", 2);
      ("//patient[.//experimental]", 1);
      ("//patient/name", 3);
      ("//regular", 1);
      ("//regular[med = \"celecoxib\"]", 0);
      ("//regular[med = \"enoxaparin\"]", 1);
      ("//regular[bill > 1000]", 0);
      ("//experimental[bill > 1000]", 1);
      ("//experimental[bill >= 1600]", 1);
      ("//experimental[bill > 1600]", 0);
      ("//bill[. < 1000]", 1);
      ("//bill[. != 700]", 1);
      ("/hospital", 1);
      ("/hospital/dept/patients/patient", 3);
      ("/patient", 0);
      ("//*", 21);
      ("//patient[psn and name]", 3);
      ("//patient[psn][name]", 3);
      ("//patient[psn = \"042\"]", 1);
      ("//hospital", 1);
      ("/hospital//bill", 2);
      ("//dept/*", 2);
    ]

let test_eval_order_dedup () =
  (* //hospital//name and //name select the same nodes, once each, in
     document order. *)
  let a = Eval.eval doc (parse "//name") in
  let ids = List.map (fun (n : Tree.node) -> n.Tree.id) a in
  Alcotest.(check bool) "sorted doc order" true
    (ids = List.sort compare ids);
  Alcotest.(check int) "dedup" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_eval_rel () =
  let patients = Eval.eval doc (parse "//patient") in
  match patients with
  | p :: _ ->
      let names =
        Eval.eval_rel doc p [ Ast.step Ast.Child (Ast.Name "name") ]
      in
      Alcotest.(check int) "one name" 1 (List.length names);
      Alcotest.(check int) "self on empty path" 1
        (List.length (Eval.eval_rel doc p []))
  | [] -> Alcotest.fail "no patients"

let test_eval_matches () =
  let e = parse "//patient[treatment]" in
  let yes = Eval.eval doc e in
  List.iter
    (fun n -> Alcotest.(check bool) "matches" true (Eval.matches doc e n))
    yes

(* ------------------------------------------------------------------ *)
(* Containment *)

let contained p q = Containment.contained_in (parse p) (parse q)

let test_containment_table () =
  let cases =
    [
      (* (p, q, p ⊑ q) — the paper's Table 3 decisions first. *)
      ("//patient[treatment]/name", "//patient/name", true);
      ("//regular[med = \"celecoxib\"]", "//regular", true);
      ("//regular[bill > 1000]", "//regular", true);
      ("//patient[treatment]", "//patient", true);
      ("//patient", "//patient[treatment]", false);
      (* Axis structure. *)
      ("/hospital/dept", "//dept", true);
      ("//dept", "/hospital/dept", false);
      ("//a/b", "//b", true);
      ("//b", "//a/b", false);
      ("//a/b", "//a//b", true);
      ("//a//b", "//a/b", false);
      ("/a/b/c", "//a//c", true);
      ("//a//c", "/a/b/c", false);
      (* Wildcards. *)
      ("//a", "//*", true);
      ("//*", "//a", false);
      ("//a/b", "//*/b", true);
      ("//*/b", "//a/b", false);
      (* Predicates. *)
      ("//a[b][c]", "//a[b]", true);
      ("//a[b]", "//a[b][c]", false);
      ("//a[b/c]", "//a[b]", true);
      ("//a[b]", "//a[b/c]", false);
      ("//a[b = \"x\"]", "//a[b]", true);
      ("//a[b]", "//a[b = \"x\"]", false);
      ("//a[.//b]", "//a[.//b]", true);
      ("//a[b/c]", "//a[.//c]", true);
      ("//a[.//c]", "//a[b/c]", false);
      (* Value implication. *)
      ("//a[b > 1000]", "//a[b > 500]", true);
      ("//a[b > 500]", "//a[b > 1000]", false);
      ("//a[b = 700]", "//a[b < 1000]", true);
      ("//a[b = 700]", "//a[b > 1000]", false);
      ("//a[b >= 10]", "//a[b > 5]", true);
      ("//a[b > 5]", "//a[b >= 5]", true);
      ("//a[b >= 5]", "//a[b > 5]", false);
      ("//a[b = \"x\"]", "//a[b != \"y\"]", true);
      ("//a[b = \"x\"]", "//a[b != \"x\"]", false);
      ("//a[b < 5]", "//a[b <= 5]", true);
      ("//a[b <= 5]", "//a[b < 5]", false);
      (* Identical. *)
      ("//patient[treatment]", "//patient[treatment]", true);
      (* Unrelated. *)
      ("//regular", "//patient", false);
      ("//a/b", "//a/c", false);
    ]
  in
  List.iter
    (fun (p, q, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s in %s" p q)
        want (contained p q))
    cases

let test_equivalent () =
  Alcotest.(check bool) "refl" true
    (Containment.equivalent (parse "//a[b][c]") (parse "//a[c][b]"));
  Alcotest.(check bool) "not equiv" false
    (Containment.equivalent (parse "//a[b]") (parse "//a"))

let test_comparable () =
  Alcotest.(check bool) "comparable" true
    (Containment.comparable (parse "//patient[treatment]") (parse "//patient"));
  Alcotest.(check bool) "incomparable" false
    (Containment.comparable (parse "//regular") (parse "//experimental"))

let test_implies () =
  let i a b = Containment.implies a b in
  Alcotest.(check bool) "eq->lt" true (i (Ast.Eq, "3") (Ast.Lt, "5"));
  Alcotest.(check bool) "eq->eq numeric" true (i (Ast.Eq, "3.0") (Ast.Eq, "3"));
  Alcotest.(check bool) "gt chain" true (i (Ast.Gt, "10") (Ast.Gt, "9"));
  Alcotest.(check bool) "not weaker" false (i (Ast.Gt, "9") (Ast.Gt, "10"));
  Alcotest.(check bool) "neq same" true (i (Ast.Neq, "a") (Ast.Neq, "a"));
  Alcotest.(check bool) "le->neq" true (i (Ast.Lt, "5") (Ast.Neq, "7"))

let test_pattern_structure () =
  let p = Pattern.of_expr (parse "//patient[treatment]/name") in
  Alcotest.(check int) "spine length (root + 2 steps)" 3
    (List.length p.Pattern.spine);
  Alcotest.(check int) "node count" 4 p.Pattern.count;
  let out = Pattern.output p in
  Alcotest.(check bool) "output label" true
    (out.Pattern.label = Pattern.Label "name")

(* Soundness: if the homomorphism test says p ⊑ q then evaluation
   agrees on random documents. *)
let containment_sound_prop =
  QCheck2.Test.make ~name:"containment is sound on random docs/exprs"
    ~count:200 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let p = Helpers.random_hospital_expr rng in
      let q = Helpers.random_hospital_expr rng in
      if Containment.contained_in p q then begin
        let set_q = Eval.node_set doc q in
        List.for_all
          (fun (n : Tree.node) -> Hashtbl.mem set_q n.Tree.id)
          (Eval.eval doc p)
      end
      else true)

let containment_reflexive_prop =
  QCheck2.Test.make ~name:"containment is reflexive" ~count:100
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let p = Helpers.random_hospital_expr rng in
      Containment.contained_in p p)

(* ------------------------------------------------------------------ *)
(* Schema matching *)

let test_spine_matches_path () =
  let m e path = Schema_match.spine_matches_path (parse e) path in
  Alcotest.(check bool) "exact" true
    (m "/hospital/dept" [ "hospital"; "dept" ]);
  Alcotest.(check bool) "descendant gap" true
    (m "//med" [ "hospital"; "dept"; "patients"; "patient"; "treatment";
                 "regular"; "med" ]);
  Alcotest.(check bool) "must consume all" false
    (m "/hospital" [ "hospital"; "dept" ]);
  Alcotest.(check bool) "wildcard" true (m "/hospital/*" [ "hospital"; "dept" ])

let test_matched_root_paths () =
  let paths = Schema_match.matched_root_paths hospital_sg (parse "//name") in
  Alcotest.(check int) "three name paths" 3 (List.length paths);
  let paths =
    Schema_match.matched_root_paths hospital_sg
      (parse "//patient[.//experimental]")
  in
  Alcotest.(check int) "patient path" 1 (List.length paths)

let test_selected_types () =
  Alcotest.(check (list string)) "bill" [ "bill" ]
    (Schema_match.selected_types hospital_sg (parse "//regular/bill"));
  Alcotest.(check (list string)) "dept kids" [ "patients"; "staffinfo" ]
    (Schema_match.selected_types hospital_sg (parse "//dept/*"))

let test_satisfiable () =
  Alcotest.(check bool) "ok" true
    (Schema_match.satisfiable hospital_sg (parse "//patient/name"));
  Alcotest.(check bool) "wrong child" false
    (Schema_match.satisfiable hospital_sg (parse "//patient/bill"));
  Alcotest.(check bool) "impossible pred" false
    (Schema_match.satisfiable hospital_sg (parse "//patient[bill]"));
  Alcotest.(check bool) "possible pred" true
    (Schema_match.satisfiable hospital_sg (parse "//patient[.//bill]"))

let test_overlap_disjoint () =
  let ov a b = Schema_match.overlap hospital_sg (parse a) (parse b) in
  Alcotest.(check bool) "same type" true (ov "//patient" "//patient[treatment]");
  Alcotest.(check bool) "disjoint types" false (ov "//regular" "//experimental");
  Alcotest.(check bool) "same type different paths" false
    (ov "//regular/bill" "//experimental/bill");
  Alcotest.(check bool) "name overlap" true (ov "//name" "//patient/name");
  Alcotest.(check bool) "staff vs patient name" false
    (ov "//nurse/name" "//patient/name")

(* Footprints are the overlap test precomputed: two singleton
   footprints meet exactly when the expressions overlap. *)
let footprint_overlap_prop =
  QCheck2.Test.make ~name:"footprints meet iff overlap" ~count:200
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let p = Helpers.random_hospital_expr rng in
      let q =
        if Prng.int rng 4 = 0 then parse "//patient/bill"
        else Helpers.random_hospital_expr rng
      in
      let fp e = Schema_match.footprint hospital_sg [ e ] in
      Schema_match.footprints_meet (fp p) (fp q)
      = Schema_match.overlap hospital_sg p q
      && Schema_match.footprint_is_empty (fp q)
         = not (Schema_match.satisfiable hospital_sg q))

(* Disjointness is sound: if schema says disjoint, evaluations never
   intersect on valid documents. *)
let disjoint_sound_prop =
  QCheck2.Test.make ~name:"schema disjointness is sound" ~count:200
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let p = Helpers.random_hospital_expr rng in
      let q = Helpers.random_hospital_expr rng in
      if Schema_match.disjoint hospital_sg p q then begin
        let set_q = Eval.node_set doc q in
        not
          (List.exists
             (fun (n : Tree.node) -> Hashtbl.mem set_q n.Tree.id)
             (Eval.eval doc p))
      end
      else true)

(* ------------------------------------------------------------------ *)
(* Expansion *)

let expand_strings ?schema e =
  List.sort String.compare
    (List.map Pp.expr_to_string (Expand.expand ?schema (parse e)))

let test_expand_r3 () =
  (* The paper's example: R3 = //patient[treatment] expands to
     {//patient, //patient/treatment}. *)
  Alcotest.(check (list string)) "R3"
    [ "//patient"; "//patient/treatment" ]
    (expand_strings "//patient[treatment]")

let test_expand_r5_schema () =
  (* R5 = //patient[.//experimental] expands through the schema to
     //patient/treatment and //patient/treatment/experimental. *)
  Alcotest.(check (list string)) "R5"
    [ "//patient"; "//patient/treatment"; "//patient/treatment/experimental" ]
    (expand_strings ~schema:hospital_sg "//patient[.//experimental]")

let test_expand_r5_no_schema () =
  (* Without a schema the descendant step stays. *)
  Alcotest.(check (list string)) "R5 raw"
    [ "//patient"; "//patient//experimental" ]
    (expand_strings "//patient[.//experimental]")

let test_expand_nested () =
  Alcotest.(check (list string)) "nested preds"
    [ "//a"; "//a/b"; "//a/b/c" ]
    (expand_strings "//a[b[c]]")

let test_expand_value_pred () =
  Alcotest.(check (list string)) "value pred path"
    [ "//regular"; "//regular/med" ]
    (expand_strings "//regular[med = \"celecoxib\"]")

let test_expand_conjunction () =
  Alcotest.(check (list string)) "conjunction"
    [ "//a"; "//a/b"; "//a/c" ]
    (expand_strings "//a[b and c]")

let test_expand_spine_only () =
  Alcotest.(check (list string)) "no predicates"
    [ "//patient/name" ]
    (expand_strings "//patient/name")

let test_expand_mid_spine_pred () =
  Alcotest.(check (list string)) "mid-spine"
    [ "//patient/name"; "//patient/treatment" ]
    (expand_strings "//patient[treatment]/name")

(* ------------------------------------------------------------------ *)
(* Generation *)

let test_qgen_satisfiable () =
  let rng = Prng.create ~seed:99L in
  for _ = 1 to 200 do
    let e = Qgen.gen_expr ~config:Helpers.hospital_qgen_config rng hospital_sg in
    Alcotest.(check bool)
      (Pp.expr_to_string e)
      true
      (Schema_match.satisfiable hospital_sg e)
  done

let test_qgen_targeting () =
  let rng = Prng.create ~seed:100L in
  for _ = 1 to 50 do
    let e = Qgen.gen_targeting rng hospital_sg ~target:"bill" in
    let types = Schema_match.selected_types hospital_sg e in
    Alcotest.(check bool) "ends at bill or wildcard-including-bill" true
      (List.mem "bill" types)
  done

let test_qgen_deterministic () =
  let gen seed =
    let rng = Prng.create ~seed in
    List.init 10 (fun _ ->
        Pp.expr_to_string (Qgen.gen_expr rng hospital_sg))
  in
  Alcotest.(check (list string)) "same seed same exprs" (gen 7L) (gen 7L)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "xpath"
    [
      ( "parser",
        [
          tc "shapes" test_parse_shapes;
          tc "value predicates" test_parse_value_preds;
          tc "self value" test_parse_self_value;
          tc "conjunction" test_parse_conjunction;
          tc "descendant in predicate" test_parse_descendant_in_pred;
          tc "rejects malformed" test_parse_rejects;
          tc "pp round trip" test_pp_roundtrip_cases;
          tc "ast size" test_ast_size;
          tc "strip_quals" test_strip_quals;
          tc "has_descendant_in_qual" test_has_descendant_in_qual;
        ] );
      ( "eval",
        [
          tc "counts on the hospital document" test_eval_counts;
          tc "order and dedup" test_eval_order_dedup;
          tc "relative paths" test_eval_rel;
          tc "matches" test_eval_matches;
        ] );
      ( "containment",
        [
          tc "decision table" test_containment_table;
          tc "equivalence" test_equivalent;
          tc "comparable" test_comparable;
          tc "value implication" test_implies;
          tc "pattern structure" test_pattern_structure;
          QCheck_alcotest.to_alcotest containment_sound_prop;
          QCheck_alcotest.to_alcotest containment_reflexive_prop;
        ] );
      ( "schema match",
        [
          tc "spine vs label path" test_spine_matches_path;
          tc "matched root paths" test_matched_root_paths;
          tc "selected types" test_selected_types;
          tc "satisfiability" test_satisfiable;
          tc "overlap/disjoint" test_overlap_disjoint;
          QCheck_alcotest.to_alcotest disjoint_sound_prop;
          QCheck_alcotest.to_alcotest footprint_overlap_prop;
        ] );
      ( "expand",
        [
          tc "paper example R3" test_expand_r3;
          tc "paper example R5 (schema)" test_expand_r5_schema;
          tc "R5 without schema" test_expand_r5_no_schema;
          tc "nested predicates" test_expand_nested;
          tc "value predicate path" test_expand_value_pred;
          tc "conjunction" test_expand_conjunction;
          tc "spine only" test_expand_spine_only;
          tc "mid-spine predicate" test_expand_mid_spine_pred;
        ] );
      ( "qgen",
        [
          tc "satisfiable by construction" test_qgen_satisfiable;
          tc "targeting" test_qgen_targeting;
          tc "deterministic" test_qgen_deterministic;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Reference evaluator cross-check — appended suite.

   The production evaluator streams and short-circuits; this naive
   reference materializes every intermediate node set with the textbook
   semantics.  Any divergence on random documents and expressions is a
   bug in one of them. *)

module Reference = struct
  open Ast

  let test_ok test (n : Tree.node) =
    match test with Wildcard -> true | Name l -> String.equal l n.Tree.name

  let dedup nodes =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (n : Tree.node) ->
        if Hashtbl.mem seen n.Tree.id then false
        else begin
          Hashtbl.replace seen n.Tree.id ();
          true
        end)
      nodes

  (* Every step's result is a set in document order: deduplicated,
     then sorted by preorder rank. *)
  let in_preorder rank nodes =
    List.sort
      (fun (a : Tree.node) (b : Tree.node) ->
        Int.compare (Hashtbl.find rank a.Tree.id) (Hashtbl.find rank b.Tree.id))
      (dedup nodes)

  let rec select_path rank context p = List.fold_left (select_step rank) context p

  and select_step rank context s =
    let candidates =
      match s.axis with
      | Child -> List.concat_map Tree.children context
      | Descendant -> List.concat_map Tree.descendants context
    in
    in_preorder rank candidates
    |> List.filter (test_ok s.test)
    |> List.filter (fun n -> List.for_all (qual_ok rank n) s.quals)

  and qual_ok rank n = function
    | Exists p -> select_path rank [ n ] p <> []
    | Value (p, op, d) ->
        List.exists
          (fun (m : Tree.node) ->
            match m.Tree.value with
            | Some v -> cmp_holds op v d
            | None -> false)
          (select_path rank [ n ] p)
    | And (a, b) -> qual_ok rank n a && qual_ok rank n b

  let eval t (e : expr) =
    let rank = Hashtbl.create 64 in
    Tree.iter (fun n -> Hashtbl.replace rank n.Tree.id (Hashtbl.length rank)) t;
    match e.steps with
    | [] -> [ Tree.root t ]
    | first :: rest ->
        let initial =
          let candidates =
            match first.axis with
            | Child -> [ Tree.root t ]
            | Descendant -> Tree.descendant_or_self (Tree.root t)
          in
          List.filter
            (fun n ->
              test_ok first.test n
              && List.for_all (qual_ok rank n) first.quals)
            candidates
        in
        select_path rank initial rest
end

let ids_of nodes = List.map (fun (n : Tree.node) -> n.Tree.id) nodes

let eval_matches_reference_prop =
  QCheck2.Test.make ~name:"streaming evaluator = reference evaluator"
    ~count:300 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let ok = ref true in
      for _ = 1 to 5 do
        let e = Helpers.random_hospital_expr rng in
        if ids_of (Eval.eval doc e) <> ids_of (Reference.eval doc e) then
          ok := false
      done;
      !ok)

let test_eval_matches_reference_fixed () =
  let doc = Helpers.hospital_doc () in
  List.iter
    (fun q ->
      let e = parse q in
      Alcotest.(check (list int)) q
        (ids_of (Reference.eval doc e))
        (ids_of (Eval.eval doc e)))
    [
      "//patient"; "//patient[treatment]/name"; "//patient[.//experimental]";
      "//*"; "//dept/*"; "/hospital//bill"; "//bill[. > 1000]";
      "//patient[psn and name]"; "//name"; "/hospital/dept/patients/patient";
      "//*/*";
    ]

let () =
  Alcotest.run ~and_exit:false "xpath-extra"
    [
      ( "reference evaluator",
        [
          Alcotest.test_case "fixed cases" `Quick test_eval_matches_reference_fixed;
          QCheck_alcotest.to_alcotest eval_matches_reference_prop;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* The pre/size index — appended suite.  Its answers are compared with
   [Eval]'s as exact lists: the same nodes in the same (document)
   order.  Documents are frozen views after random chains of grafts
   and deletes, where grafted ids no longer follow document order. *)

module Index = Xmlac_xpath.Index

let index_ids idx e = Array.to_list (Array.map (Index.id idx) (Index.eval idx e))

let fragments =
  List.map Xmlac_xml.Xml_parser.parse_exn
    [ "<patient><psn>077</psn><name>Ann</name></patient>";
      "<treatment><regular><med>aspirin</med><bill>1000</bill></regular></treatment>";
      "<staff><nurse><sid>9</sid><name>Bo</name><phone>1</phone></nurse></staff>";
      "<name>Cy</name>"; "<patients><patient><name>Di</name></patient></patients>" ]

(* [steps] random grafts and deletes on [doc], each in its own
   generation, then a frozen view of the result. *)
let churned_view rng doc ~steps =
  for _ = 1 to steps do
    let nodes = Array.of_list (Tree.nodes doc) in
    let n = Prng.choose rng nodes in
    if Prng.bool rng && n.Tree.parent <> None then Tree.delete doc n
    else if n.Tree.value = None then
      ignore (Tree.graft doc n (Prng.choose_list rng fragments));
    (* Earlier views keep the old records: later writes path-copy. *)
    ignore (Tree.freeze doc)
  done;
  fst (Tree.freeze doc)

(* A random expression with some steps widened to [*] or to the
   descendant axis, qualifier paths included: off-schema queries whose
   contexts nest and whose qualifiers reach past a context's subtree
   in document order. *)
let rec loosen_path rng p = List.map (loosen_step rng) p

and loosen_step rng (s : Ast.step) =
  let test = if Prng.int rng 4 = 0 then Ast.Wildcard else s.Ast.test in
  let axis = if Prng.int rng 3 = 0 then Ast.Descendant else s.Ast.axis in
  { Ast.axis; test; quals = List.map (loosen_qual rng) s.Ast.quals }

and loosen_qual rng = function
  | Ast.Exists p -> Ast.Exists (loosen_path rng p)
  | Ast.Value (p, op, d) -> Ast.Value (loosen_path rng p, op, d)
  | Ast.And (a, b) -> Ast.And (loosen_qual rng a, loosen_qual rng b)

let random_index_expr rng =
  let e = Helpers.random_hospital_expr rng in
  if Prng.bool rng then e else Ast.absolute (loosen_path rng e.Ast.steps)

let index_disagreement doc exprs =
  let idx = Index.build doc in
  List.find_opt (fun e -> ids_of (Eval.eval doc e) <> index_ids idx e) exprs

let index_matches_eval_prop =
  QCheck2.Test.make ~name:"index = Eval on churned views" ~count:200
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let exprs = List.init 8 (fun _ -> random_index_expr rng) in
      let view = churned_view rng doc ~steps:(Prng.int rng 6) in
      match index_disagreement view exprs with
      | None -> true
      | Some e ->
          QCheck2.Test.fail_reportf "%s: Eval %s, index %s" (Pp.expr_to_string e)
            (String.concat "," (List.map string_of_int (ids_of (Eval.eval view e))))
            (String.concat ","
               (List.map string_of_int (index_ids (Index.build view) e))))

let test_index_fixed_cases () =
  let doc = Helpers.hospital_doc () in
  let idx = Index.build doc in
  Alcotest.(check int) "every node indexed" (Tree.size doc) (Index.length idx);
  List.iter
    (fun q ->
      let e = parse q in
      Alcotest.(check (list int)) q (ids_of (Eval.eval doc e)) (index_ids idx e))
    [ "//patient"; "//patient[treatment]/name"; "//patient[.//experimental]";
      "//*"; "//*/*"; "//dept/*"; "/hospital//bill"; "//bill[. > 1000]";
      "//patient[psn and name]"; "//name"; "/hospital/dept/patients/patient";
      "//nosuch"; "//patient[nosuch]"; "/nosuch//name"; "//*[*]/*";
      "//*//*/name"; "/*"; "//patient/*[. = \"042\"]" ]

(* The benchmark's document family and query pool: XMark, with the
   schema-guided response queries, before and after churn. *)
let test_index_xmark () =
  let doc = Xmlac_workload.Xmark.generate ~factor:0.02 () in
  let exprs = Xmlac_workload.Queries.response_queries ~n:400 ~seed:20090101L () in
  let check label view =
    match index_disagreement view exprs with
    | None -> ()
    | Some e -> Alcotest.failf "%s: %s differs" label (Pp.expr_to_string e)
  in
  check "fresh" (fst (Tree.freeze doc));
  check "churned" (churned_view (Prng.create ~seed:5L) doc ~steps:20)

(* Patching.  A patched index must equal a fresh build of the tree
   rank by rank, so [Eval] need only be checked once more on top. *)

(* Names no hospital document holds: a graft of it interns new ones. *)
let novel =
  Xmlac_xml.Xml_parser.parse_exn "<ward><bed><tag>x</tag></bed><bed/></ward>"

let value_leaf (n : Tree.node) = n.Tree.children = [] && n.Tree.parent <> None

(* A multi-target graft's targets: a [patients] left empty may have
   been given a value since, and then takes no graft. *)
let patients = parse "//patients"

(* One generation's random writes: multi-target deletes, grafts (of
   known and of unseen names), [add_child], [set_value], sign writes,
   and a graft deleted again before the generation ends. *)
let random_writes rng doc =
  for _ = 1 to 1 + Prng.int rng 5 do
    let nodes = Array.of_list (Tree.nodes doc) in
    let n = Prng.choose rng nodes in
    match Prng.int rng 7 with
    | 0 -> ignore (Xmlac_xmldb.Update.delete doc (parse (Helpers.random_update rng)))
    | 1 when List.for_all (fun (t : Tree.node) -> t.Tree.value = None) (Eval.eval doc patients) ->
        ignore (Xmlac_xmldb.Update.insert doc ~at:patients
                  ~fragment:(Prng.choose_list rng fragments))
    | 2 when n.Tree.value = None ->
        ignore (Tree.graft doc n (Prng.choose_list rng (novel :: fragments)))
    | 3 when n.Tree.value = None ->
        ignore (Tree.add_child doc n ?value:(if Prng.bool rng then Some "7" else None)
                  (if Prng.bool rng then "name" else "cot"))
    | 4 when value_leaf n ->
        Tree.set_value doc n (if Prng.bool rng then None else Some (string_of_int (Prng.int rng 3)))
    | 5 when n.Tree.value = None ->
        Tree.delete doc (Tree.graft doc n (Prng.choose_list rng fragments))
    | _ -> Tree.set_sign doc n (Some (if Prng.bool rng then Tree.Plus else Tree.Minus))
  done

let same_ranks patched built =
  Index.length patched = Index.length built
  && List.for_all (fun r -> Index.id patched r = Index.id built r)
       (List.init (Index.length built) Fun.id)
  && Index.equal patched built

(* A chain of generations, each patched from the last one's index into
   the storage of the one before it (as the engine's writer alternates
   two buffers); a quarter of them are aborted after the patch, after
   which the last one describes the tree again and the patched one
   only if the generation wrote nothing structural. *)
let patch_matches_build_prop =
  QCheck2.Test.make ~name:"patch = build on churned trees" ~count:200
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let exprs = List.init 6 (fun _ -> random_index_expr rng) in
      ignore (Tree.freeze doc);
      let idx = ref (Index.build doc) and spare = ref None in
      for _ = 1 to 1 + Prng.int rng 5 do
        random_writes rng doc;
        let patched = Index.patch ?into:!spare !idx doc and built = Index.build doc in
        if not (same_ranks patched built) then
          QCheck2.Test.fail_report "patched index differs from a build";
        (match
           List.find_opt (fun e -> ids_of (Eval.eval doc e) <> index_ids patched e) exprs
         with
        | Some e -> QCheck2.Test.fail_reportf "%s: patched index differs from Eval"
                      (Pp.expr_to_string e)
        | None -> ());
        if Prng.int rng 4 = 0 then begin
          ignore (Tree.abort doc);
          let stale = Index.describes patched doc && not (Index.equal patched !idx) in
          if stale || not (Index.describes !idx doc) then
            QCheck2.Test.fail_report "abort: the wrong index describes the tree";
          spare := Some patched
        end
        else begin
          spare := Some !idx;
          idx := patched
        end;
        ignore (Tree.freeze doc)
      done;
      true)

(* The preconditions [patch] can see. *)
let test_patch_rejects () =
  let doc = Helpers.hospital_doc () in
  ignore (Tree.freeze doc);
  let idx = Index.build doc in
  Alcotest.check_raises "another tree" (Invalid_argument "Index.patch: another tree")
    (fun () -> ignore (Index.patch idx (Tree.copy doc)));
  let other = Tree.copy doc in
  ignore (Tree.freeze other);
  let stale = Index.build other in
  ignore (Xmlac_xmldb.Update.delete other (parse "//psn"));
  ignore (Tree.freeze other);
  ignore (Tree.add_child other (Tree.root other) "cot");
  Alcotest.check_raises "writes the change set does not hold"
    (Invalid_argument "Index.patch: the index is not the tree's")
    (fun () -> ignore (Index.patch stale other))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "xpath-index"
    [
      ( "index",
        [
          tc "fixed cases" test_index_fixed_cases;
          tc "xmark response queries" test_index_xmark;
          QCheck_alcotest.to_alcotest index_matches_eval_prop;
          QCheck_alcotest.to_alcotest patch_matches_build_prop;
          tc "patch rejects another tree's index" test_patch_rejects;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Schema-aware containment — appended suite. *)

let sc p q = Containment.contained_in_schema hospital_sg (parse p) (parse q)

let test_schema_containment_gains () =
  (* Judgements the pure homomorphism test cannot make but the DTD
     proves. *)
  Alcotest.(check bool) "//dept in /hospital/dept" true
    (sc "//dept" "/hospital/dept");
  Alcotest.(check bool) "not the pure test" false
    (Containment.contained_in (parse "//dept") (parse "/hospital/dept"));
  Alcotest.(check bool) "//med anchored" true
    (sc "//med" "/hospital/dept/patients/patient/treatment/regular/med");
  Alcotest.(check bool) "//experimental under patient" true
    (sc "//experimental" "//patient//experimental");
  Alcotest.(check bool) "unsatisfiable contained in anything" true
    (sc "//patient/bill" "//psn")

let test_schema_containment_preserves_pure () =
  (* At least as strong as the pure test. *)
  List.iter
    (fun (p, q) ->
      Alcotest.(check bool) (p ^ " in " ^ q) true (sc p q))
    [
      ("//patient[treatment]", "//patient");
      ("//patient[treatment]/name", "//patient/name");
      ("//regular[bill > 1000]", "//regular");
      ("/hospital/dept", "//dept");
    ]

let test_schema_containment_still_rejects () =
  Alcotest.(check bool) "patient not in name" false (sc "//patient" "//name");
  Alcotest.(check bool) "broad not in narrow pred" false
    (sc "//patient" "//patient[treatment]");
  (* name occurs under patient, nurse and doctor: //name is NOT
     contained in //patient/name under this DTD. *)
  Alcotest.(check bool) "name has other parents" false
    (sc "//name" "//patient/name")

(* Soundness on valid documents: if the schema-aware test says yes,
   evaluation agrees on every generated (hence valid) document. *)
let schema_containment_sound_prop =
  QCheck2.Test.make ~name:"schema containment sound on valid docs" ~count:200
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let p = Helpers.random_hospital_expr rng in
      let q = Helpers.random_hospital_expr rng in
      if Containment.contained_in_schema hospital_sg p q then begin
        let set_q = Eval.node_set doc q in
        List.for_all
          (fun (n : Tree.node) -> Hashtbl.mem set_q n.Tree.id)
          (Eval.eval doc p)
      end
      else true)

(* The schema-aware optimizer removes at least as much as the pure one
   and preserves semantics on valid documents. *)
let schema_optimizer_prop =
  QCheck2.Test.make ~name:"schema-aware optimization preserves semantics"
    ~count:80 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let rules =
        List.init
          (1 + Prng.int rng 6)
          (fun i ->
            Xmlac_core.Rule.make
              ~name:(Printf.sprintf "S%d" i)
              ~resource:(Helpers.random_hospital_expr rng)
              (if Prng.bool rng then Xmlac_core.Rule.Plus
               else Xmlac_core.Rule.Minus))
      in
      let p =
        Xmlac_core.Policy.make ~ds:Xmlac_core.Rule.Minus
          ~cr:Xmlac_core.Rule.Minus rules
      in
      let pure = Xmlac_core.Optimizer.optimize_policy p in
      let aware =
        Xmlac_core.Optimizer.optimize_policy ~schema:hospital_sg p
      in
      Xmlac_core.Policy.size aware <= Xmlac_core.Policy.size pure
      && Xmlac_core.Policy.accessible_ids p doc
         = Xmlac_core.Policy.accessible_ids aware doc)

let test_schema_optimizer_example () =
  (* //dept is redundant next to /hospital/dept only with the schema. *)
  let p =
    Xmlac_core.Policy.make ~ds:Xmlac_core.Rule.Minus ~cr:Xmlac_core.Rule.Minus
      [
        Xmlac_core.Rule.parse ~name:"K1" "/hospital/dept" Xmlac_core.Rule.Plus;
        Xmlac_core.Rule.parse ~name:"K2" "//dept" Xmlac_core.Rule.Plus;
      ]
  in
  Alcotest.(check int) "pure keeps both... "
    1
    (* /hospital/dept ⊑ //dept holds purely, so even the pure optimizer
       folds them — but into //dept. *)
    (Xmlac_core.Policy.size (Xmlac_core.Optimizer.optimize_policy p));
  let aware = Xmlac_core.Optimizer.optimize_policy ~schema:hospital_sg p in
  Alcotest.(check int) "aware folds too" 1 (Xmlac_core.Policy.size aware)

let test_schema_optimizer_strictly_better () =
  (* //patients[patient]/patient vs //patient: pure containment cannot
     anchor the former's [patients] prefix... both directions hold only
     with the schema for the reverse. *)
  let p =
    Xmlac_core.Policy.make ~ds:Xmlac_core.Rule.Minus ~cr:Xmlac_core.Rule.Minus
      [
        Xmlac_core.Rule.parse ~name:"K1" "//patients/patient" Xmlac_core.Rule.Plus;
        Xmlac_core.Rule.parse ~name:"K2" "//patient" Xmlac_core.Rule.Plus;
        Xmlac_core.Rule.parse ~name:"K3" "//dept" Xmlac_core.Rule.Minus;
        Xmlac_core.Rule.parse ~name:"K4" "/hospital/dept" Xmlac_core.Rule.Minus;
      ]
  in
  let pure = Xmlac_core.Optimizer.optimize_policy p in
  let aware = Xmlac_core.Optimizer.optimize_policy ~schema:hospital_sg p in
  (* Purely: K1 ⊑ K2 folds; K4 ⊑ K3 folds; nothing else. *)
  Alcotest.(check int) "pure size" 2 (Xmlac_core.Policy.size pure);
  Alcotest.(check bool) "aware no bigger" true
    (Xmlac_core.Policy.size aware <= Xmlac_core.Policy.size pure)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "xpath-schema"
    [
      ( "schema containment",
        [
          tc "gains over pure test" test_schema_containment_gains;
          tc "preserves pure results" test_schema_containment_preserves_pure;
          tc "still rejects" test_schema_containment_still_rejects;
          QCheck_alcotest.to_alcotest schema_containment_sound_prop;
        ] );
      ( "schema-aware optimizer",
        [
          tc "example" test_schema_optimizer_example;
          tc "not worse than pure" test_schema_optimizer_strictly_better;
          QCheck_alcotest.to_alcotest schema_optimizer_prop;
        ] );
    ]

