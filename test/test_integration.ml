(* End-to-end integration scenarios across the whole stack, on both the
   hospital and XMark workloads. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
module W = Xmlac_workload

(* ------------------------------------------------------------------ *)
(* Scenario 1: the paper's motivating walk-through, verbatim. *)

let test_paper_walkthrough () =
  let eng =
    Engine.create ~mirrored:true ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  (* Optimization reproduces Table 3. *)
  Alcotest.(check (list string)) "Table 3"
    W.Hospital.optimized_rule_names
    (List.map (fun r -> r.Rule.name) (Policy.rules (Engine.policy eng)));
  let _ = Engine.annotate_all eng in
  Alcotest.(check bool) "stores agree" true (Engine.consistent eng);
  (* Patients one and two are inaccessible (R3 overrides R1), the third
     accessible; names are accessible (R2). *)
  List.iter
    (fun kind ->
      Alcotest.(check bool) "patients denied" false
        (Requester.is_granted (Engine.request eng kind "//patient"));
      Alcotest.(check bool) "third patient" true
        (Requester.is_granted
           (Engine.request eng kind "//patient[psn = \"099\"]"));
      Alcotest.(check bool) "names granted" true
        (Requester.is_granted (Engine.request eng kind "//patient/name"));
      Alcotest.(check bool) "experimental denied" false
        (Requester.is_granted
           (Engine.request eng kind "//patient[.//experimental]")))
    Engine.all_backend_kinds;
  (* Delete treatments: R3/R5 no longer apply, R1 resurfaces. *)
  let stats = Engine.update eng "//patient/treatment" in
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "some rules triggered" true
        (s.Reannotator.triggered <> []))
    stats;
  Alcotest.(check bool) "still consistent" true (Engine.consistent eng);
  List.iter
    (fun kind ->
      Alcotest.(check bool) "patients now granted" true
        (Requester.is_granted (Engine.request eng kind "//patient")))
    Engine.all_backend_kinds

(* ------------------------------------------------------------------ *)
(* Scenario 2: XMark with a coverage policy; queries and updates keep
   all stores in lockstep. *)

let test_xmark_lockstep () =
  let doc = W.Xmark.generate ~factor:0.005 () in
  let policy = W.Coverage.policy_for_target ~doc ~target:0.5 in
  let eng = Engine.create ~mirrored:true ~dtd:W.Xmark.dtd ~policy doc in
  let _ = Engine.annotate_all eng in
  Alcotest.(check bool) "annotated consistently" true (Engine.consistent eng);
  (* A few queries decided identically everywhere. *)
  List.iter
    (fun q ->
      let answers =
        List.map
          (fun kind -> Requester.is_granted (Engine.request eng kind q))
          Engine.all_backend_kinds
      in
      match answers with
      | [ a; b; c ] ->
          Alcotest.(check bool) ("agree on " ^ q) true (a = b && b = c)
      | _ -> assert false)
    [ "//person"; "//person/name"; "//creditcard"; "//open_auction/initial";
      "//bidder"; "//annotation" ];
  (* Three delete updates, staying consistent throughout. *)
  List.iter
    (fun u ->
      let _ = Engine.update eng u in
      Alcotest.(check bool) ("consistent after " ^ u) true
        (Engine.consistent eng))
    [ "//watches"; "//bidder"; "//person[creditcard]" ]

(* ------------------------------------------------------------------ *)
(* Scenario 3: partial re-annotation equals reference semantics after a
   sequence of updates (Overlap mode), on every backend. *)

let test_update_sequence_reference () =
  let doc = W.Hospital.generate ~departments:3 ~patients_per_dept:8 () in
  let policy = Optimizer.optimize_policy W.Hospital.policy in
  let eng =
    Engine.create ~mirrored:true ~mode:Engine.Overlap_mode ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (Tree.copy doc)
  in
  let _ = Engine.annotate_all eng in
  let reference = Tree.copy doc in
  List.iter
    (fun u ->
      let _ = Engine.update eng u in
      ignore (Xmlac_xmldb.Update.delete reference (Helpers.parse u));
      let expected = Policy.accessible_ids policy reference in
      List.iter
        (fun kind ->
          Alcotest.(check Helpers.int_list)
            (Engine.backend_kind_to_string kind ^ " after " ^ u)
            expected
            (Engine.accessible eng kind))
        Engine.all_backend_kinds)
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
  let _ = Engine.annotate eng Engine.Native in
  let xml = Xmlac_xml.Serializer.to_string (Engine.document eng) in
  let reparsed = Xmlac_xml.Xml_parser.parse_exn xml in
  (* Universal ids are not serialized, so compare the annotated shape
     (names, values, signs), which is id-independent. *)
  Alcotest.(check bool) "annotated structure preserved" true
    (Tree.equal_annotated (Engine.document eng) reparsed);
  let backend = Xml_backend.make reparsed in
  Alcotest.(check int) "accessible count preserved"
    (List.length (Engine.accessible eng Engine.Native))
    (List.length (Backend.accessible_ids backend ~default:Rule.Minus))

(* ------------------------------------------------------------------ *)
(* Scenario 5: all four (ds, cr) configurations stay cross-backend
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
      let eng =
        Engine.create ~mirrored:true ~optimize:false ~dtd:W.Hospital.dtd ~policy
          (Tree.copy doc)
      in
      let _ = Engine.annotate_all eng in
      Alcotest.(check bool)
        (Printf.sprintf "ds=%s cr=%s consistent"
           (Rule.effect_to_string ds) (Rule.effect_to_string cr))
        true (Engine.consistent eng);
      (* And equal to the reference semantics. *)
      Alcotest.(check Helpers.int_list) "matches reference"
        (Policy.accessible_ids policy (Engine.document eng))
        (Engine.accessible eng Engine.Native))
    [ (Rule.Minus, Rule.Minus); (Rule.Minus, Rule.Plus);
      (Rule.Plus, Rule.Minus); (Rule.Plus, Rule.Plus) ]

(* ------------------------------------------------------------------ *)
(* Scenario 6: randomized end-to-end fuzz in Overlap mode. *)

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
      let eng =
        Engine.create ~mirrored:true ~mode:Engine.Overlap_mode
          ~dtd:W.Hospital.dtd ~policy doc
      in
      let _ = Engine.annotate_all eng in
      let ok = ref (Engine.consistent eng) in
      for _ = 1 to 3 do
        let e = Helpers.random_hospital_expr rng in
        (match e.Xmlac_xpath.Ast.steps with
        | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Name "hospital"; _ } ]
        | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Wildcard; _ } ] ->
            ()
        | _ ->
            let _ = Engine.update eng (Xmlac_xpath.Pp.expr_to_string e) in
            if not (Engine.consistent eng) then ok := false)
      done;
      !ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "integration"
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

(* ------------------------------------------------------------------ *)
(* Insert updates through the engine — appended suite. *)

let treatment_fragment ~med ~bill =
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:med "med");
  ignore (Tree.add_child frag reg ~value:bill "bill");
  frag

let test_insert_keeps_stores_lockstep () =
  let eng =
    Engine.create ~mirrored:true ~mode:Engine.Overlap_mode ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (W.Hospital.sample_document ())
  in
  let _ = Engine.annotate_all eng in
  (* Give the treatment-less patient a regular treatment: rule R3
     (//patient[treatment], deny) must kick in and flip that patient to
     inaccessible. *)
  let before = Engine.request eng Engine.Native "//patient[psn = \"099\"]" in
  Alcotest.(check bool) "accessible before" true (Requester.is_granted before);
  let stats =
    Engine.insert eng ~at:"//patient[psn = \"099\"]"
      ~fragment:(treatment_fragment ~med:"aspirin" ~bill:"120")
  in
  List.iter
    (fun (kind, s) ->
      Alcotest.(check int)
        (Engine.backend_kind_to_string kind ^ " grafts")
        1 s.Reannotator.deleted_roots)
    stats;
  Alcotest.(check bool) "stores agree after insert" true (Engine.consistent eng);
  (* The annotations match the reference semantics of the updated
     document. *)
  Alcotest.(check Helpers.int_list) "matches reference"
    (Policy.accessible_ids (Engine.policy eng) (Engine.document eng))
    (Engine.accessible eng Engine.Native);
  let after = Engine.request eng Engine.Native "//patient[psn = \"099\"]" in
  Alcotest.(check bool) "inaccessible after (R3)" false
    (Requester.is_granted after);
  (* And the document is still schema-valid everywhere. *)
  Alcotest.(check bool) "valid" true
    (Xmlac_xml.Dtd.is_valid W.Hospital.dtd (Engine.document eng))

let test_insert_multiple_targets_relational_mirror () =
  let doc = W.Hospital.generate ~seed:3L ~departments:2 ~patients_per_dept:4 () in
  let eng =
    Engine.create ~mirrored:true ~mode:Engine.Overlap_mode ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy doc
  in
  let _ = Engine.annotate_all eng in
  let frag = Tree.create ~root_name:"staff" in
  let d = Tree.add_child frag (Tree.root frag) "nurse" in
  ignore (Tree.add_child frag d ~value:"S9" "sid");
  ignore (Tree.add_child frag d ~value:"new nurse" "name");
  ignore (Tree.add_child frag d ~value:"555-0000" "phone");
  let stats = Engine.insert eng ~at:"//staffinfo" ~fragment:frag in
  List.iter
    (fun (kind, s) ->
      Alcotest.(check int)
        (Engine.backend_kind_to_string kind ^ " grafts")
        2 s.Reannotator.deleted_roots)
    stats;
  Alcotest.(check bool) "consistent" true (Engine.consistent eng);
  (* The relational stores really contain the new tuples, with the
     native store's ids. *)
  let native = Engine.backend eng Engine.Native in
  let row = Engine.backend eng Engine.Row_sql in
  Alcotest.(check Helpers.int_list) "nurse ids mirrored"
    (native.Backend.eval_ids (Helpers.parse "//nurse"))
    (row.Backend.eval_ids (Helpers.parse "//nurse"))

let test_insert_then_delete_round () =
  let eng =
    Engine.create ~mirrored:true ~mode:Engine.Overlap_mode ~dtd:W.Hospital.dtd
      ~policy:W.Hospital.policy (W.Hospital.sample_document ())
  in
  let _ = Engine.annotate_all eng in
  let _ =
    Engine.insert eng ~at:"//patient[psn = \"099\"]"
      ~fragment:(treatment_fragment ~med:"celecoxib" ~bill:"90")
  in
  let _ = Engine.update eng "//treatment" in
  Alcotest.(check bool) "consistent after round trip" true
    (Engine.consistent eng);
  Alcotest.(check Helpers.int_list) "matches reference"
    (Policy.accessible_ids (Engine.policy eng) (Engine.document eng))
    (Engine.accessible eng Engine.Native)

(* ------------------------------------------------------------------ *)
(* The default engine holds the native store only; the mirrored engine
   is the three-store harness.  Same script on both: the native answers
   must not depend on whether the mirrors ride along. *)

let test_default_holds_native_only () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  Alcotest.(check bool) "kinds = [Native]" true
    (Engine.kinds eng = [ Engine.Native ]);
  Alcotest.(check bool) "no row WAL" true
    (Engine.wal eng Engine.Row_sql = None);
  (match Engine.annotate eng Engine.Row_sql with
  | _ -> Alcotest.fail "annotated a store the engine does not hold"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the store" true
        (Helpers.contains msg "row-sql"));
  Alcotest.(check (option int)) "no epoch opened" None (Engine.open_epoch eng);
  (match Engine.request eng Engine.Column_sql "//patient" with
  | _ -> Alcotest.fail "requested a store the engine does not hold"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "annotate_all covers the held store" 1
    (List.length (Engine.annotate_all eng));
  let stats = Engine.update eng "//patient/treatment" in
  Alcotest.(check bool) "update reports the native store only" true
    (List.map fst stats = [ Engine.Native ]);
  Alcotest.(check bool) "held stores agree" true (Engine.consistent eng)

let staff_fragment () =
  let frag = Tree.create ~root_name:"staff" in
  let d = Tree.add_child frag (Tree.root frag) "nurse" in
  ignore (Tree.add_child frag d ~value:"S9" "sid");
  ignore (Tree.add_child frag d ~value:"new nurse" "name");
  ignore (Tree.add_child frag d ~value:"555-0000" "phone");
  frag

let mirrored_harness_prop =
  QCheck2.Test.make
    ~name:"mirrored harness = default engine on the native store" ~count:25
    QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let queries =
        List.init 3 (fun _ ->
            Xmlac_xpath.Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let make ~mirrored =
        Engine.create ~mirrored ~dtd:W.Hospital.dtd ~policy doc
      in
      let def = make ~mirrored:false and twin = make ~mirrored:true in
      let roles = Policy.roles (Engine.policy def) in
      let subjects = None :: List.map Option.some roles in
      let check step =
        let fail fmt = QCheck2.Test.fail_reportf ("after %s: " ^^ fmt) step in
        List.iter
          (fun q ->
            List.iter
              (fun subject ->
                List.iter
                  (fun lane ->
                    let ask eng =
                      Engine.request ?subject ~lane eng Engine.Native q
                    in
                    if ask def <> ask twin then
                      fail "decisions differ on %s (%s, %s)" q
                        (Option.value subject ~default:"anonymous")
                        (Rewrite.lane_to_string lane))
                  [ Rewrite.Materialized; Rewrite.Rewrite ])
              subjects)
          queries;
        if Engine.accessible def Engine.Native
           <> Engine.accessible twin Engine.Native
        then fail "accessible sets differ";
        List.iter
          (fun role ->
            if Engine.accessible_subject def Engine.Native role
               <> Engine.accessible_subject twin Engine.Native role
            then fail "accessible sets differ for %s" role)
          roles;
        if not (Engine.consistent twin) then fail "twin out of lockstep";
        if not (Engine.consistent_subjects twin) then
          fail "twin bitmaps out of lockstep"
      in
      check "create";
      for _ = 1 to 4 do
        let step, run =
          match Prng.int rng 4 with
          | 0 -> ("annotate", fun eng -> ignore (Engine.annotate_all eng))
          | 1 ->
              ( "annotate_subjects",
                fun eng -> ignore (Engine.annotate_subjects_all eng) )
          | 2 ->
              let q = Helpers.random_update rng in
              ("update " ^ q, fun eng -> ignore (Engine.update eng q))
          | _ ->
              let at, fragment =
                if Prng.bool rng then
                  ("//patient", treatment_fragment ~med:"aspirin" ~bill:"120")
                else ("//staffinfo", staff_fragment ())
              in
              ( "insert at " ^ at,
                fun eng -> ignore (Engine.insert eng ~at ~fragment) )
        in
        run def;
        run twin;
        check step
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Role bitmaps on the default engine: a structural mutation repairs
   them over its affected region only, and the repair must say exactly
   what the policy says.  The engine's own oracle ([request_direct])
   reads the same bitmaps, so the reference semantics is the only
   check that can see them drift. *)

let bitmap_oracle_prop =
  QCheck2.Test.make
    ~name:"default engine: role bitmaps = reference after every mutation"
    ~count:40 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let def = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let twin = Engine.create ~mirrored:true ~dtd:W.Hospital.dtd ~policy doc in
      let roles = Policy.roles (Engine.policy def) in
      let check step =
        let fail fmt = QCheck2.Test.fail_reportf ("after %s: " ^^ fmt) step in
        List.iter
          (fun (name, eng) ->
            List.iter
              (fun role ->
                let want =
                  Policy.accessible_ids ~subject:role (Engine.policy eng)
                    (Engine.document eng)
                in
                if Engine.accessible_subject eng Engine.Native role <> want
                then fail "%s engine: %s's bitmaps differ from the policy" name
                    role)
              roles)
          [ ("default", def); ("mirrored", twin) ];
        if not (Engine.consistent_subjects twin) then
          fail "twin bitmaps out of lockstep"
      in
      List.iter
        (fun eng ->
          ignore (Engine.annotate_all eng);
          ignore (Engine.annotate_subjects_all eng))
        [ def; twin ];
      check "annotate_subjects";
      for _ = 1 to 4 + Prng.int rng 3 do
        let step, run =
          if Prng.bool rng then
            let q = Helpers.random_update rng in
            ("update " ^ q, fun eng -> ignore (Engine.update eng q))
          else
            let at, fragment =
              if Prng.bool rng then
                ("//patient", treatment_fragment ~med:"aspirin" ~bill:"120")
              else ("//staffinfo", staff_fragment ())
            in
            ( "insert at " ^ at,
              fun eng -> ignore (Engine.insert eng ~at ~fragment) )
        in
        run def;
        run twin;
        check step
      done;
      true)

let bitmapped_engine () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd
      ~policy:(Lazy.force Helpers.hospital_roles_policy)
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate_all eng);
  ignore (Engine.annotate_subjects_all eng);
  eng

(* Per-node bitmap writes on the native store so far: its backend
   crosses this fault point once per node stamped. *)
let bit_stamps () = Xmlac_util.Fault.hits "native.set_bits"

let raw_bits eng =
  let b = Engine.backend eng Engine.Native in
  List.map (fun id -> (id, b.Backend.bits_of id)) (b.Backend.live_ids ())

(* The rules the bitmap layer's trigger — the complete, overlap-based
   graph — reaches from the given update paths. *)
let overlap_triggered eng updates =
  let policy = Engine.policy eng and sg = Engine.schema_graph eng in
  let depend = Depend.build ~mode:(Depend.Overlap sg) policy in
  Trigger.triggered_rules depend
    (Trigger.run_all ~schema:sg depend
       ~updates:(List.map Helpers.parse updates))

let native_stats = function
  | [ (Engine.Native, s) ] -> s
  | _ -> Alcotest.fail "expected the native store's stats only"

let test_untriggered_insert_keeps_bitmaps () =
  let eng = bitmapped_engine () in
  Alcotest.(check int) "the insert paths trigger no rule" 0
    (List.length
       (overlap_triggered eng [ "//staffinfo/staff"; "//staffinfo/staff//*" ]));
  let before = raw_bits eng and stamps = bit_stamps () in
  let s =
    native_stats
      (Engine.insert eng ~at:"//staffinfo" ~fragment:(staff_fragment ()))
  in
  Alcotest.(check Helpers.int_list) "no bitmap rewritten" []
    s.Reannotator.bits_changed;
  Alcotest.(check int) "no bitmap stamped" stamps (bit_stamps ());
  let after = raw_bits eng in
  List.iter
    (fun (id, bits) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d keeps its stored bitmap" id)
        true
        (List.assoc id after = bits))
    before

let test_bits_repair_stays_in_region () =
  let eng = bitmapped_engine () in
  let update = "//patient/treatment" in
  let policy = Engine.policy eng in
  let rules = overlap_triggered eng [ update ] in
  let scopes () =
    List.concat_map
      (fun (r : Rule.t) ->
        Helpers.ids (Engine.document eng)
          (Xmlac_xpath.Pp.expr_to_string r.Rule.resource))
      rules
  in
  let pre = scopes () and before = raw_bits eng and stamps = bit_stamps () in
  let s = native_stats (Engine.update eng update) in
  let region = pre @ scopes () in
  let rewritten = s.Reannotator.bits_changed in
  Alcotest.(check bool) "the deletion rewrote some bitmaps" true
    (rewritten <> []);
  Alcotest.(check int) "one stamp per rewritten node"
    (List.length rewritten)
    (bit_stamps () - stamps);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rewritten node %d lies in a triggered scope" id)
        true (List.mem id region))
    rewritten;
  (* And the report is complete: no other surviving node's bitmap
     moved. *)
  let after = raw_bits eng in
  List.iter
    (fun (id, bits) ->
      if not (List.mem id rewritten) then
        Alcotest.(check bool)
          (Printf.sprintf "unreported node %d keeps its stored bitmap" id)
          true
          (List.assoc id before = bits))
    after;
  List.iter
    (fun role ->
      Alcotest.(check Helpers.int_list) (role ^ " matches the policy")
        (Policy.accessible_ids ~subject:role policy (Engine.document eng))
        (Engine.accessible_subject eng Engine.Native role))
    (Policy.roles policy)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration-insert"
    [
      ( "insert updates",
        [
          tc "lockstep and R3 flip" test_insert_keeps_stores_lockstep;
          tc "multiple targets mirrored" test_insert_multiple_targets_relational_mirror;
          tc "insert then delete" test_insert_then_delete_round;
        ] );
      ( "default engine",
        [
          tc "holds the native store only" test_default_holds_native_only;
          QCheck_alcotest.to_alcotest mirrored_harness_prop;
        ] );
      ( "bitmap repair",
        [
          QCheck_alcotest.to_alcotest bitmap_oracle_prop;
          tc "untriggered insert rewrites no bitmap"
            test_untriggered_insert_keeps_bitmaps;
          tc "rewritten bitmaps lie in the triggered scopes"
            test_bits_repair_stays_in_region;
        ] );
    ]
