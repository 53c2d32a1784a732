(* The rewrite enforcement lane (PR 8).

   The acceptance property: on random documents, random multi-role
   policies, random roles and random queries, over all three backends,
   the query-rewrite lane (zero sign/bitmap reads), the materialized
   lane (the paper's signs and role bitmaps) and the direct
   security-view visibility oracle produce identical decisions —
   granted id-lists and denied blocked-counts alike.  Plus the
   engine-level auto-lane routing and the security-view edge cases the
   oracle itself leans on. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Xp = Xmlac_xpath
module Prng = Xmlac_util.Prng
module Bitset = Xmlac_util.Bitset
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module W = Xmlac_workload

let hospital_sg = Lazy.force Helpers.hospital_sg
let mapping = Xmlac_shrex.Mapping.of_dtd W.Hospital.dtd

(* All three backends over (copies of) one document. *)
let backends_for doc ~default_sign =
  let native_doc = Tree.copy doc in
  let row_db = Db.create Table.Row in
  let col_db = Db.create Table.Column in
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign row_db doc);
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign col_db doc);
  [
    Xml_backend.make native_doc;
    Rel_backend.make mapping row_db;
    Rel_backend.make mapping col_db;
  ]

(* The visibility oracle: the all-or-nothing rule applied directly to
   the security view's visible set — no plans, no signs, no bitmaps,
   just XPath evaluation and Security_view.visible_ids. *)
let oracle ?subject policy doc expr =
  let selected =
    List.sort compare
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Xp.Eval.eval doc expr))
  in
  let visible = Security_view.visible_ids ?subject policy doc in
  let blocked = List.filter (fun id -> not (List.mem id visible)) selected in
  if blocked = [] then Requester.Granted selected
  else Requester.Denied { blocked = List.length blocked }

(* ------------------------------------------------------------------ *)
(* The cross-lane property, backend level: answer each query through
   the rewrite lane while the store is still cold, then materialize
   signs and bitmaps and answer the paper's way, and compare both with
   the oracle. *)

let cross_lane_prop =
  QCheck2.Test.make
    ~name:"rewrite lane = materialized lane = security view (3 backends)"
    ~count:30 Helpers.seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let subjects = Helpers.random_subjects rng in
      let names = Subject.names subjects in
      let policy = Helpers.random_role_policy rng subjects in
      let queries = List.init 3 (fun _ -> Helpers.random_hospital_expr rng) in
      let ok = ref true in
      let expect what a b = if a <> b then (ignore what; ok := false) in
      List.iter
        (fun backend ->
          (* 1. Cold store: rewrite-lane answers, no annotation ran. *)
          let rewritten =
            List.map
              (fun e ->
                ( Requester.request_rewritten ~schema:hospital_sg backend
                    policy e,
                  List.map
                    (fun role ->
                      Requester.request_rewritten ~schema:hospital_sg
                        ~subject:role backend policy e)
                    names ))
              queries
          in
          (* 2. Materialize, then answer through signs and bitmaps. *)
          let _ = Annotator.annotate ~schema:hospital_sg backend policy in
          let _ =
            Annotator.annotate_subjects ~schema:hospital_sg backend policy
          in
          let default_bits = Policy.default_bits policy in
          let role_sign idx id =
            if Bitset.mem idx (Backend.effective_bits backend ~default:default_bits id)
            then Tree.Plus
            else Tree.Minus
          in
          List.iter2
            (fun e (rw_anon, rw_roles) ->
              let mat_anon =
                Requester.request backend ~default:(Policy.ds policy) e
              in
              let want_anon = oracle policy doc e in
              expect "anonymous rewrite" rw_anon want_anon;
              expect "anonymous materialized" mat_anon want_anon;
              List.iteri
                (fun i role ->
                  let mat =
                    Requester.request_via ~sign:(role_sign i) backend e
                  in
                  let want = oracle ~subject:role policy doc e in
                  expect "role rewrite" (List.nth rw_roles i) want;
                  expect "role materialized" mat want)
                names)
            queries rewritten)
        (backends_for doc ~default_sign:"-");
      !ok)

(* ------------------------------------------------------------------ *)
(* The engine level: auto routes a cold store through the rewrite
   lane, an annotated store through the materialized lane, and the
   answers agree with the oracle (and with each other when both lanes
   are forced) at every stage. *)

let engine_auto_lane_prop =
  QCheck2.Test.make
    ~name:"engine auto lane: cold rewrite = annotated materialized = oracle"
    ~count:20 Helpers.seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let subjects = Helpers.random_subjects rng in
      let names = Subject.names subjects in
      let policy = Helpers.random_role_policy rng subjects in
      let role = List.nth names (Prng.int rng (List.length names)) in
      let queries =
        List.init 3 (fun _ ->
            Xp.Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let doc = Engine.document eng in
      let ok = ref true in
      let expect a b = if a <> b then ok := false in
      let check_all want_lane =
        expect (fst (Engine.resolve_lane eng)) want_lane;
        List.iter
          (fun q ->
            let e = Requester.parse_or_fail q in
            let ask ?subject ?lane () =
              Engine.request ?subject ?lane eng Engine.Native q
            in
            expect (ask ()) (oracle policy doc e);
            expect (ask ~subject:role ()) (oracle ~subject:role policy doc e);
            (* Soundness: the forced rewrite lane never disagrees with
               whatever lane auto picked. *)
            expect (ask ~lane:Rewrite.Rewrite ()) (ask ()))
          queries
      in
      (* Cold: every layer routes to the rewrite lane. *)
      check_all Rewrite.Rewrite;
      (* Signs committed: anonymous requests flip to materialized, but
         role requests still rewrite — bitmaps were never built. *)
      let _ = Engine.annotate eng in
      expect (fst (Engine.resolve_lane eng)) Rewrite.Materialized;
      expect
        (fst (Engine.resolve_lane ~subject:role eng))
        Rewrite.Rewrite;
      check_all Rewrite.Materialized |> ignore;
      (* Bitmaps committed too: role requests follow. *)
      let _ = Engine.annotate_subjects eng in
      expect
        (fst (Engine.resolve_lane ~subject:role eng))
        Rewrite.Materialized;
      check_all Rewrite.Materialized;
      !ok)

(* ------------------------------------------------------------------ *)
(* Serve-layer threading: a cold engine behind the resilient layer
   still answers — live and from a pinned snapshot — through the
   rewrite lane, matching the oracle. *)

module Serve = Xmlac_serve.Serve

let test_serve_cold_rewrite () =
  let doc = W.Hospital.sample_document () in
  let policy = W.Hospital.policy in
  let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
  let layer = Serve.create eng in
  let policy = Engine.policy eng in
  let doc = Engine.document eng in
  let q = "//patient/name" in
  let want = oracle policy doc (Requester.parse_or_fail q) in
  (match Serve.request layer Engine.Native q with
  | Ok r ->
      Alcotest.(check bool) "live = oracle" true (r.Serve.decision = want);
      Alcotest.(check bool) "served live" true (r.Serve.served = Serve.Live)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Serve.pp_error e));
  match Serve.snapshot_request layer (Serve.snapshot layer) q with
  | Ok r ->
      Alcotest.(check bool) "pinned = oracle" true (r.Serve.decision = want)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Serve.pp_error e)

(* ------------------------------------------------------------------ *)
(* Security-view edge cases: the oracle itself.  Hand fixture:

     r
     ├── a          (denied below)
     │   ├── b = "x"
     │   └── c
     └── d

   ids: r=0, a=1, b=2, c=3, d=4. *)

let edge_doc () =
  let doc = Tree.create ~root_name:"r" in
  let r = Tree.root doc in
  let a = Tree.add_child doc r "a" in
  ignore (Tree.add_child doc a ~value:"x" "b");
  ignore (Tree.add_child doc a "c");
  ignore (Tree.add_child doc r "d");
  doc

let allow_all_but name =
  Policy.make ~ds:Rule.Plus ~cr:Rule.Minus [ Rule.parse ("//" ^ name) Rule.Minus ]

let child_names (n : Tree.node) =
  List.map (fun (c : Tree.node) -> c.Tree.name) n.Tree.children

let test_view_promote_hoists_in_order () =
  let doc = edge_doc () in
  let policy = allow_all_but "a" in
  let view = Security_view.materialize ~mode:Security_view.Promote policy doc in
  (* a's accessible children are promoted to r, before d and in
     document order. *)
  Alcotest.(check (list string)) "promoted order" [ "b"; "c"; "d" ]
    (child_names (Tree.root view));
  Helpers.check_ids "visible ids" [ 0; 2; 3; 4 ]
    (Security_view.visible_ids policy doc)

let test_view_prune_drops_subtree () =
  let doc = edge_doc () in
  let policy = allow_all_but "a" in
  let view = Security_view.materialize ~mode:Security_view.Prune policy doc in
  Alcotest.(check (list string)) "subtree gone" [ "d" ]
    (child_names (Tree.root view));
  Helpers.check_ids "visible ids" [ 0; 4 ]
    (Security_view.visible_ids ~mode:Security_view.Prune policy doc)

let test_view_inaccessible_root_placeholder () =
  let doc = edge_doc () in
  let policy = allow_all_but "r" in
  (* Promote: hollow root placeholder — carrying no value — with the
     accessible children promoted into it. *)
  let promote = Security_view.materialize ~mode:Security_view.Promote policy doc in
  Alcotest.(check (option string)) "placeholder carries no value" None
    (Tree.root promote).Tree.value;
  Alcotest.(check (list string)) "children promoted" [ "a"; "d" ]
    (child_names (Tree.root promote));
  (* Prune: the placeholder is all there is. *)
  let prune = Security_view.materialize ~mode:Security_view.Prune policy doc in
  Alcotest.(check (list string)) "placeholder is empty" []
    (child_names (Tree.root prune));
  Helpers.check_ids "prune sees nothing" []
    (Security_view.visible_ids ~mode:Security_view.Prune policy doc)

let test_view_visible_count_hand_counted () =
  let doc = edge_doc () in
  let policy = allow_all_but "a" in
  (* Promote keeps r, b, c, d; Prune keeps r, d. *)
  Alcotest.(check int) "promote count" 4
    (Security_view.visible_count policy doc);
  Alcotest.(check int) "prune count" 2
    (Security_view.visible_count ~mode:Security_view.Prune policy doc);
  (* Root denied: promote still shows the four descendants, prune
     nothing at all. *)
  let rootless = allow_all_but "r" in
  Alcotest.(check int) "promote, root denied" 4
    (Security_view.visible_count rootless doc);
  Alcotest.(check int) "prune, root denied" 0
    (Security_view.visible_count ~mode:Security_view.Prune rootless doc)

(* ------------------------------------------------------------------ *)
(* Deterministic lane-resolution units. *)

let test_lane_strings () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "round trip" true
        (Rewrite.lane_of_string (Rewrite.lane_to_string l) = Some l))
    [ Rewrite.Auto; Rewrite.Materialized; Rewrite.Rewrite ];
  Alcotest.(check bool) "rejects junk" true
    (Rewrite.lane_of_string "bogus" = None)

let test_forced_lanes_cached_separately () =
  (* A forced-rewrite answer must never be served from the
     materialized lane's memo (or vice versa): the two lanes use
     distinct cache keys. *)
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  let _ = Engine.annotate eng in
  let q = "//patient" in
  let mat = Engine.request ~lane:Rewrite.Materialized eng Engine.Native q in
  let rw = Engine.request ~lane:Rewrite.Rewrite eng Engine.Native q in
  Alcotest.(check bool) "lanes agree" true (mat = rw);
  let m = Engine.metrics eng in
  Alcotest.(check bool) "both lanes actually evaluated" true
    (Xmlac_util.Metrics.counter m "lane.rewrite" > 0
    && Xmlac_util.Metrics.counter m "lane.materialized" > 0)

(* A crash at [snapshot.publish] in [annotate] commits the signs but
   leaves the cold epoch current, so a request still rewrites.  The
   reported lane must be the one the request takes. *)
let test_lane_after_publish_crash () =
  let module Fault = Xmlac_util.Fault in
  Fault.reset ();
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  Fault.arm "snapshot.publish" (Fault.After 1);
  (match Engine.annotate eng with
  | _ -> Alcotest.fail "armed publish did not crash"
  | exception Fault.Crash _ -> ());
  Fault.recover ();
  let m = Engine.metrics eng in
  let rewrites = Xmlac_util.Metrics.counter m "lane.rewrite" in
  ignore (Engine.request eng Engine.Native "//patient");
  Alcotest.(check int) "the request rewrote" (rewrites + 1)
    (Xmlac_util.Metrics.counter m "lane.rewrite");
  Alcotest.(check bool) "resolve_lane reports the rewrite lane" true
    (Engine.resolve_lane eng = (Rewrite.Rewrite, "never-annotated store"));
  Fault.reset ()

let () =
  Alcotest.run ~and_exit:false "rewrite lane"
    [
      ( "cross-lane equivalence",
        [
          QCheck_alcotest.to_alcotest cross_lane_prop;
          QCheck_alcotest.to_alcotest engine_auto_lane_prop;
        ] );
      ( "serve threading",
        [ Alcotest.test_case "cold engine serves rewritten" `Quick
            test_serve_cold_rewrite ] );
      ( "security view",
        [
          Alcotest.test_case "promote hoists in order" `Quick
            test_view_promote_hoists_in_order;
          Alcotest.test_case "prune drops subtree" `Quick
            test_view_prune_drops_subtree;
          Alcotest.test_case "inaccessible root placeholder" `Quick
            test_view_inaccessible_root_placeholder;
          Alcotest.test_case "visible_count hand-counted" `Quick
            test_view_visible_count_hand_counted;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "lane string round trip" `Quick test_lane_strings;
          Alcotest.test_case "forced lanes cached separately" `Quick
            test_forced_lanes_cached_separately;
          Alcotest.test_case "lane after publish crash" `Quick
            test_lane_after_publish_crash;
        ] );
    ]
