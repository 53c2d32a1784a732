(* The request fast lane: requester edge cases, the metrics registry,
   the bounded snapshot memo, incremental CAM maintenance, and the
   engine-level equivalence of CAM/memo-served decisions with direct
   sign reads — including the qcheck property across random
   documents, policies and update sequences. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module W = Xmlac_workload

let parse = Helpers.parse

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Metrics.counter m "x");
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.incr m "y";
  Alcotest.(check int) "accumulated" 5 (Metrics.counter m "x");
  Alcotest.(check (list (pair string int)))
    "sorted dump"
    [ ("x", 5); ("y", 1) ]
    (Metrics.counters m);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.counter m "x")

let test_metrics_timers () =
  let m = Metrics.create () in
  let v = Metrics.time m "stage" (fun () -> 41 + 1) in
  Alcotest.(check int) "passes result through" 42 v;
  let v' =
    Metrics.time m "stage" (fun () -> Metrics.time m "stage" (fun () -> 7))
  in
  Alcotest.(check int) "nested result" 7 v';
  (match Metrics.timings m with
  | [ ("stage", total, calls) ] ->
      Alcotest.(check int) "three calls" 3 calls;
      Alcotest.(check bool) "non-negative total" true (total >= 0.0)
  | other ->
      Alcotest.failf "unexpected timings (%d entries)" (List.length other));
  (* An exception must not leave the stage marked re-entered. *)
  (try Metrics.time m "stage" (fun () -> failwith "boom") with _ -> ());
  (match Metrics.timings m with
  | [ ("stage", _, calls) ] -> Alcotest.(check int) "still counted" 4 calls
  | _ -> Alcotest.fail "stage lost")

let test_metrics_hit_rate () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0001)) "no samples" 0.0
    (Metrics.hit_rate m ~hits:"h" ~misses:"mi");
  Metrics.add m "h" 3;
  Metrics.incr m "mi";
  Alcotest.(check (float 0.0001)) "3/4" 0.75
    (Metrics.hit_rate m ~hits:"h" ~misses:"mi")

(* ------------------------------------------------------------------ *)
(* Snapshot memo *)

let hospital_engine () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  let _ = Engine.annotate eng in
  eng

let test_memo_hit_and_epoch () =
  let eng = hospital_engine () in
  let m = Engine.metrics eng in
  let misses () = Metrics.counter m "snapshot.cache.misses" in
  let q = "//patient/treatment" in
  let snap = Engine.current_snapshot eng in
  let d = Snapshot.request snap q in
  Alcotest.(check bool) "repeat hits" true (Snapshot.request snap q = d);
  Alcotest.(check int) "one miss" 1 (misses ());
  Alcotest.(check int) "one hit" 1 (Metrics.counter m "snapshot.cache.hits");
  let _ = Engine.update eng "//patient/treatment" in
  let next = Engine.current_snapshot eng in
  Alcotest.(check int) "structural epoch carries nothing" 0
    (Snapshot.cached_decisions next);
  let d' = Snapshot.request next q in
  Alcotest.(check int) "new epoch misses" 2 (misses ());
  Alcotest.(check bool) "new decision matches direct" true
    (d' = Engine.request_direct eng Engine.Native q);
  Alcotest.(check bool) "old snapshot keeps its decision" true
    (Snapshot.request snap q = d && misses () = 2)

let test_memo_bounded () =
  let eng = hospital_engine () in
  let m = Engine.metrics eng in
  let misses () = Metrics.counter m "snapshot.cache.misses" in
  let snap = Engine.current_snapshot eng in
  let q i = Printf.sprintf "//patient[psn = \"%03d\"]" i in
  let cap = Snapshot.memo_capacity in
  for i = 0 to cap do
    ignore (Snapshot.request snap (q i))
  done;
  Alcotest.(check int) "capacity respected" cap (Snapshot.cached_decisions snap);
  let before = misses () in
  ignore (Snapshot.request snap (q cap));
  Alcotest.(check int) "newest kept" before (misses ());
  ignore (Snapshot.request snap (q 0));
  Alcotest.(check int) "oldest evicted" (before + 1) (misses ());
  Alcotest.(check int) "still bounded" cap (Snapshot.cached_decisions snap)

(* ------------------------------------------------------------------ *)
(* Requester edge cases *)

let annotated_hospital_backend () =
  let doc = W.Hospital.sample_document () in
  let b = Xml_backend.make doc in
  let p = Optimizer.optimize_policy W.Hospital.policy in
  let _ = Annotator.annotate b p in
  (doc, b, p)

let test_decide_empty_granted () =
  (match Requester.decide ~ids:[] ~accessible:(fun _ -> false) with
  | Requester.Granted [] -> ()
  | _ -> Alcotest.fail "empty answer must be granted vacuously");
  let _, b, _ = annotated_hospital_backend () in
  List.iter
    (fun default ->
      Alcotest.(check bool)
        "no matches granted under either default" true
        (Requester.is_granted
           (Requester.request_string b ~default "//nosuchelement")))
    [ Rule.Plus; Rule.Minus ]

let test_denied_blocked_count () =
  let doc, b, _ = annotated_hospital_backend () in
  (* Patients 033 and 042 are denied (R3/R5), 099 accessible. *)
  (match Requester.request_string b ~default:Rule.Minus "//patient" with
  | Requester.Denied { blocked } ->
      Alcotest.(check int) "two of three patients blocked" 2 blocked
  | Requester.Granted _ -> Alcotest.fail "should be denied");
  (* The count follows the answer set, not the document. *)
  match
    Requester.request b ~default:Rule.Minus (parse "//patient[psn = \"033\"]")
  with
  | Requester.Denied { blocked } ->
      Alcotest.(check int) "single selected node" 1 blocked;
      ignore doc
  | Requester.Granted _ -> Alcotest.fail "033 should be denied"

let test_unannotated_defaults () =
  (* A document that was never annotated: every decision rides on the
     default alone. *)
  let doc = W.Hospital.sample_document () in
  let b = Xml_backend.make doc in
  (match Requester.request_string b ~default:Rule.Plus "//patient" with
  | Requester.Granted ids ->
      Alcotest.(check int) "all patients" 3 (List.length ids)
  | Requester.Denied _ -> Alcotest.fail "grant default must grant");
  match Requester.request_string b ~default:Rule.Minus "//patient" with
  | Requester.Denied { blocked } ->
      Alcotest.(check int) "all blocked" 3 blocked
  | Requester.Granted _ -> Alcotest.fail "deny default must deny"

let test_parse_error_reporting () =
  let _, b, _ = annotated_hospital_backend () in
  let check_message q =
    try
      ignore (Requester.request_string b ~default:Rule.Minus q);
      Alcotest.failf "accepted malformed %S" q
    with Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the expression" msg)
        true
        (Helpers.contains msg q);
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the position" msg)
        true
        (Helpers.contains msg "position")
  in
  List.iter check_message [ "patient"; "//patient["; "//a//"; "" ]

(* ------------------------------------------------------------------ *)
(* Incremental CAM maintenance *)

let annotated_sample () =
  let doc, _, _ = annotated_hospital_backend () in
  doc

let check_cam_equals_fresh name cam doc =
  Alcotest.(check bool) name true
    (Cam.equal cam (Cam.build doc ~default:(Cam.default cam)))

let test_cam_apply_changes () =
  let doc = annotated_sample () in
  let cam = Cam.build doc ~default:Tree.Minus in
  (* Flip a handful of signs in place, then repair incrementally. *)
  let victims =
    List.filteri (fun i _ -> i mod 3 = 0) (Tree.nodes doc)
  in
  List.iter
    (fun (n : Tree.node) ->
      Tree.set_sign doc n
        (match n.Tree.sign with
        | Some Tree.Plus -> Some Tree.Minus
        | Some Tree.Minus -> None
        | None -> Some Tree.Plus))
    victims;
  let changed = List.map (fun (n : Tree.node) -> n.Tree.id) victims in
  let touched = Cam.apply_changes cam doc ~changed in
  Alcotest.(check bool) "touched at least the changed nodes" true
    (touched >= List.length changed);
  check_cam_equals_fresh "apply_changes = fresh build" cam doc

let test_cam_apply_changes_root () =
  let doc = annotated_sample () in
  let cam = Cam.build doc ~default:Tree.Minus in
  let root = Tree.root doc in
  Tree.set_sign doc root (Some Tree.Plus);
  let _ = Cam.apply_changes cam doc ~changed:[ root.Tree.id ] in
  check_cam_equals_fresh "root change" cam doc;
  Alcotest.(check bool) "root lookup" true
    (Cam.lookup cam root = Tree.Plus)

(* A deleted id listed in the change set loses its entry, so a copy
   patched from an epoch's written ids needs no purge. *)
let test_cam_apply_changes_deleted () =
  let doc = annotated_sample () in
  let cam = Cam.build doc ~default:Tree.Minus in
  let doomed =
    List.filter (fun (n : Tree.node) -> n.Tree.name = "treatment") (Tree.nodes doc)
  in
  let deleted =
    List.concat_map
      (fun n -> List.map (fun (d : Tree.node) -> d.Tree.id) (Tree.descendant_or_self n))
      doomed
  in
  let before = Cam.entries cam in
  List.iter (Tree.delete doc) doomed;
  ignore (Cam.apply_changes cam doc ~changed:deleted);
  Alcotest.(check bool) "entries dropped" true (Cam.entries cam < before);
  check_cam_equals_fresh "apply_changes over deletions = fresh build" cam doc

let test_cam_rebuild_subtree () =
  let doc = annotated_sample () in
  let cam = Cam.build doc ~default:Tree.Minus in
  (* Graft a fragment (fresh unannotated nodes) under a signed parent
     and integrate only that subtree. *)
  let frag = Tree.create ~root_name:"treatment" in
  ignore (Tree.add_child frag (Tree.root frag) ~value:"aspirin" "med");
  let parent =
    List.find
      (fun (n : Tree.node) -> n.Tree.name = "patient")
      (Tree.nodes doc)
  in
  let grafted = Tree.graft doc parent frag in
  let touched = Cam.rebuild_subtree cam doc ~root:grafted.Tree.id in
  Alcotest.(check int) "touched the two grafted nodes" 2 touched;
  check_cam_equals_fresh "rebuild_subtree = fresh build" cam doc;
  Alcotest.(check int) "missing root is a no-op" 0
    (Cam.rebuild_subtree cam doc ~root:999999)

let test_cam_purge () =
  let doc = annotated_sample () in
  let cam = Cam.build doc ~default:Tree.Minus in
  let doomed =
    List.filter
      (fun (n : Tree.node) -> n.Tree.name = "treatment")
      (Tree.nodes doc)
  in
  List.iter (Tree.delete doc) doomed;
  let dropped = Cam.purge cam doc in
  Alcotest.(check bool) "dropped something" true (dropped > 0);
  check_cam_equals_fresh "purge = fresh build" cam doc;
  Alcotest.(check int) "node count refreshed" (Tree.size doc)
    (Cam.node_count cam)

(* ------------------------------------------------------------------ *)
(* Engine fast lane *)

let sample_queries =
  [
    "//patient"; "//patient/name"; "//patient[psn = \"099\"]";
    "//patient[.//experimental]"; "//regular/med"; "//staff"; "//nosuch";
  ]

let check_fast_lane_matches eng label =
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s" label q)
        true
        (Engine.request eng Engine.Native q
        = Engine.request_direct eng Engine.Native q))
    sample_queries

let test_engine_fast_lane_matches_direct () =
  let eng = hospital_engine () in
  check_fast_lane_matches eng "after annotate";
  let _ = Engine.update eng "//patient/treatment" in
  check_fast_lane_matches eng "after update";
  Alcotest.(check bool) "cam consistent" true (Helpers.cam_coherent eng)

let test_engine_cache_hits_and_epoch () =
  let eng = hospital_engine () in
  let m = Engine.metrics eng in
  Metrics.reset m;
  let d1 = Engine.request eng Engine.Native "//patient/name" in
  let d2 = Engine.request eng Engine.Native "//patient/name" in
  Alcotest.(check bool) "same decision" true (d1 = d2);
  Alcotest.(check int) "one miss" 1 (Metrics.counter m "cache.misses");
  Alcotest.(check int) "one hit" 1 (Metrics.counter m "cache.hits");
  let e0 = Engine.epoch eng in
  let _ = Engine.update eng "//patient/treatment" in
  Alcotest.(check bool) "epoch bumped" true (Engine.epoch eng > e0);
  let d3 = Engine.request eng Engine.Native "//patient/name" in
  Alcotest.(check int) "update forces recompute" 2
    (Metrics.counter m "cache.misses");
  Alcotest.(check bool) "fresh decision matches direct" true
    (d3 = Engine.request_direct eng Engine.Native "//patient/name")

let test_engine_insert_maintains_cam () =
  let eng = hospital_engine () in
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:"aspirin" "med");
  ignore (Tree.add_child frag reg ~value:"120" "bill");
  (* Reads first, so the insert's snapshot patches their map. *)
  check_fast_lane_matches eng "before insert";
  let _ = Engine.insert eng ~at:"//patient[psn = \"099\"]" ~fragment:frag in
  Alcotest.(check bool) "cam consistent after insert" true
    (Helpers.cam_coherent eng);
  check_fast_lane_matches eng "after insert"

let test_engine_request_parse_error () =
  let eng = hospital_engine () in
  try
    ignore (Engine.request eng Engine.Native "//patient[");
    Alcotest.fail "accepted malformed query"
  with Invalid_argument msg ->
    Alcotest.(check bool) "names the query" true
      (Helpers.contains msg "//patient[")

(* ------------------------------------------------------------------ *)
(* The acceptance property: CAM/cache-served decisions are identical
   to direct sign-read decisions across random documents, role
   policies and update and insert sequences.  Each round reads as the
   anonymous subject and as every role, so the next epoch's snapshot
   patches both kinds of map. *)

let fast_lane_equivalence_prop =
  QCheck2.Test.make
    ~name:"fast lane = direct sign reads across backends and updates"
    ~count:30 Helpers.seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let _ = Engine.annotate eng in
      let _ = Engine.annotate_subjects eng in
      let subjects =
        None :: List.map Option.some (Policy.roles (Engine.policy eng))
      in
      let ok = ref true in
      let check_round () =
        for _ = 1 to 2 do
          let q =
            Xmlac_xpath.Pp.expr_to_string (Helpers.random_hospital_expr rng)
          in
          List.iter
            (fun subject ->
              (* Twice: the second answer is served from the cache. *)
              let direct = Engine.request_direct ?subject eng Engine.Native q in
              if Engine.request ?subject eng Engine.Native q <> direct then
                ok := false;
              if Engine.request ?subject eng Engine.Native q <> direct then
                ok := false)
            subjects
        done;
        if not (Helpers.cam_coherent eng) then ok := false
      in
      check_round ();
      for i = 1 to 4 do
        (if i mod 2 = 0 then begin
           let fragment = Tree.create ~root_name:"treatment" in
           let reg = Tree.add_child fragment (Tree.root fragment) "regular" in
           ignore (Tree.add_child fragment reg ~value:"aspirin" "med");
           ignore (Engine.insert eng ~at:"//patient" ~fragment)
         end
         else ignore (Engine.update eng (Helpers.random_update rng)));
        check_round ()
      done;
      !ok)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~and_exit:false "requester fast lane"
    [
      ( "metrics",
        [
          tc "counters" test_metrics_counters;
          tc "timers" test_metrics_timers;
          tc "hit rate" test_metrics_hit_rate;
        ] );
      ( "snapshot memo",
        [
          tc "hit and epoch invalidation" test_memo_hit_and_epoch;
          tc "bounded" test_memo_bounded;
        ] );
      ( "requester edge cases",
        [
          tc "empty answers granted" test_decide_empty_granted;
          tc "blocked counts" test_denied_blocked_count;
          tc "unannotated under both defaults" test_unannotated_defaults;
          tc "parse error reporting" test_parse_error_reporting;
        ] );
      ( "incremental cam",
        [
          tc "apply_changes" test_cam_apply_changes;
          tc "apply_changes at root" test_cam_apply_changes_root;
          tc "apply_changes over deletions" test_cam_apply_changes_deleted;
          tc "rebuild_subtree" test_cam_rebuild_subtree;
          tc "purge" test_cam_purge;
        ] );
      ( "engine fast lane",
        [
          tc "matches direct" test_engine_fast_lane_matches_direct;
          tc "cache hits and epoch" test_engine_cache_hits_and_epoch;
          tc "insert maintains cam" test_engine_insert_maintains_cam;
          tc "parse error via engine" test_engine_request_parse_error;
          QCheck_alcotest.to_alcotest fast_lane_equivalence_prop;
        ] );
    ]
