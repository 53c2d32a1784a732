(* Insert updates, the default engine, the role-bitmap repair and the
   writer's index, end to end through the engine.  The end-to-end
   scenarios are in [test_scenarios.ml]. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
module W = Xmlac_workload

let treatment_fragment ~med ~bill =
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:med "med");
  ignore (Tree.add_child frag reg ~value:bill "bill");
  frag

let test_insert_keeps_stores_lockstep () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  let eng = c.eng in
  Helpers.cross_apply c Helpers.Annotate;
  (* Give the treatment-less patient a regular treatment: rule R3
     (//patient[treatment], deny) must kick in and flip that patient to
     inaccessible. *)
  let before = Engine.request eng Engine.Native "//patient[psn = \"099\"]" in
  Alcotest.(check bool) "accessible before" true (Requester.is_granted before);
  Helpers.cross_apply c
    (Helpers.Insert
       {
         at = "//patient[psn = \"099\"]";
         fragment = treatment_fragment ~med:"aspirin" ~bill:"120";
       });
  Alcotest.(check int) "one graft" 1
    (List.length
       (Helpers.ids (Engine.document eng)
          "//patient[psn = \"099\"]/treatment"));
  Helpers.check_cross "after insert" c;
  (* The annotations match the reference semantics of the updated
     document. *)
  Alcotest.(check Helpers.int_list) "matches reference"
    (Policy.accessible_ids (Engine.policy eng) (Engine.document eng))
    (Engine.accessible eng);
  let after = Engine.request eng Engine.Native "//patient[psn = \"099\"]" in
  Alcotest.(check bool) "inaccessible after (R3)" false
    (Requester.is_granted after);
  (* And the document is still schema-valid everywhere. *)
  Alcotest.(check bool) "valid" true
    (Xmlac_xml.Dtd.is_valid W.Hospital.dtd (Engine.document eng))

let staff_fragment () =
  let frag = Tree.create ~root_name:"staff" in
  let d = Tree.add_child frag (Tree.root frag) "nurse" in
  ignore (Tree.add_child frag d ~value:"S9" "sid");
  ignore (Tree.add_child frag d ~value:"new nurse" "name");
  ignore (Tree.add_child frag d ~value:"555-0000" "phone");
  frag

let test_insert_multiple_targets_relational_mirror () =
  let doc = W.Hospital.generate ~seed:3L ~departments:2 ~patients_per_dept:4 () in
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy doc
  in
  Helpers.cross_apply c Helpers.Annotate;
  let nurses () = Helpers.ids (Engine.document c.eng) "//nurse" in
  let before = List.length (nurses ()) in
  Helpers.cross_apply c
    (Helpers.Insert { at = "//staffinfo"; fragment = staff_fragment () });
  Alcotest.(check int) "two grafts" (before + 2) (List.length (nurses ()));
  Helpers.check_cross "after insert" c;
  (* The relational stores really contain the new tuples, with the
     native store's ids. *)
  List.iter
    (fun (_, (b : Backend.t)) ->
      Alcotest.(check Helpers.int_list) (b.Backend.name ^ " nurse ids mirrored")
        (nurses ())
        (List.sort compare (b.Backend.eval_ids (Helpers.parse "//nurse"))))
    c.stores

let test_insert_then_delete_round () =
  let c =
    Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  Helpers.cross_apply c Helpers.Annotate;
  Helpers.cross_apply c
    (Helpers.Insert
       {
         at = "//patient[psn = \"099\"]";
         fragment = treatment_fragment ~med:"celecoxib" ~bill:"90";
       });
  Helpers.cross_apply c (Helpers.Update "//treatment");
  Helpers.check_cross "after round trip" c;
  Alcotest.(check Helpers.int_list) "matches reference"
    (Policy.accessible_ids (Engine.policy c.eng) (Engine.document c.eng))
    (Engine.accessible c.eng)

(* ------------------------------------------------------------------ *)
(* The engine holds the native store only; the kind-shaped surface
   that remains reports that one store. *)

let test_default_holds_native_only () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  Alcotest.(check bool) "all_backend_kinds = [Native]" true
    (Engine.all_backend_kinds = [ Engine.Native ]);
  Alcotest.(check bool) "no WAL" true (Engine.wal eng Engine.Native = None);
  Alcotest.(check (option int)) "no epoch opened" None (Engine.open_epoch eng);
  Alcotest.(check int) "annotate_all covers the one store" 1
    (List.length (Engine.annotate_all eng));
  let stats = Engine.update eng "//patient/treatment" in
  Alcotest.(check bool) "update reports the native store only" true
    (List.map fst stats = [ Engine.Native ])

(* The paper's store comparison as a property: random update/insert
   scripts (with annotation passes mixed in) replayed on the engine and
   on the row and column stores keep every anonymous and per-role
   accessible set equal. *)
let cross_store_prop =
  QCheck2.Test.make
    ~name:"row and column stores = default engine over random scripts"
    ~count:25 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let c = Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy doc in
      let check step =
        match Helpers.cross_disagreement c with
        | None -> ()
        | Some diff -> QCheck2.Test.fail_reportf "after %s: %s" step diff
      in
      check "create";
      for _ = 1 to 5 do
        let op =
          match Prng.int rng 4 with
          | 0 -> Helpers.Annotate
          | 1 -> Helpers.Annotate_subjects
          | 2 -> Helpers.Update (Helpers.random_update rng)
          | _ ->
              let at, fragment =
                if Prng.bool rng then
                  ("//patient", treatment_fragment ~med:"aspirin" ~bill:"120")
                else ("//staffinfo", staff_fragment ())
              in
              Helpers.Insert { at; fragment }
        in
        Helpers.cross_apply c op;
        check
          (match op with
          | Helpers.Annotate -> "annotate"
          | Annotate_subjects -> "annotate_subjects"
          | Update q -> "update " ^ q
          | Insert { at; _ } -> "insert at " ^ at)
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Signs and role bitmaps on the default engine: a structural mutation
   repairs both over its affected region only, and the repair must say
   exactly what the policy says.  The engine's own oracle
   ([request_direct]) reads the same signs and bitmaps, so the
   reference semantics is the only check that can see them drift.

   Every repair evaluates its scopes on the writer's pre/size index.
   Reads between mutations decide whether the repair hands the index
   it patched to the epoch's snapshot or keeps patching its own two
   buffers.  The property reads after the first annotation and after a
   random half of the mutations, so a run usually covers both, and
   after every step the writer's index must equal a build of the
   document. *)

let counter eng name = Xmlac_util.Metrics.counter (Engine.metrics eng) name

let random_request rng eng roles =
  let subject =
    if roles = [] || Prng.bool rng then None
    else Some (Prng.choose_list rng roles)
  in
  let q = Xmlac_xpath.Pp.expr_to_string (Helpers.random_hospital_expr rng) in
  if Engine.request ?subject eng Engine.Native q
     <> Engine.request_direct ?subject eng Engine.Native q
  then QCheck2.Test.fail_reportf "request %s differs from the direct read" q

let repair_oracle_prop =
  QCheck2.Test.make
    ~name:"default engine: signs and role bitmaps = reference after every \
           mutation"
    ~count:40 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let def = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let roles = Policy.roles (Engine.policy def) in
      let check step =
        let fail fmt = QCheck2.Test.fail_reportf ("after %s: " ^^ fmt) step in
        if
          Engine.accessible def
          <> Policy.accessible_ids (Engine.policy def) (Engine.document def)
        then fail "anonymous signs differ from the policy";
        if
          not
            (Xmlac_xpath.Index.equal (Engine.writer_index def)
               (Xmlac_xpath.Index.build (Engine.document def)))
        then fail "the writer's index differs from a build";
        List.iter
          (fun role ->
            let want =
              Policy.accessible_ids ~subject:role (Engine.policy def)
                (Engine.document def)
            in
            if Engine.accessible_subject def role <> want then
              fail "%s's bitmaps differ from the policy" role)
          roles
      in
      let read () =
        for _ = 1 to 1 + Prng.int rng 3 do
          random_request rng def roles
        done
      in
      ignore (Engine.annotate def);
      ignore (Engine.annotate_subjects def);
      check "annotate_subjects";
      read ();
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
        check step;
        if Prng.bool rng then read ()
      done;
      if counter def "repair.index_rebuilds" > 0 then
        QCheck2.Test.fail_report "the writer's index was rebuilt";
      true)

let bitmapped_engine () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd
      ~policy:(Lazy.force Helpers.hospital_roles_policy)
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  eng

(* A crash inside an insert epoch that follows a read, at [site]:
   before the graft ([native.insert]) or after the whole repair
   ([epoch.commit]).  Recovery must land on the reference signs and
   bitmaps, and the recovered snapshot must hold an index handed over
   by the repair that answers as [Eval] does on its view. *)
let test_crash_after_read site () =
  let module Fault = Xmlac_util.Fault in
  Fault.reset ();
  let eng = bitmapped_engine () in
  ignore (Engine.request eng Engine.Native "//patient/name");
  Fault.arm site (Fault.After 1);
  (match
     Engine.insert eng ~at:"//patient"
       ~fragment:(treatment_fragment ~med:"aspirin" ~bill:"120")
   with
  | _ -> Alcotest.fail "the insert did not crash"
  | exception Fault.Crash s -> Alcotest.(check string) "crash site" site s);
  ignore (Engine.recover eng);
  Fault.reset ();
  let policy = Engine.policy eng and doc = Engine.document eng in
  Alcotest.(check Helpers.int_list) "signs = reference"
    (Policy.accessible_ids policy doc) (Engine.accessible eng);
  List.iter
    (fun role ->
      Alcotest.(check Helpers.int_list) (role ^ "'s bitmaps = reference")
        (Policy.accessible_ids ~subject:role policy doc)
        (Engine.accessible_subject eng role))
    (Policy.roles policy);
  let snap = Engine.current_snapshot eng in
  (* Each attempt that got past the graft patched a post-update index;
     at [epoch.commit] the crashed attempt's described writes that
     recovery discarded, so the re-run patched the read index again. *)
  Alcotest.(check int) "post-update indexes patched"
    (if site = "epoch.commit" then 2 else 1)
    (counter eng "repair.index_patches");
  Alcotest.(check bool) "no reader took it yet" true
    (Snapshot.read_index snap = None);
  let builds = counter eng "snapshot.index_builds" in
  let idx = Snapshot.index snap and view = Snapshot.document snap in
  List.iter
    (fun q ->
      let e = Xmlac_xpath.Parser.parse_exn q in
      Alcotest.(check Helpers.int_list) ("index = Eval: " ^ q)
        (List.map (fun (n : Tree.node) -> n.Tree.id) (Xmlac_xpath.Eval.eval view e))
        (Array.to_list (Array.map (Xmlac_xpath.Index.id idx) (Xmlac_xpath.Index.eval idx e))))
    [ "//patient/name"; "//treatment"; "//patient[treatment]/psn"; "//regular/med";
      "//*"; "/hospital/dept//name" ];
  Alcotest.(check int) "handed over, not built by a reader" builds
    (counter eng "snapshot.index_builds");
  List.iter
    (fun q ->
      Alcotest.(check bool) ("request = direct: " ^ q) true
        (Engine.request eng Engine.Native q
        = Engine.request_direct eng Engine.Native q))
    [ "//patient/name"; "//treatment"; "//regular" ]

(* Per-node bitmap writes on the native store so far: its backend
   crosses this fault point once per node stamped. *)
let bit_stamps () = Xmlac_util.Fault.hits "native.set_bits"

let raw_bits eng =
  let b = Engine.backend eng Engine.Native in
  List.map (fun id -> (id, b.Backend.bits_of id)) (b.Backend.live_ids ())

(* The rules the engine's trigger — the complete, overlap-based graph —
   reaches from the given update paths. *)
let overlap_triggered eng updates =
  let depend = Engine.depend eng in
  Trigger.triggered_rules depend
    (Trigger.run_all ~schema:(Engine.schema_graph eng) depend
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
    List.map
      (fun (r : Rule.t) ->
        Helpers.ids (Engine.document eng)
          (Xmlac_xpath.Pp.expr_to_string r.Rule.resource))
      rules
  in
  let pre = scopes () and before = raw_bits eng and stamps = bit_stamps () in
  let s = native_stats (Engine.update eng update) in
  (* The moved region: per triggered rule, the nodes that entered or
     left its scope. *)
  let region =
    List.concat
      (List.map2
         (fun pre post ->
           List.filter (fun id -> not (List.mem id post)) pre
           @ List.filter (fun id -> not (List.mem id pre)) post)
         pre (scopes ()))
  in
  let rewritten = s.Reannotator.bits_changed in
  Alcotest.(check bool) "the deletion rewrote some bitmaps" true
    (rewritten <> []);
  Alcotest.(check int) "one stamp per rewritten node"
    (List.length rewritten)
    (bit_stamps () - stamps);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rewritten node %d moved in a triggered scope" id)
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
        (Engine.accessible_subject eng role))
    (Policy.roles policy)

(* A fragment's own annotations belong to another document: grafted
   nodes start unannotated, so a node no triggered scope reaches reads
   as the default instead of keeping the fragment's grant. *)
let test_insert_drops_fragment_annotations () =
  let eng = bitmapped_engine () in
  let policy = Engine.policy eng in
  let all_roles =
    Xmlac_util.Bitset.of_list (List.init (Policy.role_count policy) Fun.id)
  in
  let fragment = Tree.create ~root_name:"treatment" in
  let regular = Tree.add_child fragment (Tree.root fragment) "regular" in
  ignore (Tree.add_child fragment regular ~value:"aspirin" "med");
  ignore (Tree.add_child fragment regular ~value:"120" "bill");
  Tree.iter
    (fun n ->
      Tree.set_sign fragment n (Some Tree.Plus);
      Tree.set_bits fragment n (Some all_roles))
    fragment;
  ignore (Engine.insert eng ~at:"//patient[psn = \"099\"]" ~fragment);
  let doc = Engine.document eng in
  Alcotest.(check Helpers.int_list) "anonymous matches the policy"
    (Policy.accessible_ids policy doc)
    (Engine.accessible eng);
  List.iter
    (fun role ->
      Alcotest.(check Helpers.int_list) (role ^ " matches the policy")
        (Policy.accessible_ids ~subject:role policy doc)
        (Engine.accessible_subject eng role))
    (Policy.roles policy)

(* ------------------------------------------------------------------ *)
(* The check of the repository benchmark's traced role-churn run: a
   16-role engine with bitmaps on XMark takes a paired insert/delete
   stream, a read after each mutation; every mutation is replayed
   through [Reannotator.prepare] / [finish] on a native and a row
   store built from the engine's document, and all three report the
   same region, triggered rules and sign writes. *)

let role_scopes =
  [ "//emailaddress"; "//person[creditcard]/emailaddress"; "//phone";
    "//interest"; "//payment"; "//location"; "//current";
    "//open_auction[type = \"Featured\"]/current" ]

let sixteen_role_policy doc =
  let base = W.Coverage.policy_for_target ~doc ~target:0.5 in
  let name i = Printf.sprintf "r%d" i in
  let subjects =
    Subject.make_exn (List.init 16 (fun i -> Subject.role (name i)))
  in
  let qualified =
    List.init 16 (fun i ->
        Rule.parse ~name:(Printf.sprintf "q%d" i) ~subjects:[ name i ]
          (List.nth role_scopes (i mod List.length role_scopes))
          Rule.Plus)
  in
  Policy.make ~subjects ~ds:(Policy.ds base) ~cr:(Policy.cr base)
    (Policy.rules base @ qualified)

let leaves name children =
  let t = Tree.create ~root_name:name in
  List.iter
    (fun (n, v) -> ignore (Tree.add_child t (Tree.root t) ~value:v n))
    children;
  t

(* The name of a set-up person whose children satisfy [pred]. *)
let person_where pred doc =
  Tree.fold
    (fun acc (n : Tree.node) ->
      let child name =
        List.exists (fun (c : Tree.node) -> c.Tree.name = name) n.Tree.children
      in
      match
        List.find_opt (fun (c : Tree.node) -> c.Tree.name = "name") n.Tree.children
      with
      | Some { Tree.value = Some v; _ } when n.Tree.name = "person" && pred child
        ->
          Some v
      | _ -> acc)
    None doc
  |> Option.get

(* Pair [k]: an insert, then the delete of exactly what it inserted.
   The kinds trigger one rule, several (a creditcard), or none. *)
let mutation_pair doc k =
  let m = Printf.sprintf "mr%d" k in
  let person pred = Printf.sprintf "/site/people/person[name = \"%s\"]" (person_where pred doc) in
  match k mod 5 with
  | 0 ->
      [ `Insert ("/site/people",
          leaves "person" [ ("name", m); ("emailaddress", "mailto:" ^ m); ("creditcard", "1") ]);
        `Delete (Printf.sprintf "/site/people/person[name = \"%s\"]" m) ]
  | 1 ->
      [ `Insert ("/site/regions/europe",
          leaves "item" [ ("location", "Greece"); ("name", m); ("payment", "Cash") ]);
        `Delete (Printf.sprintf "/site/regions/europe/item[name = \"%s\"]" m) ]
  | 2 ->
      [ `Insert ("/site/open_auctions",
          leaves "open_auction" [ ("current", "15.00"); ("seller", m); ("type", "Featured") ]);
        `Delete (Printf.sprintf "/site/open_auctions/open_auction[seller = \"%s\"]" m) ]
  | 3 ->
      let at = person (fun c -> not (c "creditcard")) in
      [ `Insert (at, leaves "creditcard" []); `Delete (at ^ "/creditcard") ]
  | _ ->
      let at = person (fun c -> c "profile") ^ "/profile" in
      let interest = leaves "interest" [] in
      Tree.set_value interest (Tree.root interest) (Some m);
      [ `Insert (at, interest);
        `Delete (Printf.sprintf "%s/interest[. = \"%s\"]" at m) ]

let test_mirror_replay_matches_engine () =
  Xmlac_util.Fault.reset ();
  let source = W.Xmark.generate ~factor:0.02 () in
  let eng =
    Engine.create ~dtd:W.Xmark.dtd ~policy:(sixteen_role_policy source) source
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let policy = Engine.policy eng and schema = Engine.schema_graph eng in
  let depend = Engine.depend eng and mapping = Engine.mapping eng in
  let doc = Tree.copy (Engine.document eng) in
  let db, row = Rel_backend.load mapping policy Xmlac_reldb.Table.Row doc in
  ignore (Annotator.annotate_with_plan row (Engine.plan eng));
  ignore (Annotator.annotate_subjects ~schema row policy);
  let stores = [ ("native", Xml_backend.make doc, None); ("row", row, Some db) ] in
  let replay mu =
    let roots = ref [] in
    let touched, apply =
      match mu with
      | `Delete q ->
          let e = Helpers.parse q in
          ([ e ], fun (b : Backend.t) _ -> b.Backend.delete_update e)
      | `Insert (at, fragment) ->
          let at_expr = Helpers.parse at in
          let root_path =
            Xmlac_xpath.Ast.
              { steps = at_expr.steps @ [ step Child (Name (Tree.root fragment).Tree.name) ] }
          in
          ( [ root_path;
              Xmlac_xpath.Ast.{ steps = root_path.steps @ [ step Descendant Wildcard ] } ],
            fun _ db ->
              (match db with
              | None -> roots := Xmlac_xmldb.Update.insert_nodes doc ~at:at_expr ~fragment
              | Some db ->
                  List.iter
                    (fun r ->
                      ignore
                        (Xmlac_shrex.Shred.insert_subtree mapping
                           ~default_sign:(Rule.effect_to_string (Policy.ds policy))
                           ~default_bits:(Policy.default_bits policy) db r))
                    !roots);
              List.length !roots )
    in
    List.map
      (fun (name, b, db) ->
        let p = Reannotator.prepare ~schema ~bits:true b depend ~touched in
        let deleted_roots = apply b db in
        (name, Reannotator.finish ~schema b depend p ~deleted_roots))
      stores
  in
  let repaired = ref 0 in
  List.iteri
    (fun i mu ->
      let engine =
        native_stats
          (match mu with
          | `Insert (at, fragment) -> Engine.insert eng ~at ~fragment
          | `Delete q -> Engine.update eng q)
      in
      if engine.Reannotator.affected > 0 then incr repaired;
      List.iter
        (fun (name, (s : Reannotator.stats)) ->
          let what field = Printf.sprintf "mutation %d, %s: %s" i name field in
          Alcotest.(check int) (what "affected") engine.Reannotator.affected
            s.Reannotator.affected;
          Alcotest.(check Helpers.int_list) (what "triggered")
            engine.Reannotator.triggered s.Reannotator.triggered;
          Alcotest.(check int) (what "changed")
            (List.length engine.Reannotator.changed)
            (List.length s.Reannotator.changed))
        (replay mu);
      (* A read that evaluates marks the snapshot's index read, so the
         next repair hands its patched index over.  A fill reads no
         index, so each read asks a query text no memo holds. *)
      ignore
        (Engine.request ~subject:(Printf.sprintf "r%d" (i mod 16)) eng Engine.Native
           (Printf.sprintf "//person[name != \"q%d\"]/name" i)))
    (List.concat_map (mutation_pair source) (List.init 10 Fun.id));
  Alcotest.(check int) "every delete took what its insert grafted"
    (Tree.size source) (Tree.size (Engine.document eng));
  Alcotest.(check bool) "some mutations moved a region" true (!repaired > 0);
  Alcotest.(check bool) "the writer's index = a build" true
    (Xmlac_xpath.Index.equal (Engine.writer_index eng)
       (Xmlac_xpath.Index.build (Engine.document eng)));
  (* The first mutation follows no read, so its snapshot is handed
     nothing and the read after it builds the one index. *)
  Alcotest.(check (pair int int)) "no rebuild; one build, after the unread first epoch"
    (0, 1)
    (counter eng "repair.index_rebuilds", counter eng "snapshot.index_builds")

(* ------------------------------------------------------------------ *)
(* The patched index under readers.  Every read demands the index, so
   every structural repair patches the last one and every capture
   carries the last grant column.  The oracle shares neither: it evaluates
   with [Eval] on a copy of the document and reads accessibility off
   the policy's reference semantics. *)

let served_oracle policy doc ?subject query =
  let copy = Tree.copy doc in
  let ids =
    List.sort Int.compare
      (List.map
         (fun (n : Tree.node) -> n.Tree.id)
         (Xmlac_xpath.Eval.eval copy (Helpers.parse query)))
  in
  let ok = Policy.accessible_ids ?subject policy copy in
  match List.filter (fun id -> not (List.mem id ok)) ids with
  | [] -> Requester.Granted ids
  | blocked -> Requester.Denied { blocked = List.length blocked }

let random_structural rng eng =
  if Prng.bool rng then ignore (Engine.update eng (Helpers.random_update rng))
  else
    let at, fragment =
      if Prng.bool rng then
        ("//patient", treatment_fragment ~med:"aspirin" ~bill:"120")
      else ("//staffinfo", staff_fragment ())
    in
    ignore (Engine.insert eng ~at ~fragment)

let served_oracle_prop =
  QCheck2.Test.make
    ~name:"default engine under readers: served decisions = Eval on a copy"
    ~count:40 QCheck2.Gen.int64 (fun seed ->
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      ignore (Engine.annotate_subjects eng);
      let policy = Engine.policy eng in
      let subjects = None :: List.map Option.some (Policy.roles policy) in
      let read step =
        for _ = 1 to 3 do
          let subject = Prng.choose_list rng subjects in
          let q = Xmlac_xpath.Pp.expr_to_string (Helpers.random_hospital_expr rng) in
          if
            Engine.request ?subject eng Engine.Native q
            <> served_oracle policy (Engine.document eng) ?subject q
          then QCheck2.Test.fail_reportf "after %s: %s differs from the oracle" step q
        done
      in
      read "annotation";
      (* Epoch 1 grafts a staff member under //staffinfo, which every
         generated hospital document has, so every case runs at least
         one structural epoch that changes the document. *)
      for i = 1 to 6 do
        if i = 1 then
          ignore (Engine.insert eng ~at:"//staffinfo" ~fragment:(staff_fragment ()))
        else if Prng.int rng 5 = 0 then ignore (Engine.annotate_subjects eng)
        else random_structural rng eng;
        read (Printf.sprintf "epoch %d" i)
      done;
      if counter eng "repair.index_patches" = 0 then
        QCheck2.Test.fail_report "no repair patched an index";
      true)

(* On a churn engine read after every epoch, the grant column is
   built once, at the first read, and the index never (epoch 0's snapshot
   holds the writer's); every structural epoch patches the one into a
   fresh buffer, since readers hold the last, and carries the other. *)
let test_churn_patches_not_builds () =
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.request eng Engine.Native "//patient/name");
  let builds () = counter eng "snapshot.index_builds"
  and grant_builds () = counter eng "snapshot.grant_builds" in
  Alcotest.(check (pair int int))
    "the first read builds the grants, epoch 0 was handed the index" (0, 1)
    (builds (), grant_builds ());
  for k = 1 to 8 do
    if k mod 2 = 1 then
      ignore
        (Engine.insert eng ~at:"//patients"
           ~fragment:
             (Xmlac_xml.Xml_parser.parse_exn
                (Printf.sprintf "<patient><psn>9%d</psn><name>Ann</name></patient>" k)))
    else ignore (Engine.update eng (Printf.sprintf "//patient[psn = \"9%d\"]" (k - 1)));
    ignore (Engine.request eng Engine.Native "//patient/name")
  done;
  Alcotest.(check (pair int int)) "builds stay at their cold-start count" (0, 1)
    (builds (), grant_builds ());
  Alcotest.(check (pair int int)) "a patch and a spare per structural epoch" (8, 8)
    (counter eng "repair.index_patches", counter eng "repair.index_spares");
  Alcotest.(check int) "a carry per epoch" 8 (counter eng "snapshot.grant_carries");
  Alcotest.(check bool) "signs = reference" true
    (Engine.accessible eng
    = Policy.accessible_ids (Engine.policy eng) (Engine.document eng))

(* ------------------------------------------------------------------ *)
(* The writer's index.  The engine finds its delete targets and insert
   parents on it, in the order [Eval] lists them, so deletion order and
   the ids grafts hand out stay what they were; and every crash between
   the apply and the commit leaves it describing the settled document. *)

let targets_prop =
  QCheck2.Test.make ~name:"update targets on the writer index = Eval, in order"
    ~count:40 Helpers.seed_gen (fun seed ->
      let rng = Prng.create ~seed in
      let hospital = Prng.bool rng in
      let doc =
        if hospital then Helpers.random_hospital_doc rng
        else W.Xmark.generate ~seed:(Prng.next_int64 rng) ~factor:0.002 ()
      in
      let expr () =
        if hospital then Helpers.random_hospital_expr rng
        else Xmlac_xpath.Qgen.gen_expr rng (Lazy.force Helpers.xmark_sg)
      in
      let fragment =
        Xmlac_xml.Xml_parser.parse_exn
          (if hospital then "<patient><psn>7</psn><name>Ann</name></patient>"
           else "<person><name>Ann</name><creditcard>1</creditcard></person>")
      in
      ignore (Tree.freeze doc);
      let live = Live_index.create doc in
      let ids = List.map (fun (n : Tree.node) -> n.Tree.id) in
      for step = 1 to 8 do
        let e = expr () in
        let targets = Live_index.targets live e in
        if ids targets <> ids (Xmlac_xpath.Eval.eval doc e) then
          QCheck2.Test.fail_reportf "step %d: %s: targets differ from Eval" step
            (Xmlac_xpath.Pp.expr_to_string e);
        (* Churn on those targets, then patch as an epoch does. *)
        (if Prng.bool rng then begin
           if List.for_all (fun n -> Tree.parent n <> None) targets then
             ignore (Xmlac_xmldb.Update.delete_nodes doc targets)
         end
         else
           ignore
             (Xmlac_xmldb.Update.graft_under doc
                (List.filteri (fun i _ -> i < 2)
                   (List.filter (fun (n : Tree.node) -> n.Tree.value = None) targets))
                ~fragment));
        Live_index.patch live;
        ignore (Tree.freeze doc)
      done;
      true)

(* A crash at each point between an update's apply and its commit,
   after a read (the patched index is handed over) and without one
   (it stays the writer's): once [Engine.settle] ran, the writer's index
   describes the document and equals a build, with no rebuild. *)
let test_writer_index_after_crash () =
  let module Fault = Xmlac_util.Fault in
  let module Index = Xmlac_xpath.Index in
  List.iter
    (fun (site, read) ->
      Fault.reset ();
      let eng = bitmapped_engine () in
      if read then ignore (Engine.request eng Engine.Native "//patient/name");
      let since = Engine.sign_epoch eng in
      Fault.arm site (Fault.After 1);
      let what = Printf.sprintf "%s%s" site (if read then " after a read" else "") in
      (match
         if site = "native.insert" then
           ignore
             (Engine.insert eng ~at:"//patient"
                ~fragment:(treatment_fragment ~med:"aspirin" ~bill:"120"))
         else ignore (Engine.update eng "//patient/treatment")
       with
      | () -> Alcotest.failf "%s: the mutation did not crash" what
      | exception Fault.Crash _ -> ());
      ignore (Engine.settle eng ~since);
      Fault.reset ();
      let idx = Engine.writer_index eng in
      Alcotest.(check bool) (what ^ ": describes the document") true
        (Index.describes idx (Engine.document eng));
      Alcotest.(check bool) (what ^ ": = a build") true
        (Index.equal idx (Index.build (Engine.document eng)));
      Alcotest.(check int) (what ^ ": no rebuild") 0
        (counter eng "repair.index_rebuilds"))
    (List.concat_map
       (fun site -> [ (site, false); (site, true) ])
       [ "native.delete"; "native.insert"; "native.set_sign"; "native.set_bits";
         "epoch.commit"; "snapshot.publish" ])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration-insert"
    [
      ( "insert updates",
        [
          tc "lockstep and R3 flip" test_insert_keeps_stores_lockstep;
          tc "multiple targets mirrored" test_insert_multiple_targets_relational_mirror;
          tc "insert then delete" test_insert_then_delete_round;
          tc "grafts start unannotated" test_insert_drops_fragment_annotations;
        ] );
      ( "default engine",
        [
          tc "holds the native store only" test_default_holds_native_only;
          QCheck_alcotest.to_alcotest cross_store_prop;
        ] );
      ( "bitmap repair",
        [
          QCheck_alcotest.to_alcotest repair_oracle_prop;
          tc "untriggered insert rewrites no bitmap"
            test_untriggered_insert_keeps_bitmaps;
          tc "rewritten bitmaps lie in the triggered scopes"
            test_bits_repair_stays_in_region;
          tc "crash at native.insert after a read"
            (test_crash_after_read "native.insert");
          tc "crash at epoch.commit after a read"
            (test_crash_after_read "epoch.commit");
          tc "mirror replay matches the engine on 16-role XMark"
            test_mirror_replay_matches_engine;
        ] );
      ( "patched index",
        [
          QCheck_alcotest.to_alcotest served_oracle_prop;
          tc "churn patches and carries, never rebuilds"
            test_churn_patches_not_builds;
        ] );
      ( "writer index",
        [
          QCheck_alcotest.to_alcotest targets_prop;
          tc "describes the document after a crash at any apply point"
            test_writer_index_after_crash;
        ] );
    ]
