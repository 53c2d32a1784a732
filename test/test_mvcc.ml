(* MVCC epoch snapshots: the registry's pin/publish/reclaim lifecycle,
   the engine's publish-on-commit integration, the pinned-reader
   isolation property (byte-identical decisions before, during and
   after the next epoch commits, against all three backends), the
   crash sweep where the writer dies mid-epoch under pinned readers,
   and the concurrent front end (Pool scheduling, Session lifecycle,
   a multi-domain smoke run). *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module Pp = Xmlac_xpath.Pp
module W = Xmlac_workload
module S = Xmlac_serve.Serve
module Session = Xmlac_serve.Session
module Pool = Xmlac_serve.Pool

(* ------------------------------------------------------------------ *)
(* Fixtures. *)

let make_engine =
  let doc = lazy (W.Hospital.sample_document ()) in
  fun () ->
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (Lazy.force doc)

let annotated_engine () =
  let eng = make_engine () in
  ignore (Engine.annotate eng);
  eng

(* Control queries whose decisions move when treatments are deleted. *)
let probe_queries =
  [ "//patient/name"; "//nurse"; "//treatment"; "//patient/psn" ]

let probe_update = "//treatment"

(* A decision transcript of the snapshot: the "bytes" a pinned reader
   sees.  Rendering through the printer makes the comparison catch
   ordering changes too, not just set membership. *)
let transcript ?subject snap =
  String.concat "\n"
    (List.map
       (fun q ->
         Format.asprintf "%s -> %a" q Requester.pp
           (Snapshot.request ?subject snap q))
       probe_queries)

(* ------------------------------------------------------------------ *)
(* Registry lifecycle. *)

let capture_of eng =
  Snapshot.capture ~epoch:(Engine.sign_epoch eng)
    ~policy:(Engine.policy eng) ~metrics:(Engine.metrics eng)
    (Engine.document eng)

let test_registry_lifecycle () =
  Fault.reset ();
  let eng = annotated_engine () in
  let m = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics:m () in
  Alcotest.(check (option int)) "empty registry" None
    (Snapshot.current_epoch reg);
  (match Snapshot.pin reg with
  | _ -> Alcotest.fail "pin before first publish did not raise"
  | exception Invalid_argument _ -> ());
  let s0 = capture_of eng in
  Snapshot.publish reg s0;
  Alcotest.(check (option int)) "s0 current"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  Alcotest.(check int) "one live" 1 (Snapshot.live reg);
  (* Publishing over an unpinned current reclaims it immediately. *)
  let s1 = capture_of eng in
  Snapshot.publish reg s1;
  Alcotest.(check int) "unpinned predecessor reclaimed" 1
    (Snapshot.live reg);
  Alcotest.(check int) "reclaim counted" 1 (Snapshot.reclaimed reg);
  (* A pinned current is retired by the next publish, not reclaimed. *)
  let p = Snapshot.pin reg in
  Alcotest.(check int) "pin counted" 1 (Snapshot.pins p);
  let s2 = capture_of eng in
  Snapshot.publish reg s2;
  Alcotest.(check int) "pinned predecessor retired" 1
    (Snapshot.retired reg);
  Alcotest.(check int) "two live" 2 (Snapshot.live reg);
  Alcotest.(check int) "reclaim lag high-water" 1
    (Snapshot.max_retired reg);
  (* Reclaim happens exactly when the last pin goes. *)
  Snapshot.unpin reg p;
  Alcotest.(check int) "retired freed at refcount 0" 0
    (Snapshot.retired reg);
  Alcotest.(check int) "back to one live" 1 (Snapshot.live reg);
  (match Snapshot.unpin reg p with
  | () -> Alcotest.fail "double unpin did not raise"
  | exception Invalid_argument _ -> ());
  (* The current snapshot is never reclaimed, pinned or not. *)
  let c = Snapshot.pin reg in
  Snapshot.unpin reg c;
  Alcotest.(check bool) "current survives its last unpin" true
    (Snapshot.current reg <> None);
  Alcotest.(check int) "three publishes" 3 (Snapshot.published reg)

let test_engine_publishes_on_commit () =
  Fault.reset ();
  let eng = make_engine () in
  let reg = Engine.snapshots eng in
  Alcotest.(check (option int)) "epoch 0 published at create" (Some 0)
    (Snapshot.current_epoch reg);
  ignore (Engine.annotate eng);
  Alcotest.(check (option int)) "commit republishes"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  let pinned = Engine.pin_snapshot eng in
  let before = Engine.sign_epoch eng in
  ignore (Engine.update eng probe_update);
  Alcotest.(check bool) "writer advanced" true
    (Engine.sign_epoch eng > before);
  Alcotest.(check (option int)) "registry tracks the writer"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  Alcotest.(check int) "pinned epoch frozen" before
    (Snapshot.epoch pinned);
  Alcotest.(check int) "old epoch retired, not dropped" 2
    (Snapshot.live reg);
  Engine.unpin_snapshot eng pinned;
  Alcotest.(check int) "reclaimed on last unpin" 1 (Snapshot.live reg)

(* ------------------------------------------------------------------ *)
(* Pinned-reader isolation: deterministic backbone. *)

let test_pinned_reader_isolation () =
  Fault.reset ();
  let eng = annotated_engine () in
  let pinned = Engine.pin_snapshot eng in
  (* Before: the snapshot agrees with the live engine (both read the
     same committed epoch). *)
  let before = transcript pinned in
  List.iter
    (fun q ->
      Alcotest.(check string) ("snapshot = live on " ^ q)
        (Format.asprintf "%a" Requester.pp
           (Engine.request eng Engine.Native q))
        (Format.asprintf "%a" Requester.pp (Snapshot.request pinned q)))
    probe_queries;
  (* After: the writer commits epoch N+1; the pinned transcript is
     byte-identical while the live one moved. *)
  ignore (Engine.update eng probe_update);
  Alcotest.(check string) "pinned transcript unchanged after commit"
    before (transcript pinned);
  let live_now =
    Format.asprintf "%a" Requester.pp
      (Engine.request eng Engine.Native "//treatment")
  in
  Alcotest.(check bool) "live engine did move" true
    (live_now
    <> Format.asprintf "%a" Requester.pp
         (Snapshot.request pinned "//treatment"));
  Engine.unpin_snapshot eng pinned

(* ------------------------------------------------------------------ *)
(* Crash sweep: the writer dies mid-epoch at every fault point the
   update crosses; the pinned reader's transcript must be identical
   while the corpse is still warm and after recovery. *)

let crossed_points () =
  (* Scout with faults disarmed: which points does the update cross? *)
  Fault.reset ();
  let eng = annotated_engine () in
  let before = List.map (fun p -> (p, Fault.hits p)) (Fault.registered ()) in
  ignore (Engine.update eng probe_update);
  let after = Fault.registered () in
  List.filter
    (fun p ->
      let h0 = try List.assoc p before with Not_found -> 0 in
      Fault.hits p > h0)
    after

let test_crash_sweep_pinned_readers () =
  let points = crossed_points () in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("sweep covers " ^ p) true (List.mem p points))
    [ "snapshot.publish"; "snapshot.reclaim" ];
  List.iter
    (fun point ->
      Fault.reset ();
      let eng = annotated_engine () in
      let pinned = Engine.pin_snapshot eng in
      let before = transcript pinned in
      Fault.arm point (Fault.After 1);
      (match Engine.update eng probe_update with
      | _ ->
          (* Some scouted points (e.g. snapshot.reclaim) are only
             crossed when no reader pins the old epoch; with the pin
             in place the update sails through.  Disarm so the stale
             trigger cannot fire at the unpin below. *)
          Fault.reset ()
      | exception Fault.Crash _ ->
          (* Writer dead mid-epoch: the pinned reader keeps answering,
             byte-identically, without waiting for recovery. *)
          Alcotest.(check string)
            (Printf.sprintf "transcript stable while dead at %s" point)
            before (transcript pinned);
          ignore (Engine.recover eng));
      Alcotest.(check string)
        (Printf.sprintf "transcript stable after recovery from %s" point)
        before (transcript pinned);
      Engine.unpin_snapshot eng pinned)
    points;
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* Carry-forward: memoized decisions survive a non-structural epoch.
   Record sharing between a frozen view and the live tree is checked
   at the tree level ([test_xml]'s freeze change set). *)

let test_memo_carried_across_sign_epoch () =
  Fault.reset ();
  let eng = annotated_engine () in
  let s0 = Engine.pin_snapshot eng in
  (* Memoize a rewrite-lane decision: it reads no annotation, so the
     next non-structural epoch must carry it instead of recomputing. *)
  let d0 =
    Format.asprintf "%a" Requester.pp
      (Snapshot.request ~lane:Rewrite.Rewrite s0 "//nurse")
  in
  Alcotest.(check bool) "memoized on the pinned epoch" true
    (Snapshot.cached_decisions s0 >= 1);
  (* Re-annotation rewrites signs but no structure. *)
  ignore (Engine.annotate eng);
  let s1 = Engine.pin_snapshot eng in
  Alcotest.(check bool) "decision carried before any request" true
    (Snapshot.cached_decisions s1 >= 1);
  Alcotest.(check string) "carried decision is the epoch's own answer" d0
    (Format.asprintf "%a" Requester.pp
       (Snapshot.request ~lane:Rewrite.Rewrite s1 "//nurse"));
  Engine.unpin_snapshot eng s0;
  Engine.unpin_snapshot eng s1

(* A standalone registry over a private copy of an annotated engine's
   document, published the way the engine publishes: [publish ()]
   captures the copy's current state against the current snapshot.
   [fresh ()] captures a deep copy of that state with no [prev] —
   nothing carried — as the reference.  The tests write signs on the
   copy directly, as an epoch would. *)
let standalone eng =
  let policy = Engine.policy eng and metrics = Metrics.create () in
  let doc = Tree.copy (Engine.document eng) in
  let reg = Snapshot.create_registry ~metrics () in
  let capture ?prev ~metrics doc =
    Snapshot.capture ?prev ~epoch:(Snapshot.published reg) ~policy ~metrics
      doc
  in
  let publish () =
    Snapshot.publish reg (capture ?prev:(Snapshot.current reg) ~metrics doc);
    Option.get (Snapshot.current reg)
  in
  let fresh () = capture ~metrics:(Metrics.create ()) (Tree.copy doc) in
  let misses () = Metrics.counter metrics "snapshot.cache.misses" in
  (doc, publish, fresh, misses)

let flip_sign doc (n : Tree.node) =
  Tree.set_sign doc n
    (Some (match n.Tree.sign with Some Tree.Plus -> Tree.Minus | _ -> Tree.Plus))

(* Carry-forward tests the answers alone, since the check reads each
   answer's own record: a materialized memo carries across an epoch
   that changed the sign of an ancestor of its answers, and not across
   one that changed the sign of an answer.  A rewrite-lane memo of the
   same snapshot carries too, which shows carry-forward ran at all. *)
let test_carry_checks_answers_not_ancestors () =
  Fault.reset ();
  let doc, publish, fresh, misses = standalone (annotated_engine ()) in
  let q = "//patient/name" and control = "//nurse" in
  let s0 = publish () in
  let d0 = Snapshot.request s0 q in
  ignore (Snapshot.request ~lane:Rewrite.Rewrite s0 control);
  let name_ids = Helpers.ids doc q in
  let patient =
    match Option.bind (Tree.find doc (List.hd name_ids)) Tree.parent with
    | Some p -> Option.get (Tree.find doc p.Tree.id)
    | None -> Alcotest.fail "a name without a patient"
  in
  flip_sign doc patient;
  let s1 = publish () in
  let before = misses () in
  ignore (Snapshot.request ~lane:Rewrite.Rewrite s1 control);
  Alcotest.(check int) "rewrite-lane memo carried" before (misses ());
  let d1 = Snapshot.request s1 q in
  Alcotest.(check int) "memo over a changed ancestor carried" before
    (misses ());
  Alcotest.(check bool) "decision equals a fresh capture's" true
    (d1 = Snapshot.request (fresh ()) q);
  Alcotest.(check bool) "the answers themselves were untouched" true
    (d1 = d0);
  flip_sign doc (Option.get (Tree.find doc (List.hd name_ids)));
  let s2 = publish () in
  let d2 = Snapshot.request s2 q in
  Alcotest.(check int) "memo over a changed answer not carried" (before + 1)
    (misses ());
  Alcotest.(check bool) "its decision equals a fresh capture's" true
    (d2 = Snapshot.request (fresh ()) q)

(* ------------------------------------------------------------------ *)
(* A killed COW publish must never corrupt a pinned neighbor.  The
   writer dies inside the registry — before the publish swap or after
   a reclaim — while a reader pins an older view
   that shares records with both the corpse and the survivor.  The
   neighbor is checked two ways: its decision transcript (memoized)
   and a fresh structural walk over every node's effective sign, which
   re-reads the shared records and would expose any torn write. *)

let view_signature snap =
  let doc = Snapshot.document snap in
  let cam = Snapshot.cam snap in
  List.sort
    (fun (a : Tree.node) (b : Tree.node) -> compare a.Tree.id b.Tree.id)
    (Tree.nodes doc)
  |> List.map (fun (n : Tree.node) ->
         Printf.sprintf "%d=%s:%s" n.Tree.id n.Tree.name
           (Tree.sign_to_string (Cam.lookup cam n)))
  |> String.concat ","

let test_cow_kill_never_corrupts_pinned_neighbor () =
  List.iter
    (fun point ->
      Fault.reset ();
      let eng = annotated_engine () in
      (* Pin epoch N, then commit N+1 unpinned, so the next publish
         reclaims N+1 on the spot — the reclaim is what puts
         [snapshot.reclaim] on the victim update's path. *)
      let neighbor = Engine.pin_snapshot eng in
      let before = transcript neighbor in
      let before_sig = view_signature neighbor in
      ignore (Engine.update eng "//patient/psn");
      Fault.arm point (Fault.After 1);
      (match Engine.update eng probe_update with
      | _ ->
          (* The point was not crossed by this shape of commit; disarm
             so the stale trigger cannot fire below. *)
          Fault.reset ()
      | exception Fault.Crash _ ->
          Alcotest.(check string)
            (Printf.sprintf "neighbor transcript intact while dead at %s" point)
            before (transcript neighbor);
          Alcotest.(check string)
            (Printf.sprintf "neighbor records intact while dead at %s" point)
            before_sig (view_signature neighbor);
          ignore (Engine.recover eng));
      Fault.reset ();
      Alcotest.(check string)
        (Printf.sprintf "neighbor transcript intact after recovery from %s"
           point)
        before (transcript neighbor);
      Alcotest.(check string)
        (Printf.sprintf "neighbor records intact after recovery from %s" point)
        before_sig (view_signature neighbor);
      Engine.unpin_snapshot eng neighbor)
    [ "snapshot.publish"; "snapshot.reclaim" ]

(* ------------------------------------------------------------------ *)
(* The qcheck property: random documents, policies and updates —
   a reader pinned on epoch N sees byte-identical decisions before,
   during (writer crashed mid-epoch) and after epoch N+1 commits,
   whatever the three backends are doing. *)

let roles_policy =
  lazy
    (Policy_io.parse_exn
       "role staff\n\
        role doctor inherits staff\n\
        default deny\n\
        conflict deny\n\
        allow //patient\n\
        deny @staff //patient[treatment]\n\
        allow @doctor //treatment\n")

let random_policy rng doc =
  match Prng.int rng 4 with
  | 0 -> W.Hospital.policy
  | 1 -> W.Coverage.policy_for_target ~doc ~target:0.3
  | 2 -> Lazy.force roles_policy
  | _ ->
      Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
        (List.init
           (1 + Prng.int rng 4)
           (fun i ->
             Rule.make
               ~name:(Printf.sprintf "M%d" i)
               ~resource:(Helpers.random_hospital_expr rng)
               (if Prng.bool rng then Rule.Plus else Rule.Minus)))

let isolation_prop =
  QCheck2.Test.make
    ~name:
      "pinned on N: byte-identical decisions before/during/after N+1, all \
       backends"
    ~count:30
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, fault_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = random_policy rng doc in
      let update = Helpers.random_update rng in
      let queries =
        List.init 4 (fun _ -> Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      let pinned = Engine.pin_snapshot eng in
      let read () =
        String.concat "\n"
          (List.map
             (fun q ->
               Format.asprintf "%a" Requester.pp (Snapshot.request pinned q))
             queries)
      in
      let before = read () in
      (* Before: full fidelity — the snapshot answers exactly like the
         live engine at the pinned epoch. *)
      List.iter
        (fun q ->
          let live =
            Format.asprintf "%a" Requester.pp
              (Engine.request eng Engine.Native q)
          in
          let snap =
            Format.asprintf "%a" Requester.pp (Snapshot.request pinned q)
          in
          if live <> snap then
            QCheck2.Test.fail_reportf "snapshot diverges from live on %s: %s vs %s"
              q live snap)
        queries;
      (* During: the writer crashes somewhere inside epoch N+1. *)
      Fault.set_seed fault_seed;
      Fault.arm_all ~prob:0.05;
      let crashed =
        match Engine.update eng update with
        | _ -> false
        | exception Fault.Crash _ -> true
      in
      if crashed && read () <> before then
        QCheck2.Test.fail_report
          "pinned reader moved while the writer lay dead mid-epoch";
      if crashed then ignore (Engine.recover eng) else Fault.reset ();
      (* After: N+1 (or its recovery) is committed. *)
      if read () <> before then
        QCheck2.Test.fail_report
          "pinned reader moved after the next epoch committed";
      Engine.unpin_snapshot eng pinned;
      true)

(* ------------------------------------------------------------------ *)
(* The COW ≡ full-copy property: along a random chain of committed
   epochs, every published COW snapshot must answer exactly like a
   deep-copy twin taken at the same instant — same decisions (with and
   without subjects, so the per-role maps are exercised), same visible
   node set, same effective sign at every node.  The twins are
   interrogated only after the whole chain has committed, so the COW
   side answers through carried memos and shared records that later
   epochs path-copied around, while the full side evaluates fresh on a
   private deep copy that shares nothing. *)

let cow_equiv_prop =
  QCheck2.Test.make
    ~name:"COW snapshot ≡ full-copy twin across random epoch chains"
    ~count:20
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, op_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = random_policy rng doc in
      let queries =
        List.init 4 (fun _ ->
            Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      let roles = Policy.roles policy in
      if roles <> [] then ignore (Engine.annotate_subjects eng);
      let subjects = None :: List.map Option.some roles in
      let orng = Prng.create ~seed:op_seed in
      let twin () =
        let cow = Engine.pin_snapshot eng in
        let full =
          Snapshot.capture
            ~annotated:(Snapshot.annotated cow)
            ~bits_annotated:(Snapshot.bits_annotated cow)
            ~epoch:(Engine.sign_epoch eng) ~policy:(Engine.policy eng)
            ~metrics:(Metrics.create ())
            (Tree.copy (Engine.document eng))
        in
        (* Reading through the COW side now populates its memo cache,
           so the engine's next publish exercises carry-forward on
           entries this property will re-check at the end. *)
        List.iter
          (fun q -> ignore (Snapshot.request cow q))
          queries;
        (cow, full)
      in
      let pairs = ref [ twin () ] in
      for _ = 1 to 3 do
        (match Prng.int orng 3 with
        | 0 -> ignore (Engine.update eng (Helpers.random_update orng))
        | 1 -> ignore (Engine.annotate eng)
        | _ ->
            if roles <> [] then ignore (Engine.annotate_subjects eng)
            else ignore (Engine.update eng (Helpers.random_update orng)));
        pairs := twin () :: !pairs
      done;
      List.iter
        (fun (cow, full) ->
          let family s = Tree.family (Snapshot.document s) in
          if family cow <> Tree.family (Engine.document eng) then
            QCheck2.Test.fail_report "engine snapshot does not share structure";
          if family full = family cow then
            QCheck2.Test.fail_report "full-copy twin shares structure";
          if Snapshot.epoch cow <> Snapshot.epoch full then
            QCheck2.Test.fail_report "twins disagree on their epoch";
          (* Visible node set and every effective sign. *)
          let sc = view_signature cow and sf = view_signature full in
          if sc <> sf then
            QCheck2.Test.fail_reportf
              "COW view diverges from full copy at epoch %d: %s vs %s"
              (Snapshot.epoch cow) sc sf;
          (* Decisions, per subject and query. *)
          List.iter
            (fun subject ->
              List.iter
                (fun q ->
                  let d s =
                    Format.asprintf "%a" Requester.pp
                      (Snapshot.request ?subject s q)
                  in
                  let c = d cow and f = d full in
                  if c <> f then
                    QCheck2.Test.fail_reportf
                      "COW decision diverges at epoch %d%s on %s: %s vs %s"
                      (Snapshot.epoch cow)
                      (match subject with
                      | None -> ""
                      | Some r -> " @" ^ r)
                      q c f)
                queries)
            subjects)
        !pairs;
      List.iter (fun (cow, _) -> Engine.unpin_snapshot eng cow) !pairs;
      true)

(* ------------------------------------------------------------------ *)
(* Carry across epochs: a memoized materialized decision survives an
   epoch that wrote outside its answers and their ancestors, and a
   structural epoch whose update the query's schema footprint misses. *)

let find_named doc name =
  List.find (fun (n : Tree.node) -> n.Tree.name = name) (Tree.nodes doc)

(* A sign write path-copies the written node's ancestors, the root
   among them.  Those copies are not writes, so a decision whose
   answers sit elsewhere must answer from the carried memo. *)
let test_carry_across_unrelated_write () =
  Fault.reset ();
  let doc, publish, fresh, misses = standalone (annotated_engine ()) in
  let q = "//patient/name" in
  ignore (Snapshot.request (publish ()) q);
  flip_sign doc (find_named doc "med");
  let s1 = publish () in
  let before = misses () in
  let d = Snapshot.request s1 q in
  Alcotest.(check int) "answered from the carried memo" before (misses ());
  Alcotest.(check bool) "decision equals a fresh capture's" true
    (d = Snapshot.request (fresh ()) q)

(* Deleting every treatment cannot move the staff records: the two
   schema footprints share no root path, and the sign repair writes
   neither [staffinfo] nor an ancestor of it.  The deleted
   treatments' own query is dropped. *)
let test_carry_across_structural_epoch () =
  Fault.reset ();
  let eng = annotated_engine () in
  let m = Engine.metrics eng in
  let misses () = Metrics.counter m "cache.misses" in
  let carried = "//staffinfo" and moved = "//treatment" in
  ignore (Engine.request eng Engine.Native carried);
  ignore (Engine.request eng Engine.Native moved);
  let dropped = Metrics.counter m "snapshot.cache.dropped.footprint" in
  ignore (Engine.update eng probe_update);
  let before = misses () in
  let d = Engine.request eng Engine.Native carried in
  Alcotest.(check int) "staff records answered from the memo" before
    (misses ());
  Alcotest.(check bool) "carried decision equals the direct read" true
    (d = Engine.request_direct eng Engine.Native carried);
  ignore (Engine.request eng Engine.Native moved);
  Alcotest.(check int) "the treatments were re-evaluated" (before + 1)
    (misses ());
  Alcotest.(check bool) "the drop was counted" true
    (Metrics.counter m "snapshot.cache.dropped.footprint" > dropped)

(* Every carried decision equals a fresh read.  Memos for the
   anonymous subject and two roles are warmed from a query pool, then a
   random chain of updates, inserts and re-annotations runs; after each
   epoch every (subject, query) pair is re-requested — the hits are the
   carried entries — and compared with [request_direct].  The pool
   holds queries the schema makes unsatisfiable, and the inserts
   include elements the DTD lacks: [bogus] as a whole fragment, and
   below a [treatment] a patient may hold. *)
let carry_queries =
  [ "//bogus"; "//patient[bogus]"; "//patient[.//bogus]"; "/hospital/patient";
    "//treatment"; "//patient/name"; "//staff//name"; "//patient[treatment]" ]

let carry_inserts =
  [ ("//patients", "<patient><psn>077</psn><name>Ann</name></patient>");
    ("//patient", "<treatment><regular><med>aspirin</med><bill>1000</bill></regular></treatment>");
    ("//staffinfo", "<staff><nurse><sid>9</sid><name>Bo</name><phone>1</phone></nurse></staff>");
    ("//patient", "<bogus/>");
    ("//patient", "<treatment><bogus/></treatment>") ]

let carry_prop =
  QCheck2.Test.make ~name:"every carried decision equals request_direct"
    ~count:40
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, op_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let subjects =
        Subject.make_exn [ Subject.role "r0"; Subject.role "r1" ]
      in
      let policy = Helpers.random_role_policy rng subjects in
      let queries =
        carry_queries
        @ List.init 6 (fun _ ->
              Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      ignore (Engine.annotate_subjects eng);
      let m = Engine.metrics eng in
      let check_all step =
        List.iter
          (fun subject ->
            List.iter
              (fun q ->
                let hits = Metrics.counter m "cache.hits" in
                let d = Engine.request ?subject eng Engine.Native q in
                let direct = Engine.request_direct ?subject eng Engine.Native q in
                if d <> direct then
                  QCheck2.Test.fail_reportf
                    "after %s, %s%s (%s): %s, direct read %s" step q
                    (match subject with None -> "" | Some r -> " @" ^ r)
                    (if Metrics.counter m "cache.hits" > hits then "memo hit"
                     else "fresh")
                    (Format.asprintf "%a" Requester.pp d)
                    (Format.asprintf "%a" Requester.pp direct))
              queries)
          [ None; Some "r0"; Some "r1" ]
      in
      check_all "annotation";
      let orng = Prng.create ~seed:op_seed in
      for _ = 1 to 5 do
        let step =
          match Prng.int orng 6 with
          | 0 | 1 ->
              let u =
                if Prng.int orng 3 = 0 then
                  Prng.choose orng [| "//bogus"; "//treatment" |]
                else Helpers.random_update orng
              in
              ignore (Engine.update eng u);
              "update " ^ u
          | 2 | 3 ->
              let at, xml =
                List.nth carry_inserts (Prng.int orng (List.length carry_inserts))
              in
              ignore
                (Engine.insert eng ~at
                   ~fragment:(Xmlac_xml.Xml_parser.parse_exn xml));
              "insert " ^ xml
          | 4 ->
              ignore (Engine.annotate eng);
              "annotate_all"
          | _ ->
              ignore (Engine.annotate_subjects eng);
              "annotate_subjects_all"
        in
        check_all step
      done;
      true)

(* ------------------------------------------------------------------ *)
(* The snapshot's document index: built by the first miss, never by a
   capture, and shared along sign-only epochs. *)

module Index = Xmlac_xpath.Index
module Eval = Xmlac_xpath.Eval

let builds eng = Metrics.counter (Engine.metrics eng) "snapshot.index_builds"
let shared eng = Metrics.counter (Engine.metrics eng) "snapshot.index_shared"

let test_index_built_on_first_miss () =
  Fault.reset ();
  let eng = annotated_engine () in
  ignore (Engine.update eng "//patient/psn");
  ignore (Engine.insert eng ~at:"//patients"
    ~fragment:(Xmlac_xml.Xml_parser.parse_exn "<patient><name>Ann</name></patient>"));
  Alcotest.(check int) "captures and publishes build nothing" 0 (builds eng);
  ignore (Engine.update eng probe_update);
  Alcotest.(check int) "a structural epoch builds nothing either" 0 (builds eng);
  ignore (Engine.request eng Engine.Native "//patient/name");
  Alcotest.(check int) "its first miss builds once" 1 (builds eng);
  ignore (Engine.request eng Engine.Native "//nurse");
  ignore (Engine.request eng Engine.Native ~lane:Rewrite.Rewrite "//staff//name");
  Alcotest.(check int) "later misses on either lane reuse it" 1 (builds eng)

let test_index_shared_across_annotate () =
  Fault.reset ();
  let eng = annotated_engine () in
  ignore (Engine.update eng probe_update);
  let s0 = Engine.pin_snapshot eng in
  ignore (Engine.request eng Engine.Native "//patient/name");
  let shared0 = shared eng in
  ignore (Engine.annotate eng);
  let s1 = Engine.pin_snapshot eng in
  Alcotest.(check int) "the annotate epoch took the slot over" (shared0 + 1)
    (shared eng);
  Alcotest.(check bool) "one index for both views" true
    (Snapshot.index s1 == Snapshot.index s0);
  ignore (Engine.request eng Engine.Native "//nurse");
  Alcotest.(check int) "no second build" 1 (builds eng);
  ignore (Engine.update eng "//patient/psn");
  ignore (Engine.request eng Engine.Native "//dept");
  Alcotest.(check int) "the next structural epoch builds its own" 2 (builds eng);
  Engine.unpin_snapshot eng s0;
  Engine.unpin_snapshot eng s1

(* An index handed on across sign-only epochs still answers exactly as
   [Eval] on the later view, and the later snapshot's decisions equal
   those of a cold capture of the same state. *)
let index_reuse_prop =
  QCheck2.Test.make ~name:"reused index = Eval on the later view" ~count:60
    Helpers.seed_gen (fun seed ->
      Fault.reset ();
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Subject.make_exn [ Subject.role "r0" ])
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      let exprs = List.init 6 (fun _ -> Helpers.random_hospital_expr rng) in
      let queries = List.map Pp.expr_to_string exprs in
      let doc, publish, fresh, _ = standalone eng in
      let s0 = publish () in
      ignore (Snapshot.index s0);
      let nodes = Array.of_list (Tree.nodes doc) in
      for _ = 1 to 1 + Prng.int rng 3 do
        flip_sign doc (Prng.choose rng nodes)
      done;
      let s1 = publish () and cold = fresh () in
      let view = Snapshot.document s1 in
      let same e =
        List.map (fun (n : Tree.node) -> n.Tree.id) (Eval.eval view e)
        = Array.to_list
            (Array.map (Index.id (Snapshot.index s1))
               (Index.eval (Snapshot.index s1) e))
      in
      Snapshot.index s1 == Snapshot.index s0
      && List.for_all same exprs
      && List.for_all
           (fun q -> Snapshot.request s1 q = Snapshot.request cold q)
           queries)

(* ------------------------------------------------------------------ *)
(* The rank-space check: each answer's verdict is read off its own
   record in the snapshot's rank-to-record array. *)

(* The first annotation is a sign-only epoch that flips signs: before
   it, every node reads the default.  Its snapshot takes the index slot
   over but must build its own record array, and the snapshot pinned
   before it must keep reading its own unsigned records.  The new
   snapshot misses first, so an array handed along with the index
   would reach the pinned one. *)
let test_records_not_shared_across_sign_epoch () =
  Fault.reset ();
  let eng = make_engine () in
  let m = Engine.metrics eng in
  let record_builds () = Metrics.counter m "snapshot.record_builds" in
  let q = "//patient/name" and lane = Rewrite.Materialized in
  let s0 = Engine.pin_snapshot eng in
  let cold0 =
    Snapshot.capture ~epoch:(Snapshot.epoch s0) ~policy:(Engine.policy eng)
      ~metrics:(Metrics.create ()) (Tree.copy (Snapshot.document s0))
  in
  ignore (Snapshot.request ~lane:Rewrite.Rewrite s0 "//nurse");
  let shared0 = shared eng in
  ignore (Engine.annotate eng);
  let s1 = Engine.pin_snapshot eng in
  Alcotest.(check int) "the annotate epoch shared the index slot" (shared0 + 1)
    (shared eng);
  Alcotest.(check bool) "one index for both views" true
    (Snapshot.index s1 == Snapshot.index s0);
  Alcotest.(check int) "no array built yet" 0 (record_builds ());
  let d1 = Snapshot.request ~lane s1 q in
  Alcotest.(check bool) "the new snapshot sees the new signs" true
    (d1 = Engine.request_direct eng Engine.Native q);
  let d0 = Snapshot.request ~lane s0 q in
  Alcotest.(check bool) "the pinned snapshot keeps its decision" true
    (d0 = Snapshot.request ~lane cold0 q);
  Alcotest.(check bool) "the epoch moved the decision" true (d0 <> d1);
  Alcotest.(check int) "each snapshot built its own array" 2 (record_builds ());
  Engine.unpin_snapshot eng s0;
  Engine.unpin_snapshot eng s1

(* The rank-space check equals the CAM oracle — [Cam.lookup] on a
   fresh map of the snapshot's own view — at every rank, for the
   anonymous subject and every role, on the current snapshot and on
   one pinned epochs earlier, across random role policies, subject
   annotation, updates and inserts.  The pinned snapshot's verdicts
   must also stay what they were when it was current. *)
let rank_check_prop =
  QCheck2.Test.make ~name:"rank-space check = CAM oracle" ~count:30
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, op_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      ignore (Engine.annotate_subjects eng);
      let policy = Engine.policy eng in
      let subjects = None :: List.map Option.some (Policy.roles policy) in
      let verdicts snap =
        let n = Index.length (Snapshot.index snap) in
        List.map
          (fun subject ->
            let check = Snapshot.accessible ?subject snap in
            List.init n check)
          subjects
      in
      let coherent step snap =
        if not (Helpers.rank_check_coherent ~policy snap) then
          QCheck2.Test.fail_reportf "after %s, epoch %d differs from the oracle"
            step (Snapshot.epoch snap)
      in
      let pinned = Engine.pin_snapshot eng in
      let pinned_verdicts = verdicts pinned in
      let orng = Prng.create ~seed:op_seed in
      for _ = 1 to 4 do
        let step =
          match Prng.int orng 5 with
          | 0 | 1 ->
              let u = Helpers.random_update orng in
              ignore (Engine.update eng u);
              "update " ^ u
          | 2 | 3 ->
              let at, xml =
                List.nth carry_inserts (Prng.int orng (List.length carry_inserts))
              in
              ignore
                (Engine.insert eng ~at
                   ~fragment:(Xmlac_xml.Xml_parser.parse_exn xml));
              "insert " ^ xml
          | _ ->
              ignore (Engine.annotate_subjects eng);
              "annotate_subjects"
        in
        coherent step (Engine.current_snapshot eng);
        coherent step pinned;
        if verdicts pinned <> pinned_verdicts then
          QCheck2.Test.fail_reportf "after %s, the pinned verdicts moved" step
      done;
      Engine.unpin_snapshot eng pinned;
      true)

(* Readers on several domains missing on a fresh snapshot at once: one
   index is published, and every decision equals the direct read. *)
let test_concurrent_first_misses () =
  Fault.reset ();
  let eng =
    Engine.create ~dtd:W.Hospital.dtd
      ~policy:(Lazy.force Helpers.hospital_roles_policy)
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  ignore (Engine.update eng probe_update);
  let snap = Engine.pin_snapshot eng in
  let queries =
    [ "//patient/name"; "//nurse"; "//treatment"; "//patient/psn"; "//staff//name";
      "//*"; "//patient[treatment]"; "/hospital/dept" ]
  in
  (* The oracle runs first, on this domain: it reads the live store. *)
  let subject k = if k mod 2 = 0 then None else Some "doctor" in
  let direct =
    List.map
      (fun subject ->
        List.map (fun q -> Engine.request_direct ?subject eng Engine.Native q) queries)
      [ subject 0; subject 1 ]
  in
  let pool = Pool.create ~domains:4 () in
  let reader k () =
    let lane = if k mod 3 = 0 then Rewrite.Rewrite else Rewrite.Materialized in
    List.filter
      (fun (q, d) -> Snapshot.request ?subject:(subject k) ~lane snap q <> d)
      (List.combine queries (List.nth direct (k mod 2)))
    |> List.length
  in
  let wrong = Pool.parallel pool (List.init 8 reader) in
  Pool.shutdown pool;
  Engine.unpin_snapshot eng snap;
  Alcotest.(check int) "every decision equals request_direct" 0
    (List.fold_left ( + ) 0 wrong);
  Alcotest.(check int) "one index published" 1 (builds eng)

(* ------------------------------------------------------------------ *)
(* Pool: scheduling semantics. *)

let test_pool_sequential () =
  let pool = Pool.create ~domains:1 () in
  Alcotest.(check bool) "one domain is sequential" true
    (Pool.sequential pool);
  let order = ref [] in
  let out =
    Pool.parallel pool
      (List.init 5 (fun i ->
           fun () ->
             order := i :: !order;
             i * i))
  in
  Alcotest.(check (list int)) "results in submission order"
    [ 0; 1; 4; 9; 16 ] out;
  Alcotest.(check (list int)) "sequential mode runs in order"
    [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_parallel () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.(check int) "four domains" 4 (Pool.size pool);
  let out = Pool.parallel pool (List.init 32 (fun i -> fun () -> i + 1)) in
  Alcotest.(check (list int)) "indexed results despite racing workers"
    (List.init 32 (fun i -> i + 1))
    out;
  (* A pool survives a failing batch and reports the exception. *)
  (match
     Pool.parallel pool
       [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "first exn" "boom" m);
  let again = Pool.parallel pool [ (fun () -> 7) ] in
  Alcotest.(check (list int)) "pool reusable after a failure" [ 7 ] again;
  Pool.shutdown pool;
  (match Pool.parallel pool [ (fun () -> 0) ] with
  | _ -> Alcotest.fail "parallel after shutdown did not raise"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Session lifecycle. *)

let test_session_lifecycle () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  let eng = S.engine serve in
  (match Session.open_ ~subject:"nobody" serve with
  | _ -> Alcotest.fail "unknown role accepted"
  | exception Invalid_argument _ -> ());
  let sess = Session.open_ serve in
  let e0 = Session.epoch sess in
  let r0 =
    match Session.request sess "//patient/name" with
    | Ok r -> r
    | Error e -> Alcotest.failf "session read failed: %s" e.S.message
  in
  Alcotest.(check bool) "served pinned" true (r0.S.served = S.Pinned);
  (* The writer commits; the session's epoch and answers hold. *)
  ignore (S.update serve probe_update);
  Alcotest.(check int) "epoch constant across the commit" e0
    (Session.epoch sess);
  (* refresh is the explicit opt-in to the new version. *)
  Session.refresh sess;
  Alcotest.(check int) "refresh re-pins the current epoch"
    (Engine.sign_epoch eng) (Session.epoch sess);
  let live_before_close = Snapshot.live (Engine.snapshots eng) in
  Session.close sess;
  Session.close sess (* idempotent *);
  Alcotest.(check bool) "closed" true (Session.closed sess);
  Alcotest.(check bool) "close releases the pin" true
    (Snapshot.live (Engine.snapshots eng) <= live_before_close);
  (match Session.request sess "//nurse" with
  | _ -> Alcotest.fail "read through a closed session"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Multi-domain smoke: real domains, pinned readers, a churning
   writer; every reply must match the pinned-epoch oracle. *)

let test_multidomain_smoke () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  let pool = Pool.create ~domains:4 () in
  let readers = 6 in
  let sessions = List.init readers (fun _ -> Session.open_ serve) in
  let oracle =
    List.map
      (fun q ->
        Format.asprintf "%a" Requester.pp
          (Snapshot.request (Session.snapshot (List.hd sessions)) q))
      probe_queries
  in
  let reader sess () =
    let bad = ref 0 in
    for _ = 1 to 8 do
      List.iteri
        (fun i q ->
          match Session.request sess q with
          | Ok r ->
              if
                Format.asprintf "%a" Requester.pp r.S.decision
                <> List.nth oracle i
                || r.S.served <> S.Pinned
              then incr bad
          | Error _ -> incr bad)
        probe_queries
    done;
    !bad
  in
  let writer () =
    ignore (S.update serve probe_update);
    ignore (S.update serve "//patient/psn");
    0
  in
  let bad = Pool.parallel pool (List.map reader sessions @ [ writer ]) in
  Alcotest.(check int) "no stale, unpinned or failed replies" 0
    (List.fold_left ( + ) 0 bad);
  List.iter Session.close sessions;
  Pool.shutdown pool;
  let h = S.health serve in
  Alcotest.(check bool) "layer healthy after the run" true (S.healthy h);
  Fault.reset ()

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mvcc"
    [
      ( "registry",
        [
          tc "pin/publish/reclaim lifecycle" test_registry_lifecycle;
          tc "engine publishes every commit" test_engine_publishes_on_commit;
        ] );
      ( "isolation",
        [
          tc "pinned reader vs one commit" test_pinned_reader_isolation;
          tc "writer dies mid-epoch, readers unaffected"
            test_crash_sweep_pinned_readers;
        ] );
      ( "sharing",
        [
          tc "memo carried across a sign-only epoch"
            test_memo_carried_across_sign_epoch;
          tc "killed publish never corrupts a pinned neighbor"
            test_cow_kill_never_corrupts_pinned_neighbor;
          tc "carry checks answers, not ancestors"
            test_carry_checks_answers_not_ancestors;
          tc "carry across an unrelated write"
            test_carry_across_unrelated_write;
          tc "carry across a structural epoch"
            test_carry_across_structural_epoch;
        ] );
      ( "index",
        [
          tc "built on the first miss, never at capture"
            test_index_built_on_first_miss;
          tc "shared across an annotate epoch" test_index_shared_across_annotate;
          tc "concurrent first misses" test_concurrent_first_misses;
          QCheck_alcotest.to_alcotest index_reuse_prop;
        ] );
      ( "rank check",
        [
          tc "record array not shared across a sign epoch"
            test_records_not_shared_across_sign_epoch;
          QCheck_alcotest.to_alcotest rank_check_prop;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest isolation_prop;
          QCheck_alcotest.to_alcotest cow_equiv_prop;
          QCheck_alcotest.to_alcotest carry_prop;
        ] );
      ( "frontend",
        [
          tc "pool sequential mode" test_pool_sequential;
          tc "pool parallel barrier" test_pool_parallel;
          tc "session lifecycle" test_session_lifecycle;
          tc "multi-domain smoke" test_multidomain_smoke;
        ] );
    ]
