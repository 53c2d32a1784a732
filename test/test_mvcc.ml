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

(* Consecutive snapshots share the memo table by value: a memo a
   reader makes on a retired, pinned snapshot never answers the newer
   snapshot, and a memo made on the newer one never answers the pinned
   one.  Each query's decision moves with the epoch (deleting every
   treatment), and each snapshot must answer what a direct read gave at
   its own epoch: [q0] is memoized on the old snapshot before the
   epoch, [q1] on it after the epoch retired it, [q2] on the new
   snapshot first. *)
let test_memo_isolated_across_epochs () =
  Fault.reset ();
  let eng = annotated_engine () in
  let q0 = "//treatment" and q1 = "//med" and q2 = "//patient[treatment]/psn" in
  let direct q = Engine.request_direct eng Engine.Native q in
  let pre = List.map direct [ q0; q1; q2 ] in
  let s0 = Engine.pin_snapshot eng in
  ignore (Snapshot.request s0 q0);
  ignore (Engine.update eng probe_update);
  let post = List.map direct [ q0; q1; q2 ] in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "the epoch moves every decision" true (a <> b))
    pre post;
  let s1 = Engine.current_snapshot eng in
  let at snap q = Snapshot.request snap q in
  let check what expected got =
    Alcotest.(check bool) what true (expected = got)
  in
  check "q1 on the retired snapshot" (List.nth pre 1) (at s0 q1);
  check "q0 on the new snapshot" (List.nth post 0) (at s1 q0);
  check "q1 on the new snapshot" (List.nth post 1) (at s1 q1);
  check "q2 on the new snapshot" (List.nth post 2) (at s1 q2);
  check "q2 on the retired snapshot" (List.nth pre 2) (at s0 q2);
  check "q0 on the retired snapshot" (List.nth pre 0) (at s0 q0);
  Engine.unpin_snapshot eng s0

(* Carry costs what the epoch invalidates, counted rather than timed.
   About a thousand memos are made on a private copy of an annotated
   engine's document; the first capture after they were made tests
   and files each of them (a write no memo answers).  Then one epoch
   runs, [epoch doc], which must drop exactly the [k] memos of
   [invalidated] and visit [k + neighbours] memos
   ([snapshot.cache.examined]): the [neighbours] are kept memos that
   share a written node's root path, which a search of their answers
   clears.  On the next snapshot every other memo hits ([kept] and the
   patient lookups that fill the table), and each dropped one misses
   once and answers what a fresh capture answers. *)
let proportional_carry ~invalidated ~kept ~neighbours ~epoch =
  Fault.reset ();
  let eng = annotated_engine () in
  let sg = Engine.schema_graph eng and policy = Engine.policy eng in
  let metrics = Metrics.create () in
  let count name = Metrics.counter metrics name in
  let doc = Tree.copy (Engine.document eng) in
  let prev = ref None in
  let publish exprs =
    let s =
      Snapshot.capture ?prev:!prev
        ~footprint:(sg, Xmlac_xpath.Schema_match.footprint sg exprs) ~epoch:0 ~policy
        ~metrics doc
    in
    prev := Some s;
    s
  in
  let k = List.length invalidated in
  let fillers =
    List.init
      (1000 - k - List.length kept)
      (Printf.sprintf "//patient[psn = \"%03d\"]")
  in
  let queries = invalidated @ kept @ fillers in
  let s0 = publish [] in
  List.iter (fun q -> ignore (Snapshot.request s0 q)) queries;
  flip_sign doc (find_named doc "dept");
  let s1 = publish [] in
  Alcotest.(check int) "every memo carried over an unanswered write"
    (List.length queries) (Snapshot.cached_decisions s1);
  let examined = count "snapshot.cache.examined"
  and dropped () =
    count "snapshot.cache.dropped.footprint"
    + count "snapshot.cache.dropped.written"
  in
  let dropped0 = dropped () in
  let s2 = publish (epoch doc) in
  Alcotest.(check int) "exactly the invalidated memos dropped" k
    (dropped () - dropped0);
  Alcotest.(check int) "the capture examined only those and their neighbours"
    (k + neighbours)
    (count "snapshot.cache.examined" - examined);
  let misses = count "snapshot.cache.misses" in
  let fresh =
    Snapshot.capture ~epoch:0 ~policy ~metrics:(Metrics.create ())
      (Tree.copy doc)
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) ("carried or recomputed: " ^ q) true
        (Snapshot.request s2 q = Snapshot.request fresh q))
    queries;
  Alcotest.(check int) "only the dropped memos missed" k
    (count "snapshot.cache.misses" - misses)

(* One sign write to a patient name: the five memos answering it go;
   another patient's name (on the same root path, so examined) and the
   patient lookups stay. *)
let test_carry_proportional_sign_write () =
  let invalidated =
    [ "//patient/name"; "//name"; "/hospital//patient/name";
      "//patient[psn]/name"; "//dept/patients/patient/name" ]
  in
  proportional_carry ~invalidated
    ~kept:[ "//patient[psn = \"042\"]/name"; "//patient/psn" ]
    ~neighbours:1
    ~epoch:(fun doc ->
      let name = List.hd (Helpers.ids doc "//patient/name") in
      List.iter
        (fun q ->
          Alcotest.(check bool) (q ^ " answers the written name") true
            (List.mem name (Helpers.ids doc q)))
        invalidated;
      flip_sign doc (Option.get (Tree.find doc name));
      [])

(* Deleting one treatment: its footprint meets the two treatment
   lookups, and the deleted [regular] and [med] are answers of two
   more; [//experimental], on the other patient, stays with the
   patient lookups. *)
let test_carry_proportional_structural () =
  let deleted = "//patient[psn = \"033\"]/treatment" in
  proportional_carry
    ~invalidated:[ "//treatment"; "//patient/treatment"; "//regular"; "//med" ]
    ~kept:[ "//experimental"; "//patient/name" ] ~neighbours:0
    ~epoch:(fun doc ->
      let id = List.hd (Helpers.ids doc deleted) in
      Tree.delete doc (Option.get (Tree.find doc id));
      [ Xmlac_xpath.Parser.parse_exn deleted ])

(* A full memo table on XMark, whose 102 root paths take two mask
   words.  Before each of 24 structural epochs a window of fresh
   filler queries keeps the table at [memo_capacity] (the oldest memos
   go first) and the probes are re-requested, so each epoch carries a
   full table with every probe in it; after the epoch every probe is
   requested again, and each answer — carried or recomputed — must
   equal [request_direct].  The epochs insert and delete a person, its
   credit card and an open auction.  [//creditcard]'s footprint and
   the credit-card epochs' update footprint lie only in the second
   word, and the card flips the person's profile (a write to the
   second word's paths), so a carry that read only the first word
   would keep memos the epoch moved. *)
let test_full_table_xmark () =
  Fault.reset ();
  let policy =
    Policy_io.parse_exn
      "role clerk\n\
       default allow\n\
       conflict deny\n\
       deny //person[creditcard]/profile\n\
       deny @clerk //creditcard\n\
       deny //open_auction[bidder]/seller\n"
  in
  let eng =
    Engine.create ~dtd:W.Xmark.dtd ~policy (W.Xmark.generate ~factor:0.002 ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let sg = Engine.schema_graph eng and m = Engine.metrics eng in
  let count = Metrics.counter m in
  let second_word q =
    Xmlac_xpath.Schema_match.footprint_paths
      (Xmlac_xpath.Schema_match.footprint sg
         (Xmlac_xpath.Expand.expand ~schema:sg
            (Xmlac_xpath.Parser.parse_exn q)))
    |> Array.for_all (fun p -> p >= Sys.int_size)
  in
  Alcotest.(check bool) "//creditcard sits in the second word only" true
    (second_word "//creditcard");
  let probes =
    [ "//creditcard"; "//person/profile"; "//person/profile/interest";
      "//open_auction/bidder"; "//open_auction/seller"; "//watch";
      "//person"; "//person/name"; "//item/name"; "/site"; "//bogus" ]
  in
  let reads =
    List.concat_map
      (fun q ->
        [ (None, None, q); (Some "clerk", None, q);
          (None, Some Rewrite.Rewrite, q) ])
      probes
  in
  let read (subject, lane, q) =
    ignore (Engine.request ?subject ?lane eng Native q)
  in
  let fillers epoch =
    List.init 320 (fun i ->
        Printf.sprintf
          (match i mod 4 with
          | 0 -> "//person[name = \"E%d-%d\"]"
          | 1 -> "//item[quantity = \"E%d-%d\"]"
          | 2 -> "//open_auction[initial = \"E%d-%d\"]"
          | _ -> "//closed_auction[price = \"E%d-%d\"]")
          epoch i)
  in
  let person k = Printf.sprintf "/site/people/person[name = \"P%d\"]" k in
  let insert at xml =
    ignore
      (Engine.insert eng ~at ~fragment:(Xmlac_xml.Xml_parser.parse_exn xml))
  in
  let epochs =
    List.concat_map
      (fun k ->
        [ (fun () ->
            insert "/site/people"
              (Printf.sprintf
                 "<person><name>P%d</name>\
                  <profile><interest/></profile></person>"
                 k));
          (fun () -> insert (person k) "<creditcard>1</creditcard>");
          (fun () ->
            insert "/site/open_auctions"
              "<open_auction><bidder><increase>1</increase></bidder>\
               <seller/></open_auction>");
          (fun () -> ignore (Engine.update eng (person k ^ "/creditcard")));
          (fun () ->
            ignore
              (Engine.update eng "//open_auction[bidder/increase = \"1\"]"));
          (fun () -> ignore (Engine.update eng (person k))) ])
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun i -> read (None, None, Printf.sprintf "//category[name = \"W%d\"]" i))
    (List.init Snapshot.memo_capacity Fun.id);
  let evicted = ref 0 and hits = ref 0 in
  let dropped () =
    count "snapshot.cache.dropped.footprint"
    + count "snapshot.cache.dropped.written"
  in
  let dropped0 = dropped () in
  List.iteri
    (fun e epoch ->
      let before = Snapshot.cached_decisions (Engine.current_snapshot eng) in
      let fill = fillers e in
      List.iter (fun q -> read (None, None, q)) fill;
      List.iter read reads;
      let held = Snapshot.cached_decisions (Engine.current_snapshot eng) in
      Alcotest.(check int)
        (Printf.sprintf "table full before epoch %d" e)
        Snapshot.memo_capacity held;
      evicted := !evicted + before + List.length fill - held;
      let examined = count "snapshot.cache.examined" in
      epoch ();
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d tested on the masks" e)
        true
        (count "snapshot.cache.examined" - examined < Snapshot.memo_capacity);
      List.iter
        (fun (subject, lane, q) ->
          let h = count "cache.hits" in
          let d = Engine.request ?subject ?lane eng Native q in
          if count "cache.hits" > h then incr hits;
          let direct = Engine.request_direct ?subject eng Native q in
          if d <> direct then
            Alcotest.failf "epoch %d, %s%s%s: %s, direct read %s" e q
              (match subject with None -> "" | Some r -> " @" ^ r)
              (match lane with None -> "" | Some _ -> " (rewrite)")
              (Format.asprintf "%a" Requester.pp d)
              (Format.asprintf "%a" Requester.pp direct))
        reads)
    epochs;
  Alcotest.(check bool) "FIFO evictions" true (!evicted > 0);
  Alcotest.(check bool) "memos dropped" true (dropped () > dropped0);
  Alcotest.(check bool) "probes carried" true (!hits > 0)

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
(* The snapshot's document index: the writer's, handed to epoch 0's
   snapshot at creation, shared along sign-only epochs, and handed from
   the repair to the next structural epoch's snapshot only when readers
   demanded the last one.  Otherwise the writer keeps its buffers. *)

module Index = Xmlac_xpath.Index
module Eval = Xmlac_xpath.Eval

let counter name eng = Metrics.counter (Engine.metrics eng) name
let builds = counter "snapshot.index_builds"
let shared = counter "snapshot.index_shared"
let patches = counter "repair.index_patches"
let spares = counter "repair.index_spares"
let rebuilds = counter "repair.index_rebuilds"

let insert_patient ?(psn = "p0") eng =
  ignore
    (Engine.insert eng ~at:"//patients"
       ~fragment:
         (Xmlac_xml.Xml_parser.parse_exn
            (Printf.sprintf "<patient><psn>%s</psn><name>Ann</name></patient>" psn)))

(* Whether [snap]'s index answers [q] as [Eval] does on its view. *)
let index_agrees snap q =
  let e = Xmlac_xpath.Parser.parse_exn q and idx = Snapshot.index snap in
  Array.to_list (Array.map (Index.id idx) (Index.eval idx e))
  = List.map (fun (n : Tree.node) -> n.Tree.id) (Eval.eval (Snapshot.document snap) e)

let writer_index_current eng =
  Index.equal (Engine.writer_index eng) (Index.build (Engine.document eng))

(* An engine nobody reads takes back the index epoch 0's snapshot was
   handed and patches back and forth between two buffers: one spare,
   allocated by the first structural epoch, and no index built. *)
let test_unread_engine_two_buffers () =
  Fault.reset ();
  let eng = annotated_engine () in
  for k = 1 to 100 do
    let psn = Printf.sprintf "u%d" k in
    insert_patient ~psn eng;
    ignore (Engine.update eng (Printf.sprintf "//patient[psn = \"%s\"]" psn));
    if k = 1 then Alcotest.(check int) "the first epoch allocates the spare" 1 (spares eng)
  done;
  Alcotest.(check int) "no spare after the first one" 1 (spares eng);
  Alcotest.(check int) "a patch per structural epoch" 200 (patches eng);
  Alcotest.(check int) "no rebuild" 0 (rebuilds eng);
  Alcotest.(check int) "no index built" 0 (builds eng);
  Alcotest.(check bool) "the writer index describes the document" true
    (writer_index_current eng);
  ignore (Engine.request eng Engine.Native "//patient/name");
  Alcotest.(check int) "the first miss on an unhanded epoch builds" 1 (builds eng);
  ignore (Engine.request eng Engine.Native ~lane:Rewrite.Rewrite "//staff//name");
  Alcotest.(check int) "later misses on either lane reuse it" 1 (builds eng)

(* A read engine never builds an index: epoch 0's snapshot holds the
   writer's, and each structural epoch after a read takes over the
   post-update index the repair patched, into a fresh buffer, since
   the read one is its readers'.  A structural epoch nobody read
   between hands nothing on. *)
let test_index_handed_after_read () =
  Fault.reset ();
  let eng = annotated_engine () in
  ignore (Engine.request eng Engine.Native "//patient/name");
  Alcotest.(check int) "epoch 0's snapshot held the writer's index" 0 (builds eng);
  ignore (Engine.update eng "//patient/psn");
  Alcotest.(check int) "the repair patched the post-update index" 1 (patches eng);
  Alcotest.(check int) "into a fresh buffer" 1 (spares eng);
  let snap = Engine.current_snapshot eng in
  Alcotest.(check bool) "not yet read" true (Snapshot.read_index snap = None);
  ignore (Engine.request eng Engine.Native "//nurse");
  Alcotest.(check int) "its first miss builds nothing" 0 (builds eng);
  Alcotest.(check bool) "the miss marked it read" true
    (Option.is_some (Snapshot.read_index snap));
  List.iter
    (fun q ->
      Alcotest.(check bool) ("handed index = Eval: " ^ q) true
        (index_agrees snap q))
    probe_queries;
  for k = 1 to 6 do
    if k mod 2 = 1 then insert_patient eng
    else ignore (Engine.update eng "//patient[psn = \"p0\"]");
    ignore (Engine.request eng Engine.Native "//patient/name")
  done;
  Alcotest.(check int) "read every epoch: no build" 0 (builds eng);
  Alcotest.(check int) "and a fresh buffer per handed epoch" 7 (spares eng);
  insert_patient eng;
  ignore (Engine.update eng probe_update);
  Alcotest.(check bool) "the writer index describes the document" true
    (writer_index_current eng);
  ignore (Engine.request eng Engine.Native "//dept");
  Alcotest.(check int) "unread epoch: nothing handed, so the next miss builds" 1
    (builds eng)

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
  Alcotest.(check int) "the next structural epoch takes the repair's index"
    1 (builds eng);
  Alcotest.(check int) "which the repair patched, as it did the first" 2
    (patches eng);
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
(* The rank-space check: each answer's verdict is one bit of its entry
   in the snapshot's grant column. *)

(* The first annotation is a sign-only epoch that flips signs: before
   it, every node reads the default.  Its snapshot takes the index slot
   over but must build its own grant column, and the snapshot pinned
   before it must keep reading its own unsigned grants.  The new
   snapshot misses first, so a column handed along with the index
   would reach the pinned one. *)
let test_grants_not_shared_across_sign_epoch () =
  Fault.reset ();
  let eng = make_engine () in
  let m = Engine.metrics eng in
  let grant_builds () = Metrics.counter m "snapshot.grant_builds" in
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
  Alcotest.(check int) "no column built yet" 0 (grant_builds ());
  let d1 = Snapshot.request ~lane s1 q in
  Alcotest.(check bool) "the new snapshot sees the new signs" true
    (d1 = Engine.request_direct eng Engine.Native q);
  let d0 = Snapshot.request ~lane s0 q in
  Alcotest.(check bool) "the pinned snapshot keeps its decision" true
    (d0 = Snapshot.request ~lane cold0 q);
  Alcotest.(check bool) "the epoch moved the decision" true (d0 <> d1);
  Alcotest.(check int) "each snapshot built its own column" 2 (grant_builds ());
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

(* The grant column carried across epochs: after each epoch, every
   rank's verdict for the anonymous subject and for each declared role
   equals that of a fresh capture of a copy of the view, which walks
   its own column.  A read after every epoch keeps the chain carrying
   (an epoch that writes more than a quarter of the nodes breaks it);
   a pinned snapshot keeps the verdicts it had. *)
let carried_grants_prop =
  QCheck2.Test.make ~name:"carried grants = a fresh capture's" ~count:40
    Helpers.seed_gen (fun seed ->
      Fault.reset ();
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = Helpers.random_role_policy rng (Helpers.random_subjects rng) in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      ignore (Engine.annotate_subjects eng);
      let policy = Engine.policy eng in
      let subjects = None :: List.map Option.some (Policy.roles policy) in
      let carries () = counter "snapshot.grant_carries" eng in
      (* What a materialized miss reads: the index, then the grants. *)
      let verdicts snap =
        let n = Index.length (Snapshot.index snap) in
        List.map
          (fun subject -> List.init n (Snapshot.accessible ?subject snap))
          subjects
      in
      let fresh snap =
        verdicts
          (Snapshot.capture ~epoch:(Snapshot.epoch snap) ~policy
             ~metrics:(Metrics.create ())
             (Tree.copy (Snapshot.document snap)))
      in
      let pinned = Engine.pin_snapshot eng in
      let pinned_verdicts = verdicts pinned in
      for i = 1 to 6 do
        (match Prng.int rng 4 with
        | 0 -> ignore (Engine.update eng (Helpers.random_update rng))
        | 1 ->
            let at, xml = Prng.choose_list rng carry_inserts in
            ignore (Engine.insert eng ~at ~fragment:(Xmlac_xml.Xml_parser.parse_exn xml))
        | 2 -> ignore (Engine.annotate eng)
        | _ ->
            (* A sign-only epoch that writes one sign: the index is
               shared and the column copied. *)
            let doc = Engine.document eng in
            flip_sign doc (Prng.choose rng (Array.of_list (Tree.nodes doc)));
            Engine.apply_replica eng Engine.Op_noop);
        let snap = Engine.current_snapshot eng in
        if verdicts snap <> fresh snap then
          QCheck2.Test.fail_reportf "epoch %d: the grants differ from a fresh capture's" i
      done;
      if verdicts pinned <> pinned_verdicts || pinned_verdicts <> fresh pinned then
        QCheck2.Test.fail_report "the pinned grants moved";
      Engine.unpin_snapshot eng pinned;
      if carries () = 0 then QCheck2.Test.fail_report "no capture carried";
      true)

(* With 64 declared roles the grant column spans two words: roles 0 to
   62 fill word 0, role 63 is bit 0 of word 1 and the anonymous subject
   bit 1.  The check equals the reference semantics on a fresh capture,
   after a carried sign epoch and after a carried structural one. *)
let test_grants_span_two_words () =
  Fault.reset ();
  let subjects =
    Subject.make_exn
      (List.init 64 (fun i ->
           Subject.role
             ?ds:(if i mod 3 = 2 then Some Rule.Plus else None)
             (Printf.sprintf "r%d" i)))
  in
  let policy =
    Policy.make ~subjects ~ds:Rule.Minus ~cr:Rule.Minus
      [ Rule.parse "//patient" Rule.Plus;
        Rule.parse ~subjects:[ "r0" ] "//treatment" Rule.Plus;
        Rule.parse ~subjects:[ "r62" ] "//staffinfo//name" Rule.Minus;
        Rule.parse ~subjects:[ "r63" ] "//patient[treatment]" Rule.Minus;
        Rule.parse ~subjects:[ "r63" ] "//nurse" Rule.Plus ]
  in
  let eng = Engine.create ~dtd:W.Hospital.dtd ~policy (W.Hospital.sample_document ()) in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let policy = Engine.policy eng in
  let carries () = counter "snapshot.grant_carries" eng in
  let subjects = [ None; Some "r0"; Some "r62"; Some "r63" ] in
  let check step snap =
    let idx = Snapshot.index snap and doc = Snapshot.document snap in
    List.map
      (fun subject ->
        let ok = Snapshot.accessible ?subject snap in
        let ids =
          List.filter_map
            (fun r -> if ok r then Some (Index.id idx r) else None)
            (List.init (Index.length idx) Fun.id)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "%s, %s" step (Option.value subject ~default:"anonymous"))
          (Policy.accessible_ids ?subject policy doc)
          (List.sort Int.compare ids);
        ids)
      subjects
  in
  let current step = check step (Engine.current_snapshot eng) in
  let fresh = current "fresh capture" in
  ignore
    (check "fresh capture of a copy"
       (Snapshot.capture ~epoch:0 ~policy ~metrics:(Metrics.create ())
          (Tree.copy (Engine.document eng))));
  Alcotest.(check int) "the four subjects see four sets" 4
    (List.length (List.sort_uniq compare fresh));
  (* A sign epoch that writes wrong grants into some nodes, then one
     that writes them back: the second carries real changes to the
     grants of its written nodes. *)
  let doc = Engine.document eng in
  let written =
    List.filteri (fun i _ -> i mod 5 = 0) (Tree.nodes doc)
    |> List.map (fun (n : Tree.node) -> (n.Tree.id, n.Tree.sign, n.Tree.bits))
  in
  let write f =
    List.iter
      (fun (id, sign, bits) ->
        let n = Option.get (Tree.find doc id) in
        let sign, bits = f sign bits in
        Tree.set_sign doc n sign;
        Tree.set_bits doc n bits)
      written;
    Engine.apply_replica eng Engine.Op_noop
  in
  let before = carries () in
  write (fun sign _ ->
      ( Some (if sign = Some Tree.Plus then Tree.Minus else Tree.Plus),
        Some (Xmlac_util.Bitset.of_list [ 1; 62; 63 ]) ));
  write (fun sign bits -> (sign, bits));
  Alcotest.(check int) "both sign epochs carried" (before + 2) (carries ());
  ignore (current "after a carried sign epoch");
  let before = carries () in
  ignore
    (Engine.insert eng ~at:"//staffinfo"
       ~fragment:
         (Xmlac_xml.Xml_parser.parse_exn
            "<staff><nurse><sid>9</sid><name>Bo</name><phone>1</phone></nurse></staff>"));
  Alcotest.(check int) "the insert carried" (before + 1) (carries ());
  ignore (current "after a carried structural epoch")

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
  Alcotest.(check bool) "nothing was handed over" true
    (Snapshot.read_index snap = None && builds eng = 0);
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

(* ------------------------------------------------------------------ *)
(* Fills: one memo per query and lane, and a subject the memo holds no
   decision for is decided from the memo's counts without evaluating
   the query again. *)

(* Every hit, fill and miss equals [request_direct] on the state at pin
   time, along a churned chain under a random role DAG: structural
   epochs (updates, inserts) and sign-only ones (a sign flipped and
   committed, a bitmap pass).  After each epoch the current snapshot is
   pinned, up to three stay pinned, and each is read by random subjects
   and by every subject in a random order on one query, so fills come
   on fresh, carried and older pinned snapshots; the live path is read
   alike. *)
let fill_prop =
  QCheck2.Test.make ~name:"every hit, fill and miss equals request_direct"
    ~count:40
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, op_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = Helpers.random_role_policy rng (Helpers.random_subjects rng) in
      let queries =
        Array.of_list
          (carry_queries
          @ List.init 6 (fun _ -> Pp.expr_to_string (Helpers.random_hospital_expr rng)))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate eng);
      ignore (Engine.annotate_subjects eng);
      let subjects =
        Array.of_list (None :: List.map Option.some (Policy.roles (Engine.policy eng)))
      in
      let fills () = counter "snapshot.cache.fills" eng in
      let fills0 = fills () in
      let orng = Prng.create ~seed:op_seed in
      let direct () =
        Array.map
          (fun q ->
            Array.map (fun subject -> Engine.request_direct ?subject eng Engine.Native q) subjects)
          queries
      in
      let pin () = (Engine.pin_snapshot eng, direct ()) in
      let read step what ask oracle =
        let check qi si =
          let subject = subjects.(si) in
          let d = ask ?subject queries.(qi) in
          if d <> oracle.(qi).(si) then
            QCheck2.Test.fail_reportf "after %s, %s %s%s: %s, direct read %s" step what
              queries.(qi)
              (match subject with None -> "" | Some r -> " @" ^ r)
              (Format.asprintf "%a" Requester.pp d)
              (Format.asprintf "%a" Requester.pp oracle.(qi).(si))
        in
        for _ = 1 to 8 do
          check (Prng.int orng (Array.length queries)) (Prng.int orng (Array.length subjects))
        done;
        let qi = Prng.int orng (Array.length queries) in
        let order = Array.init (Array.length subjects) Fun.id in
        Prng.shuffle orng order;
        Array.iter (check qi) order
      in
      let pinned = ref [ pin () ] in
      let read_all step =
        read step "live" (fun ?subject q -> Engine.request ?subject eng Engine.Native q) (direct ());
        List.iteri
          (fun i (snap, oracle) ->
            read step (Printf.sprintf "pinned %d" i)
              (fun ?subject q -> Snapshot.request ?subject snap q)
              oracle)
          !pinned
      in
      read_all "annotation";
      for _ = 1 to 6 do
        let step =
          match Prng.int orng 4 with
          | 0 ->
              let u = Helpers.random_update orng in
              ignore (Engine.update eng u);
              "update " ^ u
          | 1 ->
              let at, xml = Prng.choose_list orng carry_inserts in
              ignore (Engine.insert eng ~at ~fragment:(Xmlac_xml.Xml_parser.parse_exn xml));
              "insert " ^ xml
          | 2 ->
              let doc = Engine.document eng in
              flip_sign doc (Prng.choose orng (Array.of_list (Tree.nodes doc)));
              Engine.apply_replica eng Engine.Op_noop;
              "sign flip"
          | _ ->
              ignore (Engine.annotate_subjects eng);
              "annotate_subjects"
        in
        (pinned :=
           match pin () :: !pinned with
           | [ a; b; c; (oldest, _) ] ->
               Engine.unpin_snapshot eng oldest;
               [ a; b; c ]
           | kept -> kept);
        read_all step
      done;
      List.iter (fun (snap, _) -> Engine.unpin_snapshot eng snap) !pinned;
      if fills () = fills0 then QCheck2.Test.fail_report "no pinned read was a fill";
      true)

(* Memoized once, however many subjects ask: the anonymous subject's
   read misses, each role's is a fill, and the query is evaluated
   once. *)
let test_one_evaluation_per_query () =
  Fault.reset ();
  let roles = List.init 5 (Printf.sprintf "r%d") in
  let policy =
    Policy_io.parse_exn
      (String.concat "\n"
         (List.map (fun r -> "role " ^ r) roles
         @ [ "default deny"; "conflict deny"; "allow //patient";
             "deny @r1 //patient[treatment]"; "allow @r2 //treatment" ])
      ^ "\n")
  in
  let eng = Engine.create ~dtd:W.Hospital.dtd ~policy (W.Hospital.sample_document ()) in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let snap = Engine.current_snapshot eng and q = "//patient" in
  let count name = counter name eng in
  let misses = count "snapshot.cache.misses" and fills = count "snapshot.cache.fills"
  and evals = count "lane.materialized" and memos = Snapshot.cached_decisions snap in
  let ask subject =
    let d = Snapshot.request ?subject snap q in
    Alcotest.(check bool)
      (Printf.sprintf "%s equals the direct read" (Option.value subject ~default:"anonymous"))
      true
      (d = Engine.request_direct ?subject eng Engine.Native q);
    d
  in
  let decisions = List.map ask (None :: List.map Option.some roles) in
  Alcotest.(check bool) "the roles' decisions differ" true
    (List.length (List.sort_uniq compare decisions) > 1);
  Alcotest.(check int) "one miss" 1 (count "snapshot.cache.misses" - misses);
  Alcotest.(check int) "a fill per role" (List.length roles)
    (count "snapshot.cache.fills" - fills);
  Alcotest.(check int) "one evaluation" 1 (count "lane.materialized" - evals);
  Alcotest.(check int) "one memo" (memos + 1) (Snapshot.cached_decisions snap);
  ignore (List.map ask (None :: List.map Option.some roles));
  Alcotest.(check int) "then every read hits" (List.length roles)
    (count "snapshot.cache.fills" - fills)

(* A fill on a pinned snapshot after the writer moved on decides what
   the pinned epoch granted: deleting the treatments grants [staff]
   every patient, yet the pinned snapshot's fill still denies it. *)
let test_fill_on_pinned_snapshot () =
  Fault.reset ();
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:(Lazy.force Helpers.hospital_roles_policy)
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let q = "//patient" in
  let direct subject = Engine.request_direct ?subject eng Engine.Native q in
  let before = direct (Some "staff") in
  let s0 = Engine.pin_snapshot eng in
  ignore (Snapshot.request s0 q);
  ignore (Engine.update eng "//patient/treatment");
  let after = direct (Some "staff") in
  Alcotest.(check bool) "the epoch moved staff's decision" true (before <> after);
  let misses = counter "snapshot.cache.misses" eng
  and fills = counter "snapshot.cache.fills" eng in
  Alcotest.(check bool) "the pinned fill keeps the pinned decision" true
    (Snapshot.request ~subject:"staff" s0 q = before);
  Alcotest.(check int) "a fill" (fills + 1) (counter "snapshot.cache.fills" eng);
  Alcotest.(check int) "no evaluation" misses (counter "snapshot.cache.misses" eng);
  Alcotest.(check bool) "the current snapshot answers the new epoch" true
    (Engine.request ~subject:"staff" eng Engine.Native q = after);
  Engine.unpin_snapshot eng s0

(* At 64 roles the grant spans two words: role [r63] is bit 0 of word
   1 and the anonymous subject bit 1.  A miss as [r0] counts both for
   the fills that follow; the rule on [//patient[treatment]] denies
   them two patients it leaves [r0] and [r62]. *)
let test_fill_reads_second_word () =
  Fault.reset ();
  let subjects =
    Subject.make_exn (List.init 64 (fun i -> Subject.role (Printf.sprintf "r%d" i)))
  in
  let policy =
    Policy.make ~subjects ~ds:Rule.Plus ~cr:Rule.Minus
      [ Rule.parse ~subjects:[ "r0" ] "//treatment" Rule.Minus;
        Rule.parse ~subjects:[ "r63" ] "//patient[treatment]" Rule.Minus ]
  in
  let eng = Engine.create ~dtd:W.Hospital.dtd ~policy (W.Hospital.sample_document ()) in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let snap = Engine.current_snapshot eng and q = "//patient" in
  let misses = counter "snapshot.cache.misses" eng
  and fills = counter "snapshot.cache.fills" eng in
  let decisions =
    List.map
      (fun subject ->
        let d = Snapshot.request ?subject snap q in
        Alcotest.(check bool)
          (Printf.sprintf "%s equals the direct read" (Option.value subject ~default:"anonymous"))
          true
          (d = Engine.request_direct ?subject eng Engine.Native q);
        d)
      [ Some "r0"; Some "r63"; None; Some "r62" ]
  in
  Alcotest.(check bool) "word 1's subjects are denied what word 0's are granted" true
    (match decisions with
    | [ d0; d63; anon; d62 ] ->
        Requester.is_granted d0 && d62 = d0
        && (not (Requester.is_granted d63))
        && not (Requester.is_granted anon)
    | _ -> false);
  Alcotest.(check int) "one miss" (misses + 1) (counter "snapshot.cache.misses" eng);
  Alcotest.(check int) "three fills" (fills + 3) (counter "snapshot.cache.fills" eng)

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
          tc "memo never answers across epochs"
            test_memo_isolated_across_epochs;
          tc "carry in proportion to a sign write"
            test_carry_proportional_sign_write;
          tc "carry in proportion to a structural update"
            test_carry_proportional_structural;
          tc "full memo table on XMark" test_full_table_xmark;
        ] );
      ( "index",
        [
          tc "unread engine patches two buffers, builds none"
            test_unread_engine_two_buffers;
          tc "handed to the next structural epoch after a read"
            test_index_handed_after_read;
          tc "shared across an annotate epoch" test_index_shared_across_annotate;
          tc "concurrent first misses" test_concurrent_first_misses;
          QCheck_alcotest.to_alcotest index_reuse_prop;
        ] );
      ( "rank check",
        [
          tc "grant column not shared across a sign epoch"
            test_grants_not_shared_across_sign_epoch;
          QCheck_alcotest.to_alcotest rank_check_prop;
          QCheck_alcotest.to_alcotest carried_grants_prop;
          tc "grants span two words at 64 roles" test_grants_span_two_words;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest isolation_prop;
          QCheck_alcotest.to_alcotest cow_equiv_prop;
          QCheck_alcotest.to_alcotest carry_prop;
        ] );
      ( "fills",
        [
          QCheck_alcotest.to_alcotest fill_prop;
          tc "one evaluation per query" test_one_evaluation_per_query;
          tc "fill on a pinned older snapshot" test_fill_on_pinned_snapshot;
          tc "fill reads grant word 1 at 64 roles" test_fill_reads_second_word;
        ] );
      ( "frontend",
        [
          tc "pool sequential mode" test_pool_sequential;
          tc "pool parallel barrier" test_pool_parallel;
          tc "session lifecycle" test_session_lifecycle;
          tc "multi-domain smoke" test_multidomain_smoke;
        ] );
    ]
