(* Replication: the epoch shipper and follower apply loop under chaos
   transport, kill sweeps over every repl.* fault point, promotion
   after leader kill, and the cross-node
   equivalence property — every follower answers byte-identically to
   the leader after a random committed epoch chain shipped through a
   faulty transport. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module W = Xmlac_workload
module Serve = Xmlac_serve.Serve
module Repl = Xmlac_replicate.Replicate

(* ------------------------------------------------------------------ *)
(* Cluster fixtures. *)

let quiet_config = Repl.default_config

let mk_cluster ?(config = quiet_config) ?(followers = 2) () =
  Fault.reset ();
  Repl.create ~config ~followers ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
    (W.Hospital.sample_document ())

let treatment_fragment () =
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:"aspirin" "med");
  ignore (Tree.add_child frag reg ~value:"120" "bill");
  frag

let ok what = function
  | Ok _ -> ()
  | Error (e : Serve.error) -> Alcotest.failf "%s: %s" what e.Serve.message

let churn t =
  ok "annotate_all" (Repl.annotate_all t);
  ok "annotate_subjects_all" (Repl.annotate_subjects_all t);
  ok "update" (Repl.update t "//patient/treatment");
  ok "insert"
    (Repl.insert t ~at:"//patient[psn = \"099\"]"
       ~fragment:(treatment_fragment ()))

let accessible_sets = Engine.accessible

let subject_sets eng =
  List.map
    (fun r -> (r, Engine.accessible_subject eng r))
    (Policy.roles (Engine.policy eng))

(* A node serves the epoch it applied: its current snapshot is its
   last committed epoch, not one behind it. *)
let check_serves_applied ctx eng =
  Alcotest.(check int)
    (ctx ^ ": current snapshot is the committed epoch")
    (Engine.sign_epoch eng)
    (Snapshot.epoch (Engine.current_snapshot eng))

(* Byte-identical equivalence between two engines: state digests,
   visible id sets with and without subjects, and decisions on [qs]
   across both forced lanes and every subject; each engine serves the
   epoch it applied. *)
let check_twin_engines ctx leader follower qs =
  check_serves_applied (ctx ^ " (first)") leader;
  check_serves_applied (ctx ^ " (second)") follower;
  Alcotest.(check int32)
    (ctx ^ ": state digests agree")
    (Engine.state_checksum leader)
    (Engine.state_checksum follower);
  Alcotest.(check bool)
    (ctx ^ ": visible ids agree")
    true
    (accessible_sets leader = accessible_sets follower);
  Alcotest.(check bool)
    (ctx ^ ": per-subject visible ids agree")
    true
    (subject_sets leader = subject_sets follower);
  let subjects = None :: List.map Option.some (Policy.roles (Engine.policy leader)) in
  List.iter
    (fun q ->
      List.iter
        (fun lane ->
          List.iter
            (fun subject ->
              let ask eng = Engine.request ?subject ~lane eng Engine.Native q in
              if ask leader <> ask follower then
                Alcotest.failf "%s: decision differs on %s" ctx q)
            subjects)
        [ Rewrite.Materialized; Rewrite.Rewrite ])
    qs

let sample_queries =
  [ "//patient"; "//patient/name"; "//treatment"; "//patient[treatment]" ]

(* ------------------------------------------------------------------ *)
(* The happy path: ship, apply, converge, serve. *)

let test_basic_convergence () =
  let t = mk_cluster () in
  churn t;
  Alcotest.(check bool) "cluster converges" true (Repl.sync t);
  let ld = Repl.leader_engine t in
  List.iter
    (fun id ->
      if Repl.node_role t id = Repl.Follower then begin
        Alcotest.(check int)
          (Printf.sprintf "node %d fully applied" id)
          (Repl.committed t) (Repl.applied t id);
        Alcotest.(check int) (Printf.sprintf "node %d lag" id) 0 (Repl.lag t id);
        Alcotest.(check bool)
          (Printf.sprintf "node %d not diverged" id)
          false (Repl.diverged t id);
        check_twin_engines
          (Printf.sprintf "node %d" id)
          ld (Repl.engine t id) sample_queries
      end)
    (Repl.nodes t);
  (* Every applied epoch's recomputed digest matched its frame's. *)
  Alcotest.(check int) "every applied epoch digest-verified"
    (Metrics.counter (Repl.metrics t) "repl.applied")
    (Metrics.counter (Repl.metrics t) "repl.digest_verified");
  (* Reads through the serving layer agree across nodes. *)
  List.iter
    (fun q ->
      let on id =
        match Repl.read t ~node:id q with
        | Ok r -> r.Serve.decision
        | Error e -> Alcotest.failf "read on node %d: %s" id e.Serve.message
      in
      let d0 = on 0 in
      Alcotest.(check bool) ("follower reads match leader: " ^ q) true
        (on 1 = d0 && on 2 = d0))
    sample_queries

(* Each node's serving layer re-pins at every commit it frames or
   applies, so no node keeps an old epoch alive. *)
let test_no_retired_snapshots () =
  let t = mk_cluster () in
  churn t;
  Alcotest.(check bool) "cluster converges" true (Repl.sync t);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "node %d holds no retired snapshot" id)
        0
        (Snapshot.retired (Engine.snapshots (Repl.engine t id))))
    (Repl.nodes t)

let test_follower_refuses_direct_mutation () =
  let t = mk_cluster () in
  match Engine.update (Repl.engine t 1) "//patient/treatment" with
  | _ -> Alcotest.fail "read-only follower accepted a direct mutation"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "read-only message" true
        (Helpers.contains msg "read-only replica")

(* A leader-side kill during an annotation epoch rolls back; the
   aborted epoch ships as a noop so replicas consume its number and
   the digest chain stays aligned. *)
let test_leader_abort_ships_noop () =
  let t = mk_cluster ~followers:1 () in
  Fault.arm "native.set_sign" (Fault.After 1);
  (match Repl.annotate_all t with
  | Ok () -> Alcotest.fail "armed kill did not surface"
  | Error e ->
      Alcotest.(check bool) "classified fatal" true (e.Serve.class_ = Serve.Fatal));
  Alcotest.(check int) "aborted epoch framed as noop" 1
    (Metrics.counter (Repl.metrics t) "repl.noops");
  Alcotest.(check int) "stream advanced" 1 (Repl.committed t);
  (* The kill is process-global: recovery (inside sync's heal) clears
     it, after which the retried operation commits and ships. *)
  Alcotest.(check bool) "noop syncs" true (Repl.sync t);
  ok "annotate retried" (Repl.annotate_all t);
  Alcotest.(check bool) "cluster converges" true (Repl.sync t);
  check_twin_engines "after noop" (Repl.leader_engine t) (Repl.engine t 1)
    sample_queries

(* Retry accounting on both epoch paths.  A transient before the
   leader's epoch opens is retried into one frame and no noop; one at
   the follower's apply is retried into one digest-verified apply. *)
let test_leader_retry () =
  let t = mk_cluster ~followers:1 () in
  let m = Repl.metrics t in
  Fault.arm_transient "epoch.begin" (Fault.After 1);
  ok "update retried" (Repl.update t "//patient/treatment");
  Alcotest.(check int) "retry counted" 1 (Metrics.counter m "repl.retries");
  Alcotest.(check int) "one frame" 1 (Metrics.counter m "repl.framed");
  Alcotest.(check int) "no noop" 0 (Metrics.counter m "repl.noops")

let test_follower_apply_retry () =
  let t = mk_cluster ~followers:1 () in
  let m = Repl.metrics t in
  ok "update" (Repl.update t "//patient/treatment");
  Fault.arm_transient "repl.apply" (Fault.After 1);
  Alcotest.(check bool) "syncs" true (Repl.sync t);
  Alcotest.(check int) "fired once" 1 (Fault.transient_fires ());
  Alcotest.(check int) "one apply" 1 (Metrics.counter m "repl.applied");
  Alcotest.(check int) "retry counted" 1 (Metrics.counter m "repl.retries");
  Alcotest.(check int) "digest verified" 1
    (Metrics.counter m "repl.digest_verified")

(* A kill at the reclaim point of the leader's re-pin is contained
   there, after the op committed; the next op settles it first instead
   of failing on it. *)
let test_leader_repin_kill () =
  let t = mk_cluster ~followers:1 () in
  ok "annotate" (Repl.annotate_all t);
  Fault.arm "snapshot.reclaim" (Fault.After 1);
  ok "update" (Repl.update t "//patient/treatment");
  Alcotest.(check bool) "the kill fired in the re-pin" true (Fault.killed ());
  ok "next op" (Repl.update t "//nurse");
  Alcotest.(check bool) "cluster converges" true (Repl.sync t);
  check_twin_engines "after the re-pin kill" (Repl.leader_engine t)
    (Repl.engine t 1) sample_queries

(* ------------------------------------------------------------------ *)
(* Chaos transport: drops, duplicates, reorders, torn frames. *)

let test_chaos_convergence () =
  let config =
    {
      quiet_config with
      Repl.seed = 20090101L;
      drop_p = 0.3;
      dup_p = 0.3;
      reorder_p = 0.3;
      torn_p = 0.2;
      max_reship = 1000;
    }
  in
  let t = mk_cluster ~config () in
  churn t;
  Alcotest.(check bool) "converges through chaos" true (Repl.sync ~rounds:300 t);
  let m = Repl.metrics t in
  Alcotest.(check bool) "chaos actually fired" true
    (Metrics.counter m "repl.dropped" > 0
    && Metrics.counter m "repl.duplicated" > 0
    && Metrics.counter m "repl.torn" > 0);
  Alcotest.(check bool) "torn frames were rejected, then re-shipped" true
    (Metrics.counter m "repl.rejected" > 0
    && Metrics.counter m "repl.gap_requests" > 0
    && Metrics.counter m "repl.reshipped" > 0);
  List.iter
    (fun id ->
      if Repl.node_role t id = Repl.Follower then
        check_twin_engines
          (Printf.sprintf "chaos node %d" id)
          (Repl.leader_engine t) (Repl.engine t id) sample_queries)
    (Repl.nodes t)

let granted = function
  | Ok r -> (
      match r.Serve.decision with
      | Requester.Granted _ -> true
      | Requester.Denied _ -> false)
  | Error _ -> false

let test_partition_fails_closed () =
  let t = mk_cluster () in
  ok "annotate" (Repl.annotate_all t);
  Alcotest.(check bool) "baseline sync" true (Repl.sync t);
  Alcotest.(check bool) "baseline read grants" true
    (granted (Repl.read t ~node:1 "//patient/name"));
  Repl.set_partitioned t 1 true;
  ok "update behind the partition" (Repl.update t "//patient/treatment");
  ok "second update" (Repl.update t "//patient[psn = \"000\"]");
  ignore (Repl.sync t);
  Alcotest.(check int) "partitioned node lags" 2 (Repl.lag t 1);
  let denials_before =
    Metrics.counter (Repl.metrics t) Metrics.repl_stale_denials
  in
  (match Repl.read t ~node:1 "//patient/name" with
  | Ok r ->
      Alcotest.(check bool) "blanket deny" true
        (r.Serve.decision = Requester.Denied { blocked = 0 });
      Alcotest.(check bool) "served degraded" true (r.Serve.served = Serve.Degraded)
  | Error e -> Alcotest.failf "fail-closed read errored: %s" e.Serve.message);
  Alcotest.(check int) "stale denial counted" (denials_before + 1)
    (Metrics.counter (Repl.metrics t) Metrics.repl_stale_denials);
  (* Routing avoids the stale node. *)
  let picked, reply = Repl.route t "//patient/name" in
  Alcotest.(check int) "router picks the in-sync follower" 2 picked;
  Alcotest.(check bool) "routed read grants" true (granted reply);
  (* Reconnect: the gap is detected and re-shipped, service resumes. *)
  Repl.set_partitioned t 1 false;
  Alcotest.(check bool) "reconnected node catches up" true (Repl.sync t);
  Alcotest.(check int) "lag cleared" 0 (Repl.lag t 1);
  Alcotest.(check bool) "service restored" true
    (granted (Repl.read t ~node:1 "//patient/name"))

(* ------------------------------------------------------------------ *)
(* Kill sweep: crash a follower at every fault point the apply path
   crosses; while killed mid-epoch it must not serve, and after the
   restart protocol it must land exactly on the leader's state —
   never a partially-applied epoch. *)

let kill_offsets hits =
  List.filter
    (fun k -> k >= 1 && k <= hits)
    (List.sort_uniq compare [ 1; (hits + 1) / 2; hits ])

(* The points [run] crosses, with their hit counts. *)
let points_crossed run =
  let before = List.map (fun n -> (n, Fault.hits n)) (Fault.registered ()) in
  run ();
  List.filter_map
    (fun n ->
      let b = Option.value (List.assoc_opt n before) ~default:0 in
      let d = Fault.hits n - b in
      if d > 0 then Some (n, d) else None)
    (Fault.registered ())

let test_follower_kill_sweep () =
  Fault.reset ();
  (* Scout: learn every point one full replication round crosses. *)
  let scout = mk_cluster ~followers:1 () in
  churn scout;
  let crossed =
    points_crossed (fun () ->
        Alcotest.(check bool) "scout syncs" true (Repl.sync scout))
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("sweep covers " ^ p) true
        (List.mem_assoc p crossed))
    [ "repl.ship"; "repl.recv"; "repl.apply"; "repl.ack" ];
  List.iter
    (fun (pt, hits) ->
      List.iter
        (fun k ->
          let t = mk_cluster ~followers:1 () in
          churn t;
          Fault.arm pt (Fault.After k);
          (* Pump until the armed kill fires (or the sweep's round
             budget shows it cannot). *)
          let killed = ref false in
          (try
             for _ = 1 to 20 do
               if not !killed then
                 try Repl.pump t with Fault.Crash _ -> killed := true
             done
           with Fault.Crash _ -> killed := true);
          if !killed then begin
            let ctx = Printf.sprintf "kill at %s hit %d" pt k in
            (* Mid-kill: a follower with an epoch open must not answer. *)
            let f_eng = Repl.engine t 1 in
            if Engine.open_epoch f_eng <> None then (
              match Repl.read t ~node:1 "//patient" with
              | Ok r ->
                  Alcotest.(check bool)
                    (ctx ^ ": mid-epoch read fails closed") true
                    (r.Serve.served = Serve.Degraded)
              | Error _ -> () (* fail-closed by error: also fine *));
            (* Restart protocol: converge and match the leader. *)
            Alcotest.(check bool) (ctx ^ ": heals and converges") true
              (Repl.sync ~rounds:200 t);
            Alcotest.(check (option int)) (ctx ^ ": no epoch left open") None
              (Engine.open_epoch f_eng);
            Alcotest.(check bool) (ctx ^ ": not diverged") false
              (Repl.diverged t 1);
            check_twin_engines ctx (Repl.leader_engine t) f_eng sample_queries
          end;
          Fault.reset ())
        (kill_offsets hits))
      crossed

let probe_queries =
  sample_queries
  @ [ "//regular"; "//patient/treatment/regular"; "//med"; "//bill";
      "//patient/psn"; "//regular/med" ]

(* Transient sweep: one recoverable fault at each point the leader's
   ops and a replication round cross.  The fault may land after a
   commit (at [snapshot.publish]); every node must still end up
   serving the epoch it applied, and each follower must answer as the
   leader's committed materialization does. *)
let test_transient_sweep () =
  Fault.reset ();
  let scout = mk_cluster ~followers:1 () in
  let crossed =
    points_crossed (fun () ->
        churn scout;
        Alcotest.(check bool) "scout syncs" true (Repl.sync scout))
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("sweep covers " ^ p) true
        (List.mem_assoc p crossed))
    [ "epoch.commit"; "snapshot.publish"; "repl.apply"; "repl.ack" ];
  List.iter
    (fun (pt, hits) ->
      List.iter
        (fun k ->
          let ctx = Printf.sprintf "transient at %s hit %d" pt k in
          let t = mk_cluster ~followers:1 () in
          Fault.arm_transient pt (Fault.After k);
          churn t;
          Alcotest.(check bool) (ctx ^ ": converges") true
            (Repl.sync ~rounds:200 t);
          Alcotest.(check int) (ctx ^ ": fired once") 1
            (Fault.transient_fires ());
          Fault.reset ();
          List.iter
            (fun id ->
              check_serves_applied
                (Printf.sprintf "%s: node %d" ctx id)
                (Repl.engine t id))
            (Repl.nodes t);
          let ld = Repl.leader_engine t in
          List.iter
            (fun q ->
              match Repl.read t ~node:1 q with
              | Ok r ->
                  if r.Serve.decision <> Engine.request_direct ld Engine.Native q
                  then Alcotest.failf "%s: follower read differs on %s" ctx q
              | Error e ->
                  Alcotest.failf "%s: follower read on %s: %s" ctx q
                    e.Serve.message)
            probe_queries)
        (kill_offsets hits))
    crossed

(* ------------------------------------------------------------------ *)
(* Failover: kill the leader, promote a follower. *)

let test_promote_after_leader_kill () =
  let t = mk_cluster () in
  churn t;
  Alcotest.(check bool) "pre-kill sync" true (Repl.sync t);
  (match Repl.promote t 1 with
  | Ok _ -> Alcotest.fail "promotion with a live leader must refuse"
  | Error msg ->
      Alcotest.(check bool) "refusal names the live leader" true
        (Helpers.contains msg "alive"));
  Repl.kill_leader t;
  (match Repl.read t ~node:0 "//patient" with
  | Ok _ -> Alcotest.fail "dead leader served a read"
  | Error e -> Alcotest.(check bool) "dead leader fatal" true
      (e.Serve.class_ = Serve.Fatal));
  (match Repl.update t "//patient" with
  | Ok () -> Alcotest.fail "dead leader accepted a write"
  | Error _ -> ());
  let committed = Repl.committed t in
  (match Repl.promote t 1 with
  | Error msg -> Alcotest.failf "promotion refused: %s" msg
  | Ok p ->
      Alcotest.(check int) "promoted node" 1 p.Repl.node;
      Alcotest.(check int) "promoted at the full tail" committed p.Repl.epoch;
      Alcotest.(check int32) "digest recorded"
        (Engine.state_checksum (Repl.engine t 1))
        p.Repl.state_sum);
  Alcotest.(check bool) "new leader alive" true (Repl.leader_alive t);
  Alcotest.(check bool) "old leader deposed" true
    (Repl.node_role t 0 = Repl.Deposed);
  (match Repl.read t ~node:0 "//patient" with
  | Ok _ -> Alcotest.fail "deposed node served a read"
  | Error _ -> ());
  (* The promoted engine is writable and passes recovery clean. *)
  let r = Engine.recover (Repl.engine t 1) in
  Alcotest.(check bool) "recovery finds nothing to do" true
    (r.Engine.recovered_epoch = None && r.Engine.direction = `None);
  ok "post-promotion write" (Repl.update t "//patient/treatment");
  Alcotest.(check bool) "survivor re-syncs from the new leader" true
    (Repl.sync t);
  Alcotest.(check bool) "survivor serves again" true
    (granted (Repl.read t ~node:2 "//patient/name"));
  check_twin_engines "survivor vs new leader" (Repl.engine t 1)
    (Repl.engine t 2) sample_queries

(* Promoting a lagging follower truncates the stream to its tail;
   survivors that applied past it hold epochs the new leader never
   committed, so they are marked divergent and fail closed. *)
let test_promote_lagging_tail () =
  let t = mk_cluster () in
  ok "annotate" (Repl.annotate_all t);
  Alcotest.(check bool) "baseline sync" true (Repl.sync t);
  let base = Repl.committed t in
  Repl.set_partitioned t 2 true;
  ok "update past node 2" (Repl.update t "//patient/treatment");
  Alcotest.(check bool) "node 1 alone catches up" true (Repl.sync t);
  Repl.kill_leader t;
  (match Repl.promote t 2 with
  | Error msg -> Alcotest.failf "promoting the short tail refused: %s" msg
  | Ok p -> Alcotest.(check int) "promoted at its applied epoch" base p.Repl.epoch);
  Alcotest.(check int) "stream truncated" base (Repl.committed t);
  Alcotest.(check bool) "survivor ahead of the tail is divergent" true
    (Repl.diverged t 1);
  (match Repl.read t ~node:1 "//patient" with
  | Ok r -> Alcotest.(check bool) "divergent survivor fails closed" true
      (r.Serve.served = Serve.Degraded)
  | Error _ -> ());
  (* The divergent node refuses promotion too. *)
  Repl.kill_leader t;
  match Repl.promote t 1 with
  | Ok _ -> Alcotest.fail "divergent node must refuse promotion"
  | Error msg ->
      Alcotest.(check bool) "refusal names divergence" true
        (Helpers.contains msg "diverged")

(* ------------------------------------------------------------------ *)
(* The state digest: it moves with every grant, and only with grants. *)

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

let digest_engine () =
  Fault.reset ();
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:(Lazy.force roles_policy)
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  eng

let flip = function Tree.Plus -> Tree.Minus | Tree.Minus -> Tree.Plus

(* Flipping one stored sign (or role bit) through a backend changes
   the digest, and flipping it back restores it: the digest is a
   function of the stored grants. *)
let check_flip what eng ~write ~undo =
  let before = Engine.state_checksum eng in
  write ();
  if Engine.state_checksum eng = before then
    Alcotest.failf "%s left the digest unchanged" what;
  undo ();
  Alcotest.(check int32) (what ^ ", undone") before (Engine.state_checksum eng)

let test_digest_sensitive () =
  let eng = digest_engine () in
  let policy = Engine.policy eng in
  let b = Engine.backend eng Engine.Native in
  let id = List.nth (b.Backend.live_ids ()) 3 in
  let sign = b.Backend.sign_of id in
  let eff = Backend.effective_sign b ~default:(Policy.ds policy) id in
  check_flip "native sign flip" eng
    ~write:(fun () -> b.Backend.restore_sign id (Some (flip eff)))
    ~undo:(fun () -> b.Backend.restore_sign id sign);
  let bits = b.Backend.bits_of id in
  let default = Policy.default_bits policy in
  let set = Xmlac_util.Bitset.mem 1 (Backend.effective_bits b ~default id) in
  check_flip "role bit flip" eng
    ~write:(fun () ->
      ignore (b.Backend.set_bits_batch [ (id, [ (1, not set) ]) ] ~default))
    ~undo:(fun () -> b.Backend.restore_bits id bits)

let test_digest_ignores_epochs () =
  let eng = digest_engine () in
  let before = Engine.state_checksum eng in
  let e0 = Engine.sign_epoch eng in
  Engine.apply_replica eng Engine.Op_noop;
  Alcotest.(check int) "noop consumed an epoch" (e0 + 1)
    (Engine.sign_epoch eng);
  Alcotest.(check int32) "noop epoch: digest unchanged" before
    (Engine.state_checksum eng);
  (* A crash mid-annotation, rolled back by recovery: the epoch number
     is consumed, the grants are the pre-epoch ones. *)
  Fault.arm "native.set_sign" (Fault.After 2);
  (match Engine.annotate eng with
  | _ -> Alcotest.fail "armed kill did not fire"
  | exception Fault.Crash _ -> ());
  let r = Engine.recover eng in
  Alcotest.(check bool) "rolled back" true (r.Engine.direction = `Back);
  Alcotest.(check int) "recovery consumed an epoch" (e0 + 2)
    (Engine.sign_epoch eng);
  Alcotest.(check int32) "crash + recover: digest unchanged" before
    (Engine.state_checksum eng);
  Alcotest.(check int32) "equal to a twin that never crashed"
    (Engine.state_checksum (digest_engine ()))
    (Engine.state_checksum eng);
  Fault.reset ()

(* Whenever two engines grant the same node sets — anonymously and per
   role — their digests are equal, whatever
   chains of epochs led there.  Engines with unequal sets must digest
   apart (a 32-bit collision would be a 2^-32 accident). *)
let digest_prop =
  QCheck2.Test.make ~name:"equal accessible sets <-> equal digests" ~count:30
    Helpers.seed_gen
    (fun seed ->
      Fault.reset ();
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy =
        Helpers.random_role_policy rng (Helpers.random_subjects rng)
      in
      let updates = List.init 2 (fun _ -> Helpers.random_update rng) in
      let step eng = function
        | 0 -> ignore (Engine.annotate eng)
        | 1 -> ignore (Engine.annotate_subjects eng)
        | 2 -> Engine.apply_replica eng Engine.Op_noop
        | 3 ->
            ignore
              (Engine.insert eng ~at:"//patient"
                 ~fragment:(treatment_fragment ()))
        | k -> ignore (Engine.update eng (List.nth updates (k - 4)))
      in
      let chain () =
        let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
        for _ = 1 to Prng.int rng 4 do
          step eng (Prng.int rng 6)
        done;
        eng
      in
      let a = chain () and b = chain () in
      let sets = (accessible_sets a, subject_sets a) in
      let same_sets = sets = (accessible_sets b, subject_sets b) in
      let same_digest = Engine.state_checksum a = Engine.state_checksum b in
      if same_sets <> same_digest then
        QCheck2.Test.fail_reportf "accessible sets %s, digests %s"
          (if same_sets then "equal" else "differ")
          (if same_digest then "equal" else "differ");
      true)

(* ------------------------------------------------------------------ *)
(* The cross-node equivalence property: a random committed epoch chain
   shipped through a faulty transport (drops, duplicates, reorders,
   torn frames, one follower kill) leaves every follower answering
   byte-identically to the leader — decisions with and without
   subjects, visible id sets, both lanes. *)

let equivalence_prop =
  QCheck2.Test.make
    ~name:
      "random epoch chain over faulty transport -> followers byte-identical \
       to leader"
    ~count:12
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, chaos_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = Lazy.force roles_policy in
      let config =
        {
          quiet_config with
          Repl.seed = chaos_seed;
          drop_p = 0.25;
          dup_p = 0.25;
          reorder_p = 0.25;
          torn_p = 0.15;
          max_reship = 1000;
        }
      in
      let t =
        Repl.create ~config ~followers:2 ~dtd:W.Hospital.dtd ~policy doc
      in
      let submit = function
        | Ok () | Error _ -> ()
        (* A leader-side error (e.g. the injected kill landing on the
           leader) still frames noops for aborted epochs; the chain
           stays well-formed either way. *)
      in
      submit (Repl.annotate_all t);
      submit (Repl.annotate_subjects_all t);
      (* One follower kill somewhere in the apply stream. *)
      Fault.arm "repl.apply" (Fault.After (1 + Prng.int rng 4));
      let steps = 1 + Prng.int rng 4 in
      for _ = 1 to steps do
        (match Prng.int rng 3 with
        | 0 -> submit (Repl.update t (Helpers.random_update rng))
        | 1 ->
            submit
              (Repl.insert t ~at:"//patient"
                 ~fragment:
                   (let f = Tree.create ~root_name:"treatment" in
                    ignore
                      (Tree.add_child f (Tree.root f) ~value:"x" "med");
                    f))
        | _ -> submit (Repl.annotate_all t));
        try Repl.pump t with Fault.Crash _ -> ()
      done;
      if not (Repl.sync ~rounds:300 t) then
        QCheck2.Test.fail_report "cluster failed to converge";
      Fault.reset ();
      let qs =
        List.init 3 (fun _ ->
            Xmlac_xpath.Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let ld = Repl.leader_engine t in
      List.iter
        (fun id ->
          if Repl.node_role t id = Repl.Follower then begin
            if Repl.diverged t id then
              QCheck2.Test.fail_report
                (Printf.sprintf "follower %d diverged" id);
            check_twin_engines
              (Printf.sprintf "follower %d" id)
              ld (Repl.engine t id)
              (sample_queries @ qs)
          end)
        (Repl.nodes t);
      true)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "replicate"
    [
      ( "stream",
        [
          tc "ship, apply, converge, serve" test_basic_convergence;
          tc "no node keeps a retired snapshot" test_no_retired_snapshots;
          tc "follower refuses direct mutation"
            test_follower_refuses_direct_mutation;
          tc "leader abort ships a noop epoch" test_leader_abort_ships_noop;
          tc "a transient leader op retries into one frame" test_leader_retry;
          tc "a transient follower apply retries into one apply"
            test_follower_apply_retry;
          tc "a kill in the leader's re-pin does not fail the next op"
            test_leader_repin_kill;
        ] );
      ( "chaos",
        [
          tc "drops, dups, reorders, torn frames converge"
            test_chaos_convergence;
          tc "partition fails closed, reconnect recovers"
            test_partition_fails_closed;
        ] );
      ( "kill sweeps",
        [
          tc "follower killed at every apply-path point" test_follower_kill_sweep;
          tc "transient at every op- and apply-path point"
            test_transient_sweep;
        ] );
      ( "failover",
        [
          tc "promote after leader kill" test_promote_after_leader_kill;
          tc "promoting a lagging tail marks survivors divergent"
            test_promote_lagging_tail;
        ] );
      ( "digest",
        [
          tc "one flipped sign or role bit changes it" test_digest_sensitive;
          tc "noop and recovered epochs leave it alone"
            test_digest_ignores_epochs;
          QCheck_alcotest.to_alcotest digest_prop;
        ] );
      ( "properties", [ QCheck_alcotest.to_alcotest equivalence_prop ] );
    ]
