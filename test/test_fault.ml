(* Deterministic fault injection and crash-safe sign epochs: the
   registry itself, the engine's recovery state machine (crash at every
   fault point an operation crosses, then recover), and the qcheck
   atomicity property over random documents, policies and updates. *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Wal = Xmlac_reldb.Wal
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module Pp = Xmlac_xpath.Pp
module W = Xmlac_workload
module Serve = Xmlac_serve.Serve
module Repl = Xmlac_replicate.Replicate

(* ------------------------------------------------------------------ *)
(* The fault-point registry. *)

let test_after_trigger () =
  Fault.reset ();
  Fault.arm "t.after" (Fault.After 3);
  Fault.point "t.after";
  Fault.point "t.after";
  Alcotest.(check bool) "not yet killed" false (Fault.killed ());
  (match Fault.point "t.after" with
  | () -> Alcotest.fail "third hit did not crash"
  | exception Fault.Crash site ->
      Alcotest.(check string) "crash site" "t.after" site);
  Alcotest.(check bool) "killed" true (Fault.killed ());
  Alcotest.(check (option string)) "site recorded" (Some "t.after")
    (Fault.crash_site ());
  (* Dead process: every further point re-raises the original site. *)
  (match Fault.point "t.other" with
  | () -> Alcotest.fail "point ran past the kill"
  | exception Fault.Crash site ->
      Alcotest.(check string) "re-raises original site" "t.after" site);
  Fault.recover ();
  Alcotest.(check bool) "recovered" false (Fault.killed ());
  Fault.point "t.after" (* disarmed by recover: no crash *)

let crash_index ~seed ~prob ~max =
  Fault.reset ();
  Fault.set_seed seed;
  Fault.arm "t.prob" (Fault.Prob prob);
  let rec go i =
    if i > max then None
    else
      match Fault.point "t.prob" with
      | () -> go (i + 1)
      | exception Fault.Crash _ -> Some i
  in
  go 1

let test_prob_trigger_replayable () =
  let a = crash_index ~seed:42L ~prob:0.2 ~max:1000 in
  let b = crash_index ~seed:42L ~prob:0.2 ~max:1000 in
  Alcotest.(check bool) "fired within bound" true (a <> None);
  Alcotest.(check (option int)) "same seed, same crash schedule" a b;
  Fault.reset ()

let test_registry_enumeration () =
  Fault.reset ();
  Fault.point "t.reg.a";
  Fault.point "t.reg.a";
  Fault.point "t.reg.b";
  Alcotest.(check int) "hits counted" 2 (Fault.hits "t.reg.a");
  let reg = Fault.registered () in
  Alcotest.(check bool) "both registered" true
    (List.mem "t.reg.a" reg && List.mem "t.reg.b" reg);
  Fault.reset ();
  Alcotest.(check int) "reset zeroes hits" 0 (Fault.hits "t.reg.a");
  Alcotest.(check bool) "names survive reset" true
    (List.mem "t.reg.a" (Fault.registered ()))

let test_arm_all () =
  Fault.reset ();
  Fault.set_seed 7L;
  Fault.arm_all ~prob:1.0;
  (match Fault.point "t.any" with
  | () -> Alcotest.fail "arm_all 1.0 did not crash"
  | exception Fault.Crash _ -> ());
  Fault.recover ();
  Fault.arm_all ~prob:0.0;
  Fault.point "t.any";
  Fault.reset ()

let test_env_seed_parse () =
  (* The CI fault matrix drives crash schedules through this variable;
     the parse must agree with the raw environment. *)
  match Sys.getenv_opt Fault.seed_env_var with
  | None -> Alcotest.(check (option int64)) "unset" None (Fault.env_seed ())
  | Some raw ->
      Alcotest.(check (option int64)) "parses the environment"
        (Int64.of_string_opt (String.trim raw))
        (Fault.env_seed ())

(* ------------------------------------------------------------------ *)
(* WAL appends after a kill must fail loudly (not silently succeed). *)

let test_wal_log_after_crash_fails_loudly () =
  Fault.reset ();
  let w = Wal.create () in
  Wal.log w "before";
  Fault.arm "wal.append" (Fault.After 1);
  (match Wal.log w "doomed" with
  | () -> Alcotest.fail "armed append did not crash"
  | exception Fault.Crash _ -> ());
  (match Wal.log w "after the kill" with
  | () -> Alcotest.fail "append past the kill succeeded silently"
  | exception Failure msg ->
      Alcotest.(check bool) "explains itself" true
        (Helpers.contains msg "simulated crash"));
  Fault.recover ();
  Wal.log w "alive again";
  Alcotest.(check int) "only surviving records" 2 (Wal.records w);
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* Engine fixtures: every engine in a test is built over the same
   document value so universal ids line up across twins. *)

let hospital_doc = W.Hospital.sample_document ()

let hospital_fixture () =
  fun () ->
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy hospital_doc

let treatment_fragment () =
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:"aspirin" "med");
  ignore (Tree.add_child frag reg ~value:"120" "bill");
  frag

let accessible_sets = Engine.accessible

(* Kill on the first, a middle, and the last hit of a point. *)
let kill_offsets hits =
  List.filter
    (fun k -> k >= 1 && k <= hits)
    (List.sort_uniq compare [ 1; (hits + 1) / 2; hits ])

(* The deterministic sweep: scout the operation once to learn every
   fault point it crosses (and how often), then for each point and a
   few kill offsets build a fresh engine, crash there, recover, and
   check the atomicity contract — the store lands extensionally on the
   pre- or the post-operation materialization, never a mix; the epoch
   counter never runs backwards; the fast lane is coherent.  The pre
   and post sets come from fault-free twin engines, or from [oracle]
   when given. *)
let crash_sweep ?(crosses = []) ?oracle ~name ~make_engine ~prep ~op ~sets ()
    =
  Fault.reset ();
  let scout = make_engine () in
  prep scout;
  let before = List.map (fun n -> (n, Fault.hits n)) (Fault.registered ()) in
  op scout;
  let crossed =
    List.filter_map
      (fun n ->
        let b = Option.value (List.assoc_opt n before) ~default:0 in
        let d = Fault.hits n - b in
        if d > 0 then Some (n, d) else None)
      (Fault.registered ())
  in
  Alcotest.(check bool) (name ^ ": crosses fault points") true (crossed <> []);
  List.iter
    (fun pt ->
      Alcotest.(check bool) (name ^ ": crosses " ^ pt) true
        (List.mem_assoc pt crossed))
    crosses;
  let pre, post =
    match oracle with
    | Some oracle -> oracle ()
    | None ->
        let pre_twin = make_engine () in
        prep pre_twin;
        let post_twin = make_engine () in
        prep post_twin;
        op post_twin;
        (sets pre_twin, sets post_twin)
  in
  List.iter
    (fun (pt, hits) ->
      List.iter
        (fun k ->
          Fault.reset ();
          let eng = make_engine () in
          prep eng;
          let e0 = Engine.sign_epoch eng in
          Fault.arm pt (Fault.After k);
          (match op eng with
          | () -> Alcotest.failf "%s: %s (After %d) did not fire" name pt k
          | exception Fault.Crash _ -> ());
          let r = Engine.recover eng in
          let ctx = Printf.sprintf "%s: crash at %s hit %d" name pt k in
          Alcotest.(check bool) (ctx ^ ": epoch monotone") true
            (Engine.sign_epoch eng >= e0);
          Alcotest.(check (option int)) (ctx ^ ": no epoch left open") None
            (Engine.open_epoch eng);
          (match r.Engine.recovered_epoch with
          | Some n ->
              Alcotest.(check int) (ctx ^ ": aborted epoch consumed") n
                (Engine.sign_epoch eng)
          | None -> ());
          let now = sets eng in
          if now <> pre && now <> post then
            Alcotest.failf "%s: the store is neither pre nor post" ctx;
          Alcotest.(check bool) (ctx ^ ": rank check = CAM oracle") true
            (Helpers.snapshot_coherent eng))
        (kill_offsets hits))
    crossed;
  Fault.reset ()

let annotate eng = ignore (Engine.annotate eng)
let accessible_subject_sets eng =
  List.map
    (fun role -> (role, Engine.accessible_subject eng role))
    (Policy.roles (Engine.policy eng))

let all_subject_sets eng = (Engine.accessible eng, accessible_subject_sets eng)

(* One sweep over the hospital document, its setup and operation given
   as cross-store ops.  [~relational:true] takes the pre and post sets
   from twins checked against the row and column stores replaying the
   same ops through [Annotator] / [Reannotator] — an implementation
   independent of the engine's; [~relational:false] from plain twin
   engines. *)
let sweep ?crosses ~relational ~name ~policy ~prep ~op ~sets () =
  let oracle () =
    let c = Helpers.cross_stores ~dtd:W.Hospital.dtd ~policy hospital_doc in
    let checked step =
      Helpers.check_cross (name ^ " oracle, " ^ step) c;
      sets c.eng
    in
    List.iter (Helpers.cross_apply c) prep;
    let pre = checked "pre" in
    Helpers.cross_apply c op;
    (pre, checked "post")
  in
  crash_sweep ?crosses
    ?oracle:(if relational then Some oracle else None)
    ~name ~sets
    ~make_engine:(fun () ->
      Engine.create ~dtd:W.Hospital.dtd ~policy hospital_doc)
    ~prep:(fun eng -> List.iter (Helpers.engine_apply eng) prep)
    ~op:(fun eng -> Helpers.engine_apply eng op)
    ()

let test_crash_sweep_annotate ~relational () =
  sweep ~relational ~name:"annotate" ~policy:W.Hospital.policy ~prep:[]
    ~op:Helpers.Annotate ~sets:Engine.accessible ()

let test_crash_sweep_update ~relational () =
  sweep ~relational ~name:"update" ~policy:W.Hospital.policy
    ~prep:[ Helpers.Annotate ] ~op:(Helpers.Update "//patient/treatment")
    ~sets:Engine.accessible ()

let insert_099 =
  Helpers.Insert
    { at = "//patient[psn = \"099\"]"; fragment = treatment_fragment () }

let test_crash_sweep_insert ~relational () =
  sweep ~relational ~name:"insert" ~policy:W.Hospital.policy
    ~prep:[ Helpers.Annotate ] ~op:insert_099 ~sets:Engine.accessible ()

(* Multi-role epochs: a killed [annotate_subjects] epoch must never
   commit a partial bitmap — after recovery the per-role accessible
   sets are extensionally the pre- or the post-annotation
   materialization, never a mix of roles. *)

let roles_policy = Lazy.force Helpers.hospital_roles_policy

let test_crash_sweep_annotate_subjects ~relational () =
  sweep ~relational ~name:"annotate-subjects" ~policy:roles_policy ~prep:[]
    ~op:Helpers.Annotate_subjects ~sets:accessible_subject_sets ()

(* Structural epochs over materialized bitmaps: the mutation repairs
   the role bitmaps over its affected region inside the same epoch, so
   a crash at any point of that repair — each per-node bitmap stamp
   included — must recover the store to the pre- or post-mutation
   state for the anonymous subject and for every role at once. *)

let bitmapped = [ Helpers.Annotate; Helpers.Annotate_subjects ]

let test_crash_sweep_update_bits ~relational () =
  sweep ~crosses:[ "native.set_bits" ] ~relational ~name:"update with bitmaps"
    ~policy:roles_policy ~prep:bitmapped
    ~op:(Helpers.Update "//patient/treatment") ~sets:all_subject_sets ()

let test_crash_sweep_insert_bits ~relational () =
  sweep ~crosses:[ "native.set_bits" ] ~relational ~name:"insert with bitmaps"
    ~policy:roles_policy ~prep:bitmapped ~op:insert_099
    ~sets:all_subject_sets ()

(* The coverage floor: the mutating paths cross named points spanning
   native sign stamping, structural applies, snapshot publication —
   one replication round crosses the transport's
   ship/receive/apply/acknowledge points, and one WAL append its
   append point. *)
let test_fault_point_coverage () =
  Fault.reset ();
  let eng = (hospital_fixture ()) () in
  annotate eng;
  ignore (Engine.update eng "//patient/treatment");
  ignore
    (Engine.insert eng ~at:"//patient[psn = \"099\"]"
       ~fragment:(treatment_fragment ()));
  ignore (Engine.request ~lane:Rewrite.Rewrite eng Engine.Native "//patient");
  (* One shipped epoch drives the replication lane's points. *)
  let cluster =
    Repl.create ~followers:1 ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  (match Repl.update cluster "//patient/treatment" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "coverage cluster update failed");
  ignore (Repl.sync cluster);
  Wal.log (Wal.create ()) "UPDATE";
  let reg = Fault.registered () in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("point crossed: " ^ p) true (List.mem p reg))
    [
      "wal.append";
      "epoch.begin"; "native.set_sign"; "native.delete"; "native.insert";
      "epoch.commit";
      "rewrite.compile";
      "snapshot.publish"; "snapshot.reclaim";
      "repl.ship"; "repl.recv"; "repl.apply"; "repl.ack";
    ];
  Fault.reset ()

(* Coverage enumeration must be deterministic: the registry lists
   names sorted regardless of registration order, so fault-matrix
   sweeps visit points in a stable order across runs. *)
let test_registered_sorted () =
  Fault.reset ();
  List.iter Fault.point [ "t.sort.c"; "t.sort.a"; "t.sort.b" ];
  let reg = Fault.registered () in
  Alcotest.(check (list string)) "listing is sorted"
    (List.sort String.compare reg)
    reg;
  Alcotest.(check (list string)) "insertion order does not leak"
    [ "t.sort.a"; "t.sort.b"; "t.sort.c" ]
    (List.filter (fun p -> String.length p > 6 && String.sub p 0 6 = "t.sort") reg);
  Fault.reset ()

(* A killed rewrite-lane request dies before the store is touched: no
   epoch moves, no sign changes, and — because a
   compile failure says nothing about backend health — the breaker
   never hears about it.  The layer's next call self-heals and serves
   the same request live. *)
let test_rewrite_compile_kill_isolated () =
  Fault.reset ();
  let eng = (hospital_fixture ()) () in
  (* Never annotated: the auto lane routes every request to rewrite. *)
  let layer = Serve.create eng in
  let observe () =
    ( Engine.sign_epoch eng,
      Engine.epoch eng,
      Engine.open_epoch eng,
      accessible_sets eng )
  in
  let before = observe () in
  Fault.arm "rewrite.compile" (Fault.After 1);
  (match Serve.request layer Engine.Native "//patient/name" with
  | Ok _ -> Alcotest.fail "armed rewrite.compile did not fire"
  | Error e ->
      Alcotest.(check string) "dies at the compile site" "rewrite.compile"
        e.Serve.site;
      Alcotest.(check bool) "classified fatal" true
        (e.Serve.class_ = Serve.Fatal));
  let h = Serve.health layer in
  Alcotest.(check int) "breaker never fed: no trips" 0 h.Serve.trips;
  Alcotest.(check bool) "layer still healthy" false h.Serve.degraded;
  (* The next call heals the poisoned registry and answers live,
     through the rewrite lane, over an untouched store. *)
  (match Serve.request layer Engine.Native "//patient/name" with
  | Ok r ->
      Alcotest.(check bool) "served live after heal" true
        (r.Serve.served = Serve.Live)
  | Error e ->
      Alcotest.failf "healed request failed: %s" e.Serve.message);
  Alcotest.(check bool) "store and epochs untouched" true
    (observe () = before);
  Fault.reset ()

(* While an epoch is open (crashed, unrecovered), every mutating entry
   point refuses loudly. *)
let test_open_epoch_guard () =
  Fault.reset ();
  let eng = (hospital_fixture ()) () in
  annotate eng;
  Fault.arm "epoch.commit" (Fault.After 1);
  (match Engine.update eng "//patient/treatment" with
  | _ -> Alcotest.fail "armed commit point did not crash"
  | exception Fault.Crash _ -> ());
  Alcotest.(check bool) "epoch left open" true (Engine.open_epoch eng <> None);
  Fault.recover ();
  (* The process came back but skipped recovery: mutations refuse. *)
  (match Engine.update eng "//nurse" with
  | _ -> Alcotest.fail "mutation allowed over an open epoch"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "points at recover" true
        (Helpers.contains msg "recover"));
  let r = Engine.recover eng in
  Alcotest.(check bool) "rolled forward" true (r.Engine.direction = `Forward);
  let _ = Engine.update eng "//nurse" in
  Alcotest.(check Helpers.int_list) "mutating again after recovery"
    (Policy.accessible_ids (Engine.policy eng) (Engine.document eng))
    (Engine.accessible eng);
  Fault.reset ()

(* A native read while an epoch is open (the writer was killed after
   the native store applied its delete, and recovery has not run yet)
   answers from the last committed epoch, never from the half-applied
   tree. *)
let test_open_epoch_reads_committed () =
  Fault.reset ();
  let eng = (hospital_fixture ()) () in
  annotate eng;
  let q = "//patient/treatment" in
  let committed = Engine.request_direct eng Engine.Native q in
  (* The commit point follows the delete and the sign repair in
     [update]. *)
  Fault.arm "epoch.commit" (Fault.After 1);
  (match Engine.update eng q with
  | _ -> Alcotest.fail "armed commit point did not crash"
  | exception Fault.Crash _ -> ());
  Fault.recover ();
  Alcotest.(check bool) "epoch left open" true (Engine.open_epoch eng <> None);
  Alcotest.(check (list int)) "native tree already lost the treatments" []
    (Helpers.ids (Engine.document eng) q);
  Alcotest.(check bool) "read answers the committed epoch" true
    (Engine.request eng Engine.Native q = committed);
  let _ = Engine.recover eng in
  Alcotest.(check bool) "after recovery, the recovered epoch" true
    (Engine.request eng Engine.Native q
    = Engine.request_direct eng Engine.Native q);
  Alcotest.(check bool) "and it differs from the old one" true
    (Engine.request eng Engine.Native q <> committed);
  Fault.reset ()

(* Recovery is idempotent: once a crash has been resolved, a second
   recover is a pure no-op — no epoch bump, no counter movement.  (The serving layer leans on this: its self-healing path
   may race a caller that already recovered.) *)
let test_recover_idempotent () =
  Fault.reset ();
  let eng = (hospital_fixture ()) () in
  annotate eng;
  Fault.arm "epoch.commit" (Fault.After 1);
  (match Engine.update eng "//patient/treatment" with
  | _ -> Alcotest.fail "armed commit point did not crash"
  | exception Fault.Crash _ -> ());
  let r1 = Engine.recover eng in
  Alcotest.(check bool) "first recovery resolved the epoch" true
    (r1.Engine.recovered_epoch <> None);
  (* The crashed update consumed one epoch number, not two. *)
  Alcotest.(check int) "one epoch counter" (Engine.sign_epoch eng)
    (Engine.epoch eng);
  let m = Engine.metrics eng in
  let observe () =
    ( Engine.sign_epoch eng,
      Engine.epoch eng,
      Metrics.counter m "recovery.runs",
      accessible_sets eng )
  in
  let before = observe () in
  let r2 = Engine.recover eng in
  Alcotest.(check bool) "second recovery reports nothing to do" true
    (r2.Engine.direction = `None
    && r2.Engine.recovered_epoch = None
    && r2.Engine.ids_discarded = 0);
  Alcotest.(check bool) "no observable movement" true (before = observe ());
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* The atomicity property: random document, random policy, random
   update, probabilistic crash schedule (seeded, and mixed with
   XMLAC_FAULT_SEED so the CI matrix exercises distinct schedules).
   After recovery the store is extensionally at the pre- or the
   post-update materialization — never a mix. *)

let random_policy rng doc =
  match Prng.int rng 3 with
  | 0 -> W.Hospital.policy
  | 1 -> W.Coverage.policy_for_target ~doc ~target:0.3
  | _ ->
      Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
        (List.init
           (1 + Prng.int rng 4)
           (fun i ->
             Rule.make
               ~name:(Printf.sprintf "F%d" i)
               ~resource:(Helpers.random_hospital_expr rng)
               (if Prng.bool rng then Rule.Plus else Rule.Minus)))

let atomicity_prop =
  QCheck2.Test.make
    ~name:"crash anywhere, recover -> pre or post materialization, never a mix"
    ~count:30
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, fault_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = random_policy rng doc in
      let update = Helpers.random_update rng in
      let make () = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let eng = make () in
      annotate eng;
      let e0 = Engine.sign_epoch eng in
      Fault.set_seed
        (Int64.logxor fault_seed
           (Option.value (Fault.env_seed ()) ~default:0L));
      Fault.arm_all ~prob:0.02;
      let crashed =
        match Engine.update eng update with
        | _ -> false
        | exception Fault.Crash _ -> true
      in
      if crashed then ignore (Engine.recover eng) else Fault.reset ();
      if Engine.sign_epoch eng < e0 then
        QCheck2.Test.fail_report "sign epoch ran backwards";
      (* Twin oracles, faults disarmed. *)
      let pre_twin = make () in
      annotate pre_twin;
      let post_twin = make () in
      annotate post_twin;
      ignore (Engine.update post_twin update);
      let got = Engine.accessible eng in
      got = Engine.accessible pre_twin || got = Engine.accessible post_twin)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fault"
    [
      ( "registry",
        [
          tc "counted trigger and kill semantics" test_after_trigger;
          tc "probabilistic trigger replayable" test_prob_trigger_replayable;
          tc "registration and hit counts" test_registry_enumeration;
          tc "arm_all" test_arm_all;
          tc "env seed parse" test_env_seed_parse;
        ] );
      ( "wal kill",
        [ tc "append after crash fails loudly" test_wal_log_after_crash_fails_loudly ] );
      ( "crash sweeps",
        [
          tc "annotate epochs" (test_crash_sweep_annotate ~relational:true);
          tc "update epoch" (test_crash_sweep_update ~relational:true);
          tc "insert epoch" (test_crash_sweep_insert ~relational:true);
          tc "multi-role epoch"
            (test_crash_sweep_annotate_subjects ~relational:true);
          tc "annotate epochs, native only"
            (test_crash_sweep_annotate ~relational:false);
          tc "update epoch, native only"
            (test_crash_sweep_update ~relational:false);
          tc "insert epoch, native only"
            (test_crash_sweep_insert ~relational:false);
          tc "multi-role epoch, native only"
            (test_crash_sweep_annotate_subjects ~relational:false);
          tc "update epoch with bitmaps"
            (test_crash_sweep_update_bits ~relational:true);
          tc "insert epoch with bitmaps"
            (test_crash_sweep_insert_bits ~relational:true);
          tc "update epoch with bitmaps, native only"
            (test_crash_sweep_update_bits ~relational:false);
          tc "insert epoch with bitmaps, native only"
            (test_crash_sweep_insert_bits ~relational:false);
          tc "fault point coverage" test_fault_point_coverage;
          tc "registry listing sorted" test_registered_sorted;
          tc "rewrite compile kill isolated" test_rewrite_compile_kill_isolated;
          tc "open epoch guards mutations" test_open_epoch_guard;
          tc "recover is idempotent" test_recover_idempotent;
          tc "open epoch reads the committed epoch"
            test_open_epoch_reads_committed;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest atomicity_prop ] );
    ]
