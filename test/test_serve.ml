(* The resilient serving layer: deadline budgets, the recoverable
   (transient) half of the fault registry, the circuit-breaker state
   machine, retry/timeout/degradation behavior of Serve, the
   fail-closed property under seeded recoverable-fault schedules, and
   the deterministic chaos soak the CI job replays. *)

open Xmlac_core
module S = Xmlac_serve.Serve
module B = Xmlac_serve.Breaker
module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Deadline = Xmlac_util.Deadline
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module W = Xmlac_workload

(* ------------------------------------------------------------------ *)
(* Deadline budgets. *)

let test_deadline_budget () =
  Alcotest.(check bool) "no ambient budget" false (Deadline.active ());
  Deadline.checkpoint ();
  (* no budget: checkpoints are no-ops *)
  let r = Deadline.with_budget (fun () -> Deadline.active ()) in
  Alcotest.(check bool) "no ticks, no seconds: no budget installed" false r;
  let ran = ref 0 in
  (match
     Deadline.with_budget ~label:"unit" ~ticks:3 (fun () ->
         for _ = 1 to 10 do
           Deadline.checkpoint ();
           incr ran
         done)
   with
  | () -> Alcotest.fail "budget of 3 ticks survived 10 checkpoints"
  | exception Deadline.Expired label ->
      Alcotest.(check string) "label carried" "unit" label);
  Alcotest.(check int) "expired on the fourth crossing" 3 !ran;
  Alcotest.(check bool) "budget uninstalled after escape" false
    (Deadline.active ());
  (* nesting: the inner budget shadows, the outer is restored *)
  Deadline.with_budget ~ticks:100 (fun () ->
      Deadline.with_budget ~ticks:5 (fun () ->
          Alcotest.(check (option int)) "inner budget" (Some 5)
            (Deadline.remaining_ticks ()));
      Alcotest.(check (option int)) "outer restored" (Some 100)
        (Deadline.remaining_ticks ()))

(* ------------------------------------------------------------------ *)
(* The recoverable half of the fault registry. *)

let test_transient_registry () =
  Fault.reset ();
  Fault.arm_transient "s.t" (Fault.After 2);
  Fault.point "s.t";
  (match Fault.point "s.t" with
  | () -> Alcotest.fail "armed transient did not fire"
  | exception Fault.Transient site ->
      Alcotest.(check string) "site carried" "s.t" site);
  Alcotest.(check bool) "transient does not kill" false (Fault.killed ());
  (* counted transients are one-shot: the retry goes through *)
  Fault.point "s.t";
  Alcotest.(check int) "fires counted" 1 (Fault.transient_fires ());
  Fault.arm_all_transient ~prob:1.0;
  (match Fault.point "s.any" with
  | () -> Alcotest.fail "arm_all_transient 1.0 did not fire"
  | exception Fault.Transient _ -> ());
  Fault.disarm_all ();
  Fault.point "s.any";
  Fault.reset ();
  Alcotest.(check int) "reset zeroes the fire count" 0
    (Fault.transient_fires ())

(* ------------------------------------------------------------------ *)
(* The breaker state machine, in isolation. *)

let test_breaker_machine () =
  let m = Metrics.create () in
  let br =
    B.create ~metrics:m ~name:"unit"
      { B.window = 4; min_calls = 2; threshold = 0.5; cooldown = 2;
        probes = 2 }
  in
  Alcotest.(check bool) "starts closed" true (B.state br = B.Closed);
  B.record br ~ok:false;
  Alcotest.(check bool) "one failure under min_calls: still closed" true
    (B.state br = B.Closed);
  B.record br ~ok:false;
  Alcotest.(check bool) "error rate over threshold: open" true
    (B.state br = B.Open);
  Alcotest.(check int) "trip counted" 1 (B.trips br);
  (* open: [cooldown] rejections, then the next call probes *)
  Alcotest.(check bool) "rejected 1" true (B.admit br = `Reject);
  Alcotest.(check bool) "rejected 2" true (B.admit br = `Reject);
  Alcotest.(check bool) "cooldown over: probe admitted" true
    (B.admit br = `Admit);
  Alcotest.(check bool) "half-open" true (B.state br = B.Half_open);
  B.record br ~ok:true;
  Alcotest.(check bool) "one probe success: not closed yet" true
    (B.state br = B.Half_open);
  Alcotest.(check bool) "second probe admitted" true (B.admit br = `Admit);
  B.record br ~ok:true;
  Alcotest.(check bool) "probes done: closed" true (B.state br = B.Closed);
  (* a fresh window: the old failures are forgotten *)
  B.record br ~ok:false;
  B.record br ~ok:false;
  Alcotest.(check bool) "re-trips" true (B.state br = B.Open);
  ignore (B.admit br);
  ignore (B.admit br);
  ignore (B.admit br);
  B.record br ~ok:false;
  Alcotest.(check bool) "probe failure re-opens" true (B.state br = B.Open);
  Alcotest.(check int) "three trips" 3 (B.trips br);
  Alcotest.(check int) "metrics mirror trips" 3
    (Metrics.counter m "breaker.unit.trips");
  Alcotest.(check int) "metrics mirror closes" 1
    (Metrics.counter m "breaker.unit.closes");
  Alcotest.(check int) "metrics mirror rejections" 4
    (Metrics.counter m "breaker.unit.rejected")

(* ------------------------------------------------------------------ *)
(* Serve fixtures. *)

let make_engine =
  let doc = lazy (W.Hospital.sample_document ()) in
  fun () ->
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (Lazy.force doc)

let annotated_engine () =
  let eng = make_engine () in
  ignore (Engine.annotate eng);
  eng

(* The store's accessible set equals the policy's on its document. *)
let check_reference msg eng =
  Alcotest.(check (list int)) msg
    (Policy.accessible_ids (Engine.policy eng) (Engine.document eng))
    (Engine.accessible eng)

let treatment_fragment () =
  let frag = Tree.create ~root_name:"treatment" in
  let reg = Tree.add_child frag (Tree.root frag) "regular" in
  ignore (Tree.add_child frag reg ~value:"aspirin" "med");
  ignore (Tree.add_child frag reg ~value:"120" "bill");
  frag

let tight_breaker =
  { B.window = 4; min_calls = 2; threshold = 0.5; cooldown = 3; probes = 1 }

let granted = function
  | Ok { S.decision = Requester.Granted _; _ } -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The live request path: retries, timeouts, parse errors. *)

let test_request_retry () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  let m = Engine.metrics (S.engine serve) in
  Fault.arm_transient "native.eval" (Fault.After 1);
  (match S.request serve Engine.Native "//patient/name" with
  | Ok r ->
      Alcotest.(check bool) "served live" true (r.S.served = S.Live);
      Alcotest.(check int) "one retry behind the reply" 2 r.S.attempts;
      Alcotest.(check bool) "granted" true
        (Requester.is_granted r.S.decision)
  | Error e -> Alcotest.failf "retry did not recover: %s" e.S.message);
  Alcotest.(check int) "retry counted" 1 (Metrics.counter m "serve.retries");
  Alcotest.(check bool) "breaker unharmed" true
    (B.state (S.breaker serve) = B.Closed);
  Fault.reset ()

let test_request_retry_exhaustion () =
  Fault.reset ();
  let config = { S.default_config with S.max_retries = 0 } in
  let serve = S.create ~config (annotated_engine ()) in
  Fault.arm_transient "native.eval" (Fault.After 1);
  (match S.request serve Engine.Native "//nurse" with
  | Ok _ -> Alcotest.fail "no retries budgeted, yet the fault was absorbed"
  | Error e ->
      Alcotest.(check bool) "typed transient" true (e.S.class_ = S.Transient);
      Alcotest.(check string) "site names the fault point" "native.eval"
        e.S.site;
      Alcotest.(check int) "single attempt" 1 e.S.attempts);
  Fault.reset ()

let test_request_timeout () =
  Fault.reset ();
  let config = { S.default_config with S.deadline_ticks = Some 1 } in
  let serve = S.create ~config (annotated_engine ()) in
  (match S.request serve Engine.Native "//patient/name" with
  | Ok _ -> Alcotest.fail "a one-tick budget granted a multi-node query"
  | Error e ->
      Alcotest.(check bool) "classified as timeout" true
        (e.S.class_ = S.Timeout);
      Alcotest.(check string) "site names the budget" "request.native"
        e.S.site);
  Alcotest.(check int) "timeout errors counted" 1
    (Metrics.counter (Engine.metrics (S.engine serve)) "serve.errors.timeout");
  (* budgets are per-call: an unbudgeted engine call afterwards works *)
  Alcotest.(check bool) "budget uninstalled" false (Deadline.active ());
  Fault.reset ()

let test_parse_error_skips_breaker () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  (match S.request serve Engine.Native "//patient[" with
  | Ok _ -> Alcotest.fail "malformed query granted"
  | Error e ->
      Alcotest.(check bool) "fatal" true (e.S.class_ = S.Fatal);
      Alcotest.(check string) "site" "parse" e.S.site;
      Alcotest.(check int) "never reached the engine" 0 e.S.attempts);
  (* a parse error says nothing about backend health *)
  Alcotest.(check int) "breaker untouched" 0
    (B.trips (S.breaker serve));
  Alcotest.(check int) "counted apart" 1
    (Metrics.counter (Engine.metrics (S.engine serve)) "serve.parse_errors")

(* ------------------------------------------------------------------ *)
(* The pinned read path: retries and timeouts through snapshot_request,
   none of which may feed the breaker. *)

(* Any outcome recorded against this breaker trips it: the window
   already holds one failure, and a second outcome reaches [min_calls]
   at a failure rate of at least one half. *)
let primed_breaker =
  { B.window = 2; min_calls = 2; threshold = 0.5; cooldown = 3; probes = 1 }

let pinned_read config query =
  Fault.reset ();
  let serve =
    S.create ~config:{ config with S.breaker = primed_breaker }
      (annotated_engine ())
  in
  B.record (S.breaker serve) ~ok:false;
  let snap = Engine.pin_snapshot (S.engine serve) in
  Fault.arm_transient "snapshot.read" (Fault.After 1);
  let r = S.snapshot_request serve snap query in
  Fault.reset ();
  Alcotest.(check int) "the breaker recorded nothing" 0
    (B.trips (S.breaker serve));
  (r, Engine.metrics (S.engine serve))

let test_pinned_retry () =
  let r, m = pinned_read S.default_config "//patient/name" in
  (match r with
  | Ok r ->
      Alcotest.(check bool) "served pinned" true (r.S.served = S.Pinned);
      Alcotest.(check int) "one retry behind the reply" 2 r.S.attempts
  | Error e -> Alcotest.failf "retry did not recover: %s" e.S.message);
  Alcotest.(check int) "retry counted" 1 (Metrics.counter m "serve.retries")

let test_pinned_retry_exhaustion () =
  let r, _ =
    pinned_read { S.default_config with S.max_retries = 0 } "//patient/name"
  in
  match r with
  | Ok _ -> Alcotest.fail "no retries budgeted, yet the fault was absorbed"
  | Error e ->
      Alcotest.(check bool) "typed transient" true (e.S.class_ = S.Transient);
      Alcotest.(check string) "site names the fault point" "snapshot.read"
        e.S.site;
      Alcotest.(check int) "single attempt" 1 e.S.attempts

let test_pinned_timeout () =
  let r, _ =
    pinned_read
      { S.default_config with S.deadline_ticks = Some 1 }
      "//patient/name"
  in
  match r with
  | Ok _ -> Alcotest.fail "a one-tick budget granted a multi-node query"
  | Error e ->
      Alcotest.(check bool) "classified as timeout" true
        (e.S.class_ = S.Timeout);
      Alcotest.(check string) "site names the budget" "snapshot" e.S.site

(* ------------------------------------------------------------------ *)
(* Degradation: trip the native breaker, serve from the snapshot. *)

(* Errors enough requests to trip the breaker under [tight_breaker]
   (min_calls failures), using distinct queries so the decision cache
   cannot short-circuit the armed eval point. *)
let trip serve queries =
  List.iter
    (fun q ->
      Fault.arm_transient "native.eval" (Fault.After 1);
      match S.request serve Engine.Native q with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "request %s survived its armed fault" q)
    queries;
  Alcotest.(check bool) "breaker tripped" true
    (B.state (S.breaker serve) = B.Open)

let test_degraded_fail_closed () =
  Fault.reset ();
  let config =
    { S.default_config with S.max_retries = 0; breaker = tight_breaker }
  in
  let eng = annotated_engine () in
  let serve = S.create ~config eng in
  let q_granted = "//patient/name" and q_denied = "//patient/treatment" in
  let live_granted = Engine.request eng Engine.Native q_granted in
  Alcotest.(check bool) "fixture grants the control query" true
    (Requester.is_granted live_granted);
  Alcotest.(check bool) "fixture denies the other control query" false
    (Requester.is_granted (Engine.request eng Engine.Native q_denied));
  trip serve [ "//nurse"; "//doctor" ];
  (* degraded answers come from the snapshot and agree with the
     committed materialization *)
  (match S.request serve Engine.Native q_granted with
  | Ok r ->
      Alcotest.(check bool) "served degraded" true (r.S.served = S.Degraded);
      Alcotest.(check bool) "snapshot agrees with the live decision" true
        (r.S.decision = live_granted)
  | Error e -> Alcotest.failf "degraded request errored: %s" e.S.message);
  (match S.request serve Engine.Native q_denied with
  | Ok r ->
      Alcotest.(check bool) "denied stays denied degraded" false
        (Requester.is_granted r.S.decision)
  | Error e -> Alcotest.failf "degraded request errored: %s" e.S.message);
  (* mutate the engine behind the layer's back: the snapshot is now
     stale and degradation denies everything — fail closed *)
  ignore (Engine.update eng "//patient/treatment");
  (match S.request serve Engine.Native q_granted with
  | Ok r ->
      Alcotest.(check bool) "stale snapshot: blanket denial" false
        (Requester.is_granted r.S.decision)
  | Error e -> Alcotest.failf "stale degraded request errored: %s" e.S.message);
  Alcotest.(check bool) "stale denials counted" true
    (Metrics.counter (Engine.metrics eng) "serve.degraded_stale" >= 1);
  Fault.reset ()

(* [serve.degraded] counts degraded requests: a degraded read whose
   snapshot miss hits one transient and succeeds on the retry is one
   request, answered after two attempts. *)
let test_degraded_counted_once () =
  Fault.reset ();
  let config = { S.default_config with S.breaker = tight_breaker } in
  let serve = S.create ~config (annotated_engine ()) in
  let m = Engine.metrics (S.engine serve) in
  for _ = 1 to tight_breaker.B.min_calls do
    B.record (S.breaker serve) ~ok:false
  done;
  Alcotest.(check bool) "breaker tripped" true
    (B.state (S.breaker serve) = B.Open);
  let before = Metrics.counter m "serve.degraded" in
  Fault.arm_transient "snapshot.read" (Fault.After 1);
  (match S.request serve Engine.Native "//nurse" with
  | Ok r ->
      Alcotest.(check bool) "served degraded" true (r.S.served = S.Degraded);
      Alcotest.(check int) "one retry behind the reply" 2 r.S.attempts
  | Error e -> Alcotest.failf "degraded request errored: %s" e.S.message);
  Fault.reset ();
  Alcotest.(check int) "counted once" 1
    (Metrics.counter m "serve.degraded" - before)

let test_degraded_recovers_liveness () =
  Fault.reset ();
  let config =
    { S.default_config with S.max_retries = 0; breaker = tight_breaker }
  in
  let serve = S.create ~config (annotated_engine ()) in
  trip serve [ "//nurse"; "//doctor" ];
  (* faults stop; within cooldown + probes calls the breaker re-closes *)
  let budget = tight_breaker.B.cooldown + tight_breaker.B.probes in
  let closed = ref false in
  for _ = 1 to budget do
    if not !closed then begin
      ignore (S.request serve Engine.Native "//patient/name");
      closed := B.state (S.breaker serve) = B.Closed
    end
  done;
  Alcotest.(check bool) "re-closed within cooldown + probes" true !closed;
  Alcotest.(check bool) "live again" true
    (granted (S.request serve Engine.Native "//patient/name"))

(* ------------------------------------------------------------------ *)
(* Mutations: queueing while degraded, drain, mid-epoch recovery. *)

let test_queue_and_drain () =
  Fault.reset ();
  let config =
    {
      S.default_config with
      S.max_retries = 0;
      breaker = tight_breaker;
      queue_capacity = 2;
    }
  in
  let serve = S.create ~config (annotated_engine ()) in
  trip serve [ "//nurse"; "//doctor" ];
  (match S.update serve "//patient/treatment" with
  | Ok (S.Queued 1) -> ()
  | _ -> Alcotest.fail "first degraded mutation did not queue");
  (match
     S.insert serve ~at:"//patient[psn = \"099\"]"
       ~fragment:(treatment_fragment ())
   with
  | Ok (S.Queued 2) -> ()
  | _ -> Alcotest.fail "second degraded mutation did not queue");
  (match S.update serve "//nurse" with
  | Error e ->
      Alcotest.(check bool) "queue overflow is transient" true
        (e.S.class_ = S.Transient);
      Alcotest.(check string) "names the queue" "serve.queue" e.S.site
  | Ok _ -> Alcotest.fail "overflow mutation accepted");
  Alcotest.(check int) "two held" 2 (S.queued serve);
  Alcotest.(check (list (pair string string))) "drain refuses while degraded"
    []
    (List.map (fun _ -> ("", "")) (S.drain serve));
  (* close the breaker, then drain *)
  for _ = 1 to tight_breaker.B.cooldown + tight_breaker.B.probes do
    ignore (S.request serve Engine.Native "//patient/name")
  done;
  Alcotest.(check bool) "closed again" true
    (B.state (S.breaker serve) = B.Closed);
  let drained = S.drain serve in
  Alcotest.(check int) "both replayed" 2 (List.length drained);
  List.iter
    (fun (_, r) ->
      match r with
      | Ok (S.Applied _) -> ()
      | Ok (S.Recovered) -> Alcotest.fail "drain should run fault-free here"
      | Ok (S.Queued _) -> Alcotest.fail "drain re-queued"
      | Error e -> Alcotest.failf "drained mutation failed: %s" e.S.message)
    drained;
  Alcotest.(check int) "queue empty" 0 (S.queued serve);
  check_reference "signs match the policy after replay" (S.engine serve);
  Alcotest.(check bool) "healthy again" true (S.healthy (S.health serve))

let test_mutation_recovered_forward () =
  Fault.reset ();
  let eng = annotated_engine () in
  let serve = S.create eng in
  (* the twin receives the same mutation fault-free *)
  let twin = annotated_engine () in
  ignore (Engine.update twin "//patient/treatment");
  Fault.arm_transient "epoch.commit" (Fault.After 1);
  (match S.update serve "//patient/treatment" with
  | Ok S.Recovered -> ()
  | Ok _ -> Alcotest.fail "mid-epoch fault should surface as Recovered"
  | Error e -> Alcotest.failf "mutation not recovered: %s" e.S.message);
  Alcotest.(check bool) "no epoch left open" true
    (Engine.open_epoch eng = None);
  Alcotest.(check (list int)) "rolled forward to the post state"
    (Engine.accessible twin) (Engine.accessible eng);
  (* the snapshot followed the commit: a degraded answer would agree *)
  Alcotest.(check int) "snapshot refreshed" (Engine.sign_epoch eng)
    (S.health serve).S.snapshot_epoch;
  Fault.reset ()

let test_mutation_retry_before_epoch () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  (* fire just before the epoch opens: nothing to recover, so the
     layer retries and applies cleanly *)
  Fault.arm_transient "epoch.begin" (Fault.After 1);
  (match S.update serve "//patient/treatment" with
  | Ok (S.Applied _) -> ()
  | Ok _ -> Alcotest.fail "pre-epoch fault should be retried to Applied"
  | Error e -> Alcotest.failf "retry did not recover: %s" e.S.message);
  Alcotest.(check int) "one retry" 1
    (Metrics.counter (Engine.metrics (S.engine serve)) "serve.retries");
  check_reference "signs match the policy" (S.engine serve);
  Alcotest.(check bool) "healthy" true (S.healthy (S.health serve));
  Fault.reset ()

(* A transient at the publish point lands after the commit: the
   mutation is durable but the engine's current snapshot still shows
   the previous epoch.  The next call must republish before answering
   live, or it would grant from the stale epoch. *)
let test_publish_fault_heals_snapshot () =
  Fault.reset ();
  let eng = annotated_engine () in
  let serve = S.create eng in
  let q = "//patient" in
  Alcotest.(check bool) "fixture denies the patients" false
    (granted (S.request serve Engine.Native q));
  Fault.arm_transient "snapshot.publish" (Fault.After 1);
  (match S.update serve "//patient/treatment" with
  | Ok S.Recovered -> ()
  | Ok _ -> Alcotest.fail "post-commit fault should surface as Recovered"
  | Error e -> Alcotest.failf "mutation failed: %s" e.S.message);
  (match S.request serve Engine.Native q with
  | Ok r ->
      Alcotest.(check bool) "served live" true (r.S.served = S.Live);
      Alcotest.(check bool) "answers the committed epoch" true
        (r.S.decision = Engine.request_direct eng Engine.Native q)
  | Error e -> Alcotest.failf "request failed: %s" e.S.message);
  Alcotest.(check (option int)) "current snapshot caught up"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch (Engine.snapshots eng));
  Alcotest.(check bool) "healthy" true (S.healthy (S.health serve));
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* The fail-closed property (qcheck): under any seeded schedule of
   recoverable faults, every grant the serving layer hands out is the
   fault-free decision — spurious denials and typed errors are
   allowed, wrong grants never. *)

let queries_pool =
  [|
    "//patient/name"; "//nurse"; "//doctor"; "//patient/treatment";
    "//treatment//bill"; "//patient[.//experimental]"; "//ward"; "//med";
  |]

let mutations_pool () =
  [|
    S.Update "//patient/treatment";
    S.Update "//treatment/regular";
    S.Insert { at = "//patient"; fragment = treatment_fragment () };
    S.Update "//nurse";
    S.Insert
      { at = "//patient[psn = \"099\"]"; fragment = treatment_fragment () };
  |]

(* One interleaved run against a fault-free twin.  Returns the number
   of wrong grants (must be 0).  The twin receives exactly the
   mutations the layer reported committed, in commit order, with the
   registry disarmed around every twin call. *)
let run_against_twin ~serve ~twin ~rng ~rate ~steps =
  let mutations = mutations_pool () in
  let wrong = ref 0 in
  let sync mu =
    Fault.disarm_all ();
    match mu with
    | S.Update q -> ignore (Engine.update twin q)
    | S.Insert { at; fragment } -> ignore (Engine.insert twin ~at ~fragment)
  in
  let committed = function
    | Ok (S.Applied _) | Ok S.Recovered -> true
    | Ok (S.Queued _) | Error _ -> false
  in
  for step = 1 to steps do
    Fault.set_seed (Int64.of_int (1789 * step));
    Fault.arm_all_transient ~prob:rate;
    if step mod 5 = 0 then begin
      let mu = Prng.choose rng mutations in
      if committed (S.mutate serve mu) then sync mu
    end
    else begin
      let q = Prng.choose rng queries_pool in
      match S.request serve Engine.Native q with
      | Ok { S.decision = Requester.Granted ids; _ } ->
          Fault.disarm_all ();
          (match Engine.request twin Engine.Native q with
          | Requester.Granted ids' when ids' = ids -> ()
          | _ -> incr wrong)
      | Ok { S.decision = Requester.Denied _; _ } | Error _ -> ()
    end
  done;
  Fault.disarm_all ();
  List.iter (fun (mu, r) -> if committed r then sync mu) (S.drain serve);
  !wrong

let fail_closed_prop =
  QCheck2.Test.make
    ~name:
      "recoverable faults anywhere: grants match the fault-free twin, \
       denials and errors are the only degradation"
    ~count:15 Helpers.seed_gen
    (fun seed ->
      Fault.reset ();
      let rng = Prng.create ~seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = W.Hospital.policy in
      let make () = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      let eng = make () in
      ignore (Engine.annotate eng);
      let twin = make () in
      ignore (Engine.annotate twin);
      let config =
        { S.default_config with S.max_retries = 1; breaker = tight_breaker }
      in
      let serve = S.create ~config eng in
      let wrong = run_against_twin ~serve ~twin ~rng ~rate:0.08 ~steps:40 in
      Fault.reset ();
      if wrong > 0 then
        QCheck2.Test.fail_reportf "%d wrong grants under faults" wrong;
      Engine.accessible eng = Engine.accessible twin)

(* ------------------------------------------------------------------ *)
(* The deterministic chaos soak the CI job replays: interleaved
   requests, mutations and recoveries at fault rate 0.05, then a quiet
   phase asserting liveness — the breaker re-closes within cooldown +
   probes calls once the faults stop — and final agreement with the
   fault-free twin. *)

let soak_breaker =
  { B.window = 8; min_calls = 4; threshold = 0.5; cooldown = 4; probes = 2 }

let test_soak () =
  Fault.reset ();
  let seed =
    Option.value (Fault.env_seed ()) ~default:20090101L
  in
  let rng = Prng.create ~seed in
  let doc = W.Hospital.sample_document () in
  let make () =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy doc
  in
  let eng = make () in
  ignore (Engine.annotate eng);
  let twin = make () in
  ignore (Engine.annotate twin);
  let config =
    { S.default_config with S.max_retries = 1; breaker = soak_breaker }
  in
  let serve = S.create ~config eng in
  let wrong = run_against_twin ~serve ~twin ~rng ~rate:0.05 ~steps:200 in
  Alcotest.(check int) "no wrong grants" 0 wrong;
  Alcotest.(check bool) "the schedule exercised faults" true
    (Fault.transient_fires () > 0);
  (* quiet phase: liveness *)
  Fault.disarm_all ();
  let budget = soak_breaker.B.cooldown + soak_breaker.B.probes in
  let br = S.breaker serve in
  let i = ref 0 in
  while B.state br <> B.Closed && !i < budget do
    ignore (S.request serve Engine.Native (Prng.choose rng queries_pool));
    incr i
  done;
  Alcotest.(check bool) "breaker re-closes" true (B.state br = B.Closed);
  (* drain whatever the quiet phase can replay, then compare *)
  Fault.disarm_all ();
  List.iter
    (fun (mu, r) ->
      match (mu, r) with
      | mu, (Ok (S.Applied _) | Ok S.Recovered) -> (
          Fault.disarm_all ();
          match mu with
          | S.Update q -> ignore (Engine.update twin q)
          | S.Insert { at; fragment } ->
              ignore (Engine.insert twin ~at ~fragment))
      | _ -> ())
    (S.drain serve);
  Alcotest.(check (list int)) "accessible set matches the fault-free twin"
    (Engine.accessible twin) (Engine.accessible eng);
  Alcotest.(check bool) "healthy at the end" true
    (S.healthy (S.health serve));
  Fault.reset ()

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "serve"
    [
      ( "deadline",
        [ tc "cooperative tick budgets nest and expire" test_deadline_budget ] );
      ( "transient faults",
        [ tc "one-shot and probabilistic transients" test_transient_registry ] );
      ( "breaker",
        [ tc "closed -> open -> half-open -> closed" test_breaker_machine ] );
      ( "requests",
        [
          tc "transient retried behind one reply" test_request_retry;
          tc "retry budget exhausts to a typed error"
            test_request_retry_exhaustion;
          tc "deadline expiry is a typed timeout" test_request_timeout;
          tc "parse errors bypass the breaker" test_parse_error_skips_breaker;
        ] );
      ( "pinned reads",
        [
          tc "transient retried behind one pinned reply" test_pinned_retry;
          tc "retry budget exhausts to a typed error"
            test_pinned_retry_exhaustion;
          tc "deadline expiry is a typed timeout" test_pinned_timeout;
        ] );
      ( "degradation",
        [
          tc "fail-closed snapshot answers" test_degraded_fail_closed;
          tc "breaker re-closes after faults stop"
            test_degraded_recovers_liveness;
          tc "a degraded request counts once" test_degraded_counted_once;
        ] );
      ( "mutations",
        [
          tc "queue while degraded, drain when healthy" test_queue_and_drain;
          tc "mid-epoch fault recovers forward" test_mutation_recovered_forward;
          tc "pre-epoch fault heals and retries" test_mutation_retry_before_epoch;
          tc "post-commit publish fault heals the snapshot"
            test_publish_fault_heals_snapshot;
        ] );
      ( "properties", [ QCheck_alcotest.to_alcotest fail_closed_prop ] );
      ( "soak", [ tc "deterministic chaos soak" test_soak ] );
    ]
