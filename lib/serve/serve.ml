module Fault = Xmlac_util.Fault
module Deadline = Xmlac_util.Deadline
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
module Tree = Xmlac_xml.Tree
module Engine = Xmlac_core.Engine
module Requester = Xmlac_core.Requester
module Policy = Xmlac_core.Policy
module Subject = Xmlac_core.Subject

type error_class = Transient | Timeout | Corrupt | Fatal

let error_class_to_string = function
  | Transient -> "transient"
  | Timeout -> "timeout"
  | Corrupt -> "corrupt"
  | Fatal -> "fatal"

type error = {
  class_ : error_class;
  site : string;
  attempts : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "%s at %s (attempts %d): %s"
    (error_class_to_string e.class_) e.site e.attempts e.message

type config = {
  deadline_ticks : int option;
  deadline_seconds : float option;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  sleep : float -> unit;
  breaker : Breaker.config;
  queue_capacity : int;
  seed : int64;
}

let default_config =
  {
    deadline_ticks = None;
    deadline_seconds = None;
    max_retries = 2;
    backoff_base_s = 0.005;
    backoff_max_s = 0.1;
    sleep = (fun _ -> ());
    breaker = Breaker.default_config;
    queue_capacity = 16;
    seed = 1L;
  }

module Snapshot = Xmlac_core.Snapshot

type mutation =
  | Update of string
  | Insert of { at : string; fragment : Tree.t }

type mutation_outcome =
  | Applied of (Engine.backend_kind * Xmlac_core.Reannotator.stats) list
  | Recovered
  | Queued of int

type t = {
  eng : Engine.t;
  config : config;
  breaker : Breaker.t;
  rng : Prng.t;
  mutable queue : mutation list;  (* oldest first; bounded, tiny *)
  (* The layer's pinned MVCC snapshot — the engine's versioned view of
     the last epoch this layer saw commit.  While the breaker is open,
     requests are answered deny-by-default from it.  It is only
     trusted while its epoch still equals the engine's committed epoch
     — mutations re-pin on commit and nothing commits while degraded,
     so a mismatch can only mean the engine was mutated behind the
     layer's back; then we deny everything (and count it under
     [Metrics.stale_snapshot_denials]). *)
  mutable snapshot : Snapshot.t;
}

let create ?(config = default_config) eng =
  if config.max_retries < 0 then invalid_arg "Serve.create: max_retries < 0";
  if config.queue_capacity < 0 then
    invalid_arg "Serve.create: queue_capacity < 0";
  {
    eng;
    config;
    breaker =
      Breaker.create ~metrics:(Engine.metrics eng) ~name:"native"
        config.breaker;
    rng = Prng.create ~seed:config.seed;
    queue = [];
    snapshot = Engine.pin_snapshot eng;
  }

let engine t = t.eng
let config t = t.config
let breaker t = t.breaker
let metrics t = Engine.metrics t.eng
let queued t = List.length t.queue
let snapshot t = t.snapshot

let refresh_snapshot t =
  let old = t.snapshot in
  t.snapshot <- Engine.pin_snapshot t.eng;
  (* The unpin may cross the [snapshot.reclaim] fault point.  The
     registry mutates before the point raises, so the reclaim itself
     is already consistent — and the layer's view is already re-pinned
     above.  Contain the fault here: a transient is pure bookkeeping
     noise, and a crash is picked up by [heal] on the next call. *)
  match Engine.unpin_snapshot t.eng old with
  | () -> ()
  | exception (Fault.Transient _ | Fault.Crash _) ->
      Metrics.incr (metrics t) "serve.reclaim_faults"

(* ---------- error classification ---------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let classify = function
  | Fault.Transient site ->
      (Transient, site, "transient fault at " ^ site)
  | Deadline.Expired label -> (Timeout, label, "deadline budget exhausted")
  | Fault.Crash site -> (Fatal, site, "crash at " ^ site)
  | Failure msg
    when contains msg "checksum" || contains msg "torn"
         || contains msg "corrupt" ->
      (Corrupt, "storage", msg)
  | Invalid_argument msg -> (Fatal, "invalid-argument", msg)
  | exn -> (Fatal, "exception", Printexc.to_string exn)

let typed_error ?(attempts = 0) exn =
  let class_, site, message = classify exn in
  { class_; site; attempts; message }

let error_of_exn = typed_error

(* ---------- self-healing ---------- *)

(* Settle whatever a previous call left behind ({!Engine.settle}): if
   it crashed mid-epoch, poisoned the fault registry's kill state or
   interrupted a publish, nothing works until the restart runs, so
   play it before touching the engine.  A restart or a commit past
   [since] moves the engine's current snapshot; the layer's view
   follows it. *)
let settle t ~since =
  let restarted, outcome = Engine.settle t.eng ~since in
  if restarted then Metrics.incr (metrics t) "serve.auto_recoveries";
  if
    (restarted || outcome = Engine.Committed)
    && t.snapshot != Engine.current_snapshot t.eng
  then refresh_snapshot t;
  outcome

let heal t = ignore (settle t ~since:(Engine.sign_epoch t.eng))

(* ---------- requests ---------- *)

type served = Live | Degraded | Pinned

type reply = {
  decision : Requester.decision;
  served : served;
  attempts : int;
}

let backoff config rng n =
  let cap =
    min config.backoff_max_s
      (config.backoff_base_s *. (2.0 ** float_of_int (n - 1)))
  in
  config.sleep (Prng.float rng (max cap 0.0))

(* The one retry loop: attempt [n] runs, and a [Transient] error is
   retried after one jittered pause while [n <= max_retries].  Every
   other outcome — success, a settled epoch, a fatal error — belongs
   to the caller. *)
let rec retry_from config ~rng ~metrics ~counter attempt n =
  match attempt n with
  | Error { class_ = Transient; _ } when n <= config.max_retries ->
      Metrics.incr metrics counter;
      backoff config rng n;
      retry_from config ~rng ~metrics ~counter attempt (n + 1)
  | result -> result

let retry config ~rng ~metrics ~counter attempt =
  retry_from config ~rng ~metrics ~counter attempt 1

let count_error m err =
  Metrics.incr m "serve.errors";
  Metrics.incr m ("serve.errors." ^ error_class_to_string err.class_)

(* Deny-by-default answer from the layer's pinned snapshot.  Sound
   because the snapshot is a frozen committed materialization and
   mutations never commit while degraded; if the epochs disagree
   anyway the snapshot is stale and everything is denied — per role as
   much as for the anonymous subject. *)
let degraded_decision ?subject ?lane t snap query =
  let m = metrics t in
  Metrics.incr m "serve.degraded";
  if Snapshot.epoch snap <> Engine.sign_epoch t.eng then begin
    Metrics.incr m "serve.degraded_stale";
    Metrics.incr m Metrics.stale_snapshot_denials;
    Requester.Denied { blocked = 0 }
  end
  else Snapshot.request ?subject ?lane snap query

let read_failed ~served t err =
  (* A failure while compiling the rewrite lane's plans happens before
     the store is touched, so — like a parse error — it says nothing
     about backend health and must not feed the breaker. *)
  if served = Live && err.site <> "rewrite.compile" then
    Breaker.record t.breaker ~ok:false;
  count_error (metrics t) err;
  Error err

(* The one read path, under the configured deadline with transient
   retries.  [Live] asks the engine and feeds the breaker; [Degraded]
   answers from the layer's snapshot [snap] behind the stale check;
   [Pinned] answers from the caller's [snap] as it is — a pinned read
   cannot block on the writer, and its outcome says nothing about
   backend health. *)
let read ~served ?subject ?lane t snap query =
  let m = metrics t in
  match
    Deadline.with_budget
      ?label:(if served = Live then Some "request.native" else Some "snapshot")
      ?ticks:t.config.deadline_ticks ?seconds:t.config.deadline_seconds
      (fun () ->
        retry t.config ~rng:t.rng ~metrics:m ~counter:"serve.retries"
          (fun n ->
            match
              match served with
              | Live -> Engine.request ?subject ?lane t.eng Engine.Native query
              | Degraded -> degraded_decision ?subject ?lane t snap query
              | Pinned -> Snapshot.request ?subject ?lane snap query
            with
            | decision -> Ok { decision; served; attempts = n }
            | exception exn -> Error (typed_error ~attempts:n exn)))
  with
  | Ok _ as reply ->
      if served = Live then Breaker.record t.breaker ~ok:true;
      reply
  | Error err -> read_failed ~served t err
  (* [with_budget] refuses a negative budget before any attempt. *)
  | exception exn -> read_failed ~served t (typed_error exn)

let snapshot_request ?subject ?lane t snap query =
  Metrics.incr (metrics t) "serve.pinned";
  read ~served:Pinned ?subject ?lane t snap query

let known_role t role = Subject.mem (Policy.subjects (Engine.policy t.eng)) role

(* A caller-side mistake answered without consulting any breaker, like
   a parse error. *)
let refused t ~counter ~site message =
  Metrics.incr (metrics t) counter;
  Error { class_ = Fatal; site; attempts = 0; message }

let request ?subject ?lane t Engine.Native query =
  Metrics.time (metrics t) "serve.request" (fun () ->
      match Requester.parse_or_fail query with
      | exception Invalid_argument msg ->
          refused t ~counter:"serve.parse_errors" ~site:"parse" msg
      | _expr -> (
          (* Checked up front so the degraded path cannot trip over a
             bad role either. *)
          match subject with
          | Some role when not (known_role t role) ->
              refused t ~counter:"serve.unknown_roles" ~site:"subject"
                (Printf.sprintf "unknown role %S" role)
          | _ -> (
              heal t;
              let served =
                match Breaker.admit t.breaker with
                | `Reject -> Degraded
                | `Admit -> Live
              in
              read ~served ?subject ?lane t t.snapshot query)))

(* ---------- mutations ---------- *)

let breaker_open t = Breaker.state t.breaker = Breaker.Open
let record t ~ok = Breaker.record t.breaker ~ok

let enqueue t mu =
  let m = metrics t in
  if List.length t.queue >= t.config.queue_capacity then begin
    Metrics.incr m "serve.queue_rejected";
    Error
      {
        class_ = Transient;
        site = "serve.queue";
        attempts = 0;
        message = "degraded and mutation queue full";
      }
  end
  else begin
    t.queue <- t.queue @ [ mu ];
    Metrics.incr m "serve.queued";
    Ok (Queued (List.length t.queue))
  end

let apply_mutation t = function
  | Update q -> Engine.update t.eng q
  | Insert { at; fragment } -> Engine.insert t.eng ~at ~fragment

let run_mutation t mu =
  let m = metrics t in
  match
    retry t.config ~rng:t.rng ~metrics:m ~counter:"serve.retries" (fun n ->
        (* A retried attempt may follow a fault that poisoned the
           registry; clear it before applying again. *)
        heal t;
        let since = Engine.sign_epoch t.eng in
        match
          Deadline.with_budget ~label:"mutation"
            ?ticks:t.config.deadline_ticks ?seconds:t.config.deadline_seconds
            (fun () -> apply_mutation t mu)
        with
        | stats ->
            record t ~ok:true;
            refresh_snapshot t;
            Ok (Applied stats)
        | exception exn -> (
            let err = typed_error ~attempts:n exn in
            match settle t ~since with
            | Engine.Committed ->
                (* Rolled forward, or the fault came after the commit:
                   the mutation is durable, and retrying would apply it
                   twice. *)
                Metrics.incr m "serve.recovered_mutations";
                record t ~ok:false;
                Ok Recovered
            | Engine.Aborted | Engine.Untouched -> Error err))
  with
  | Ok _ as outcome -> outcome
  | Error err ->
      record t ~ok:false;
      count_error m err;
      Error err

let mutate t mu =
  Metrics.time (metrics t) "serve.mutate" (fun () ->
      heal t;
      if breaker_open t then enqueue t mu else run_mutation t mu)

let update t q = mutate t (Update q)
let insert t ~at ~fragment = mutate t (Insert { at; fragment })

let drain t =
  heal t;
  let rec go acc =
    if breaker_open t then List.rev acc
    else
      match t.queue with
      | [] -> List.rev acc
      | mu :: rest ->
          t.queue <- rest;
          let r = run_mutation t mu in
          go ((mu, r) :: acc)
  in
  go []

(* ---------- health ---------- *)

type health = {
  breaker : Breaker.state;
  trips : int;
  open_epoch : int option;
  queued_mutations : int;
  snapshot_epoch : int;
  committed_epoch : int;
  degraded : bool;
  stale_snapshot_denials : int;
  pinned_snapshots : int;
}

let health (t : t) =
  let state = Breaker.state t.breaker in
  {
    breaker = state;
    trips = Breaker.trips t.breaker;
    open_epoch = Engine.open_epoch t.eng;
    queued_mutations = List.length t.queue;
    snapshot_epoch = Snapshot.epoch t.snapshot;
    committed_epoch = Engine.sign_epoch t.eng;
    degraded = state <> Breaker.Closed;
    stale_snapshot_denials =
      Metrics.counter (metrics t) Metrics.stale_snapshot_denials;
    pinned_snapshots = Snapshot.live (Engine.snapshots t.eng);
  }

let healthy h =
  (not h.degraded) && h.open_epoch = None && h.queued_mutations = 0

let pp_health ppf h =
  Format.fprintf ppf "breaker native     %s@."
    (Breaker.state_to_string h.breaker);
  Format.fprintf ppf "trips       %d@." h.trips;
  Format.fprintf ppf "open epoch  %s@."
    (match h.open_epoch with None -> "none" | Some e -> string_of_int e);
  Format.fprintf ppf "queued      %d@." h.queued_mutations;
  Format.fprintf ppf "snapshot    epoch %d (committed %d)@." h.snapshot_epoch
    h.committed_epoch;
  Format.fprintf ppf "snapshots   %d live, %d stale denial%s@."
    h.pinned_snapshots h.stale_snapshot_denials
    (if h.stale_snapshot_denials = 1 then "" else "s");
  Format.fprintf ppf "status      %s@."
    (if healthy h then "healthy"
     else if h.degraded then "degraded"
     else "recovering")
