module Fault = Xmlac_util.Fault
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
module Engine = Xmlac_core.Engine
module Requester = Xmlac_core.Requester
module Serve = Xmlac_serve.Serve

type role = Leader | Follower | Deposed

let role_to_string = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Deposed -> "deposed"

type config = {
  lag_threshold : int;
  max_retries : int;
  max_reship : int;
  backoff_base_s : float;
  backoff_max_s : float;
  sleep : float -> unit;
  seed : int64;
  drop_p : float;
  dup_p : float;
  reorder_p : float;
  torn_p : float;
  serve : Serve.config;
}

let default_config =
  {
    lag_threshold = 1;
    max_retries = 3;
    max_reship = 8;
    backoff_base_s = 0.005;
    backoff_max_s = 0.1;
    sleep = (fun _ -> ());
    seed = 1L;
    drop_p = 0.0;
    dup_p = 0.0;
    reorder_p = 0.0;
    torn_p = 0.0;
    serve = Serve.default_config;
  }

type node = {
  id : int;
  eng : Engine.t;
  serve : Serve.t;
  mutable role : role;
  mutable applied : int;  (* stream epochs applied through *)
  mutable shipped : int;  (* leader-side send cursor for this node *)
  mutable shipped_high : int;  (* highest epoch ever sent (re-ship detector) *)
  mutable state_sum : int32;  (* digest at last successful apply *)
  mutable diverged : bool;
  mutable reships : int;  (* re-ship requests since last progress *)
  mutable inflight : (int * int) option;
      (* (stream epoch being applied, local sign_epoch before) — what a
         post-kill restart needs to tell pre-epoch from post-epoch. *)
  inbox : Frame.t Queue.t;
  mutable partitioned : bool;
}

type t = {
  config : config;
  metrics : Metrics.t;
  rng : Prng.t;
  frames : (int, Frame.t) Hashtbl.t;  (* the stream, by epoch *)
  mutable committed : int;  (* highest framed stream epoch *)
  nodes : node list;  (* node 0 first; fixed membership *)
  mutable leader_id : int;
  mutable leader_alive : bool;
}

let create ?(config = default_config) ?(followers = 2) ~dtd ~policy doc =
  if followers < 0 then invalid_arg "Replicate.create: followers < 0";
  if config.lag_threshold < 0 then
    invalid_arg "Replicate.create: lag_threshold < 0";
  let mk id =
    let eng = Engine.create ~dtd ~policy doc in
    let role = if id = 0 then Leader else Follower in
    if role = Follower then Engine.set_read_only eng true;
    {
      id;
      eng;
      serve = Serve.create ~config:config.serve eng;
      role;
      applied = 0;
      shipped = 0;
      shipped_high = 0;
      state_sum = Engine.state_checksum eng;
      diverged = false;
      reships = 0;
      inflight = None;
      inbox = Queue.create ();
      partitioned = false;
    }
  in
  {
    config;
    metrics = Metrics.create ();
    rng = Prng.create ~seed:config.seed;
    frames = Hashtbl.create 64;
    committed = 0;
    nodes = List.init (followers + 1) mk;
    leader_id = 0;
    leader_alive = true;
  }

let metrics t = t.metrics
let committed t = t.committed
let leader_alive t = t.leader_alive
let nodes t = List.map (fun n -> n.id) t.nodes

let node t id =
  match List.find_opt (fun n -> n.id = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Replicate: unknown node %d" id)

let engine t id = (node t id).eng
let leader t = node t t.leader_id
let leader_engine t = (leader t).eng
let followers t = List.filter (fun n -> n.role = Follower) t.nodes
let node_role t id = (node t id).role
let applied t id = (node t id).applied
let lag t id = max 0 (t.committed - (node t id).applied)
let diverged t id = (node t id).diverged
let set_partitioned t id flag = (node t id).partitioned <- flag

(* ---------- leader side: framing and shipping ---------- *)

let backoff t n =
  Serve.backoff ~sleep:t.config.sleep ~base_s:t.config.backoff_base_s
    ~max_s:t.config.backoff_max_s t.rng n

(* What an interrupted leader op or frame apply became, settled by the
   node's engine ({!Engine.settle}); a restart counts per node. *)
let settle t eng ~since =
  let restarted, outcome = Engine.settle eng ~since in
  if restarted then Metrics.incr t.metrics "repl.node_restarts";
  outcome

let frame_committed t op =
  let ld = leader t in
  let epoch = t.committed + 1 in
  let f = Frame.make ~epoch ~state_sum:(Engine.state_checksum ld.eng) op in
  Hashtbl.replace t.frames epoch f;
  t.committed <- epoch;
  ld.applied <- epoch;
  ld.state_sum <- Frame.state_sum f;
  Serve.refresh_snapshot ld.serve;
  Metrics.incr t.metrics "repl.framed";
  if op = Engine.Op_noop then Metrics.incr t.metrics "repl.noops"

let run_leader_op eng = function
  | Engine.Op_noop -> invalid_arg "Replicate.apply: Op_noop"
  | Engine.Op_annotate -> ignore (Engine.annotate eng)
  | Engine.Op_annotate_subjects -> ignore (Engine.annotate_subjects eng)
  | Engine.Op_update q -> ignore (Engine.update eng q)
  | Engine.Op_insert { at; fragment } ->
      ignore (Engine.insert eng ~at ~fragment)

let dead_leader_error =
  {
    Serve.class_ = Serve.Fatal;
    site = "repl.leader";
    attempts = 0;
    message = "leader is dead (kill_leader); promote a follower";
  }

let apply t op =
  if not t.leader_alive then Error dead_leader_error
  else begin
    let eng = leader_engine t in
    let rec go n =
      (* As in [Serve], an attempt first settles what an earlier call
         left behind: a kill that the serving view's re-pin contained
         must not fail this op. *)
      ignore (settle t eng ~since:(Engine.sign_epoch eng));
      let since = Engine.sign_epoch eng in
      match run_leader_op eng op with
      | () ->
          frame_committed t op;
          Ok ()
      | exception exn -> (
          let err = Serve.error_of_exn ~attempts:n exn in
          let retry () =
            if err.Serve.class_ = Serve.Transient && n <= t.config.max_retries
            then begin
              Metrics.incr t.metrics "repl.retries";
              backoff t n;
              go (n + 1)
            end
            else begin
              Metrics.incr t.metrics "repl.errors";
              Error err
            end
          in
          match settle t eng ~since with
          | Engine.Committed ->
              frame_committed t op;
              Ok ()
          | Engine.Aborted ->
              (* The epoch's number is consumed: replicas must consume
                 it too. *)
              frame_committed t Engine.Op_noop;
              retry ()
          | Engine.Untouched -> retry ())
    in
    go 1
  end

let update t q = apply t (Engine.Op_update q)
let insert t ~at ~fragment = apply t (Engine.Op_insert { at; fragment })
let annotate_all t = apply t Engine.Op_annotate
let annotate_subjects_all t = apply t Engine.Op_annotate_subjects

(* The chaos transport: per-frame drop / duplicate / reorder /
   torn-frame draws from the seeded generator, plus an explicit
   partition switch per node.  Every effect is counted. *)
let transport_send t n f =
  if n.partitioned then Metrics.incr t.metrics "repl.dropped"
  else begin
    let f =
      if Prng.bernoulli t.rng t.config.torn_p then begin
        Metrics.incr t.metrics "repl.torn";
        Frame.tear f
      end
      else f
    in
    if Prng.bernoulli t.rng t.config.drop_p then
      Metrics.incr t.metrics "repl.dropped"
    else begin
      Queue.push f n.inbox;
      if Prng.bernoulli t.rng t.config.dup_p then begin
        Metrics.incr t.metrics "repl.duplicated";
        Queue.push f n.inbox
      end;
      if Queue.length n.inbox >= 2 && Prng.bernoulli t.rng t.config.reorder_p
      then begin
        Metrics.incr t.metrics "repl.reordered";
        (* Swap the two newest in-flight frames. *)
        let all = List.of_seq (Queue.to_seq n.inbox) in
        Queue.clear n.inbox;
        let rec requeue = function
          | [ a; b ] ->
              Queue.push b n.inbox;
              Queue.push a n.inbox
          | x :: rest ->
              Queue.push x n.inbox;
              requeue rest
          | [] -> ()
        in
        requeue all
      end
    end
  end

let ship t =
  if t.leader_alive then
    List.iter
      (fun n ->
        if n.role = Follower then begin
          for e = n.shipped + 1 to t.committed do
            (* A transient at the ship point is a lost send: the frame
               never leaves the leader, and the follower's gap request
               re-ships it later.  A crash is a leader kill and
               escapes. *)
            match Fault.point "repl.ship" with
            | () ->
                let f = Hashtbl.find t.frames e in
                Metrics.incr t.metrics "repl.shipped";
                if e <= n.shipped_high then
                  Metrics.incr t.metrics "repl.reshipped"
                else n.shipped_high <- e;
                transport_send t n f
            | exception Fault.Transient _ ->
                Metrics.incr t.metrics "repl.ship_faults"
          done;
          n.shipped <- max n.shipped t.committed
        end)
      t.nodes

(* ---------- follower side: receive, apply, ack ---------- *)

(* A follower that cannot make progress from what it holds asks the
   leader to rewind its send cursor to the applied position — bounded
   per node, with jittered backoff, and counted. *)
let request_reship t n =
  if n.reships < t.config.max_reship then begin
    n.reships <- n.reships + 1;
    Metrics.incr t.metrics "repl.gap_requests";
    backoff t n.reships;
    n.shipped <- n.applied
  end
  else Metrics.incr t.metrics "repl.reship_exhausted"

let mark_diverged t n =
  if not n.diverged then begin
    n.diverged <- true;
    Metrics.incr t.metrics "repl.divergences"
  end

(* Bookkeeping once frame [f] is known durable on [n]: digest check
   against the leader's shipped state sum, cursor advance, ack. *)
let finish_applied ?(ack = true) t n f =
  if Engine.state_checksum n.eng = Frame.state_sum f then
    Metrics.incr t.metrics "repl.digest_verified"
  else mark_diverged t n;
  n.applied <- Frame.epoch f;
  n.state_sum <- Frame.state_sum f;
  n.inflight <- None;
  n.reships <- 0;
  Serve.refresh_snapshot n.serve;
  Metrics.incr t.metrics "repl.applied";
  if ack then begin
    (* The epoch is already durable locally; a transient here only
       loses the (in-process) acknowledgement bookkeeping.  A crash is
       a follower kill after apply — [inflight] is clear, so the
       restart finds a fully-applied node. *)
    match Fault.point "repl.ack" with
    | () -> Metrics.incr t.metrics "repl.acked"
    | exception Fault.Transient _ -> Metrics.incr t.metrics "repl.ack_faults"
  end

let apply_frame t n f =
  match Frame.op f with
  | Error _ ->
      Metrics.incr t.metrics "repl.rejected";
      request_reship t n
  | Ok op ->
      let rec attempt k =
        let since = Engine.sign_epoch n.eng in
        n.inflight <- Some (Frame.epoch f, since);
        match Engine.apply_replica n.eng op with
        | () -> finish_applied t n f
        | exception (Fault.Crash _ as exn) ->
            (* The node is killed mid-apply: leave [inflight] for
               [heal] to resolve after the simulated restart.  Until
               then every read on this node fails closed. *)
            raise exn
        | exception exn -> (
            let err = Serve.error_of_exn ~attempts:k exn in
            match settle t n.eng ~since with
            | Engine.Committed -> finish_applied t n f
            | Engine.Aborted | Engine.Untouched
              when err.Serve.class_ = Serve.Transient
                   && k <= t.config.max_retries ->
                Metrics.incr t.metrics "repl.retries";
                backoff t k;
                attempt (k + 1)
            | Engine.Aborted | Engine.Untouched ->
                Metrics.incr t.metrics "repl.rejected";
                n.inflight <- None;
                request_reship t n)
      in
      attempt 1

let deliver t n =
  (* Drain the inbox into the reorder-tolerant stash, integrity-checked
     and dedup'd, then apply whatever became contiguous. *)
  let pending = Hashtbl.create 8 in
  while not (Queue.is_empty n.inbox) do
    let f = Queue.pop n.inbox in
    (* A transient at the receive point loses the popped frame — the
       wire ate it; re-ship covers.  A crash is a follower kill and
       escapes. *)
    match Fault.point "repl.recv" with
    | exception Fault.Transient _ -> Metrics.incr t.metrics "repl.recv_faults"
    | () ->
        Metrics.incr t.metrics "repl.received";
        if not (Frame.intact f) then begin
          Metrics.incr t.metrics "repl.rejected";
          request_reship t n
        end
        else begin
          let e = Frame.epoch f in
          if e <= n.applied || Hashtbl.mem pending e then
            Metrics.incr t.metrics "repl.dups_dropped"
          else Hashtbl.replace pending e f
        end
  done;
  let rec drain () =
    match Hashtbl.find_opt pending (n.applied + 1) with
    | Some f ->
        Hashtbl.remove pending (Frame.epoch f);
        apply_frame t n f;
        drain ()
    | None -> ()
  in
  drain ();
  (* Anything still stashed arrived ahead of a hole; anything missing
     entirely is a gap.  Both resolve the same way: re-ship from the
     applied position. *)
  if n.applied < t.committed && not n.partitioned then request_reship t n

(* ---------- restarts ---------- *)

(* The kill flag is process-global, so healing the cluster's first
   node clears it for everyone; a later node's crash can then only be
   seen in its own residue — an epoch left open, a snapshot behind its
   commit, or an [inflight] marker a completed apply would have
   cleared.  The engine settles the first two; the marker names the
   frame whose fate the outcome decides. *)
let heal_node t n =
  let since =
    match n.inflight with
    | Some (_, e0) -> e0
    | None -> Engine.sign_epoch n.eng
  in
  let restarted, outcome = Engine.settle n.eng ~since in
  if restarted || n.inflight <> None then
    Metrics.incr t.metrics "repl.node_restarts";
  match n.inflight with
  | None -> ()
  | Some (se, _) -> (
      n.inflight <- None;
      match (outcome, Hashtbl.find_opt t.frames se) with
      | Engine.Committed, Some f -> finish_applied ~ack:false t n f
      | Engine.Committed, None ->
          (* The stream was truncated under us (promotion of a shorter
             tail): this node holds an epoch the new leader never
             committed. *)
          mark_diverged t n
      | (Engine.Aborted | Engine.Untouched), _ ->
          (* Rolled back, or never opened: pre-epoch state, the frame
             will be re-shipped. *)
          request_reship t n)

let heal t =
  List.iter
    (fun n ->
      if n.role <> Deposed && (t.leader_alive || n.id <> t.leader_id) then
        heal_node t n)
    t.nodes

(* ---------- pump / sync ---------- *)

let pump t =
  heal t;
  ship t;
  List.iter (deliver t) (followers t)

let in_sync t n =
  n.role <> Follower || n.diverged || n.partitioned || n.applied >= t.committed

let converged t = List.for_all (in_sync t) t.nodes

let sync ?(rounds = 64) t =
  let rec go r =
    heal t;
    if converged t then true
    else if r <= 0 then false
    else begin
      (try pump t with Fault.Crash _ -> ());
      go (r - 1)
    end
  in
  go rounds

(* ---------- reads ---------- *)

let fail_closed t =
  Metrics.incr t.metrics Metrics.repl_stale_denials;
  Ok
    {
      Serve.decision = Requester.Denied { blocked = 0 };
      served = Serve.Degraded;
      attempts = 0;
    }

let dead_node_error id =
  {
    Serve.class_ = Serve.Fatal;
    site = "repl.node";
    attempts = 0;
    message = Printf.sprintf "node %d is not serving (dead or deposed)" id;
  }

let serving t n =
  match n.role with
  | Leader -> t.leader_alive
  | Follower -> (not n.diverged) && lag t n.id <= t.config.lag_threshold
  | Deposed -> false

let read ?subject ?lane t ~node:id query =
  let n = node t id in
  match n.role with
  | Deposed -> Error (dead_node_error id)
  | Leader when not t.leader_alive -> Error (dead_node_error id)
  | Leader ->
      Serve.snapshot_request ?subject ?lane n.serve
        (Engine.current_snapshot n.eng) query
  | Follower ->
      if serving t n then
        Serve.snapshot_request ?subject ?lane n.serve
          (Engine.current_snapshot n.eng) query
      else fail_closed t

(* Lag-aware routing: the least-lagged serving follower wins; a live
   leader is the fallback; otherwise fail closed rather than guess. *)
let route ?subject ?lane t query =
  let candidates = List.filter (serving t) (followers t) in
  let best =
    List.fold_left
      (fun acc n ->
        match acc with
        | None -> Some n
        | Some m -> if lag t n.id < lag t m.id then Some n else acc)
      None candidates
  in
  match best with
  | Some n -> (n.id, read ?subject ?lane t ~node:n.id query)
  | None ->
      if t.leader_alive then
        (t.leader_id, read ?subject ?lane t ~node:t.leader_id query)
      else (-1, fail_closed t)

(* ---------- failover ---------- *)

let kill_leader t = t.leader_alive <- false

type promotion = { node : int; epoch : int; state_sum : int32 }

let promote t id =
  let n = node t id in
  if t.leader_alive then Error "leader is alive; refusing promotion"
  else if n.role <> Follower then
    Error (Printf.sprintf "node %d is not a follower" id)
  else begin
    (* The candidate may have been killed mid-apply: run the restart
       protocol first so promotion never sees a half-applied epoch. *)
    heal_node t n;
    let sum = Engine.state_checksum n.eng in
    if n.diverged then
      Error
        (Printf.sprintf "node %d diverged from the leader's digest chain" id)
    else if sum <> n.state_sum then
      Error
        (Printf.sprintf
           "node %d state digest %ld does not match its last verified epoch \
            digest %ld"
           id sum n.state_sum)
    else begin
      (* Followers ahead of the new leader hold epochs it never saw;
         they cannot be rewound, so they fail closed until rebuilt. *)
      List.iter
        (fun m ->
          if m.role = Follower && m.id <> id && m.applied > n.applied then
            mark_diverged t m)
        t.nodes;
      (leader t).role <- Deposed;
      n.role <- Leader;
      Engine.set_read_only n.eng false;
      t.leader_id <- id;
      t.leader_alive <- true;
      (* Truncate the stream to the promoted tail and rewind the send
         cursors so surviving followers resume from the new leader. *)
      for e = n.applied + 1 to t.committed do
        Hashtbl.remove t.frames e
      done;
      t.committed <- n.applied;
      List.iter
        (fun m ->
          if m.role = Follower then begin
            m.shipped <- min m.shipped m.applied;
            m.reships <- 0
          end)
        t.nodes;
      Metrics.incr t.metrics "repl.promotions";
      Ok { node = id; epoch = n.applied; state_sum = sum }
    end
  end

(* ---------- observability ---------- *)

type node_status = {
  id : int;
  role : role;
  applied_epoch : int;
  node_lag : int;
  node_diverged : bool;
  node_serving : bool;
}

let status t =
  List.map
    (fun (n : node) ->
      {
        id = n.id;
        role = n.role;
        applied_epoch = n.applied;
        node_lag = lag t n.id;
        node_diverged = n.diverged;
        node_serving = serving t n;
      })
    t.nodes

let counter_names =
  [
    "repl.framed"; "repl.shipped"; "repl.reshipped"; "repl.received";
    "repl.applied";
    "repl.acked"; "repl.rejected"; "repl.dropped"; "repl.duplicated";
    "repl.reordered"; "repl.torn"; "repl.dups_dropped"; "repl.gap_requests";
    "repl.retries"; "repl.node_restarts"; "repl.divergences";
    "repl.digest_verified"; "repl.noops"; "repl.promotions";
    "repl.ship_faults"; "repl.recv_faults"; "repl.ack_faults";
    "repl.reship_exhausted"; "repl.errors"; Metrics.repl_stale_denials;
  ]

let pp_status ppf t =
  List.iter
    (fun s ->
      Format.fprintf ppf "node %d  %-9s applied %d  lag %d%s%s@." s.id
        (role_to_string s.role) s.applied_epoch s.node_lag
        (if s.node_diverged then "  DIVERGED" else "")
        (if s.node_serving then "  serving" else "  not-serving"))
    (status t);
  List.iter
    (fun name ->
      let v = Metrics.counter t.metrics name in
      if v > 0 then Format.fprintf ppf "%-22s %d@." name v)
    counter_names
