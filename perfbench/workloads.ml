(* The three workloads.  Each runs the engine as users get it — the
   defaults of [Engine.create], [Serve.default_config] and
   [Replicate.default_config] — in a closed loop: a client sends its
   next operation only once the previous one returned.  Every answer is
   compared with an oracle outside the timed region.

   session-reads  one client driving pinned [Session]s (anonymous and
                  three roles) with Zipf draws from ~2k distinct
                  queries; bitmaps materialised, no writer.  Only the
                  snapshot read path works.
   role-churn     one client against one [Serve] engine with a 16-role
                  policy and bitmaps: each cycle commits one mutation,
                  then sends a batch of live reads (anonymous and four
                  roles).  Every mutation re-runs the shared bitmap pass
                  on all three stores.
   replica-churn  a leader and one follower with a sign-only policy and
                  no bitmaps: each cycle commits one leader mutation,
                  syncs, then routes a batch of reads to the follower.
                  State digests and the follower's re-apply dominate. *)

module Tree = Xmlac_xml.Tree
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module Wal = Xmlac_reldb.Wal
module Serve = Xmlac_serve.Serve
module Session = Xmlac_serve.Session
module Replicate = Xmlac_replicate.Replicate
open Xmlac_core

type config = { seed : int64; seconds : float; traced : bool }

let pool_queries = 2000

(* Zipf exponents of the query draws, chosen so each workload's hit
   ratio stays well away from one half and the median read sits in one
   mode.  Session reads: ~3/4 of reads hit the 256-entry snapshot memo,
   so the median read is a hit and the 99th percentile a miss.  Churn
   batches: the caches start empty each epoch and under 1/10 of a
   batch's reads repeat a key, so the median read is a miss from the
   middle of the miss-cost distribution, where it is densest. *)
let session_zipf_s = 1.4
let churn_zipf_s = 0.8

(* Reads sent after each committed mutation: at most this many
   distinct (subject, query) keys, which fit the engine's 256-entry
   decision cache. *)
let batch = 192

let failures_shown = ref 0

let fail_note fmt =
  Printf.ksprintf
    (fun s ->
      if !failures_shown < 5 then prerr_endline ("perfbench: failure: " ^ s);
      incr failures_shown)
    fmt

(* --- set-up ------------------------------------------------------------ *)

let setup_repeats = 3
let phase_names = [ "generate"; "create"; "annotate"; "annotate_subjects"; "sync" ]

(* Times one named set-up phase. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

(* Sets the workload up [setup_repeats] times and keeps the last
   state.  [build] times its phases through the [timer] it is given;
   each metric is the median over the repeats, at the reference speed
   (see [Meter]). *)
let set_up build =
  let last = ref None and totals = ref [] in
  let per_phase = Hashtbl.create 8 in
  for _ = 1 to setup_repeats do
    last := None;
    Gc.compact ();
    let phase name f =
      let v, i = Meter.measure f in
      let prev = Option.value ~default:[] (Hashtbl.find_opt per_phase name) in
      Hashtbl.replace per_phase name (i.Meter.at_ref :: prev);
      v
    in
    let st, i = Meter.measure (fun () -> build { time = phase }) in
    totals := i.Meter.at_ref :: !totals;
    last := Some st
  done;
  let median l =
    match List.sort compare l with [] -> 0.0 | l -> List.nth l (List.length l / 2)
  in
  let s name l = Meter.metric ~n:setup_repeats name "s" (Meter.s_of_ns (median l)) in
  let metrics =
    s "setup_s" !totals
    :: List.map
         (fun ph ->
           s ("setup." ^ ph ^ "_s") (Option.value ~default:[] (Hashtbl.find_opt per_phase ph)))
         phase_names
  in
  (Option.get !last, metrics)

(* --- per-phase accounting ---------------------------------------------- *)

type acc = {
  reads : Meter.hist;  (* times at the reference speed *)
  mutations : Meter.hist;
  lags : Meter.hist;
  mutable attempted : int;
  mutable rss_mb : float;  (* peak RSS after the first [rss_after] operations *)
  mutable failed : int;
  mutable lookups : int;
  mutable read_words : float;
  mutable mutation_words : float;
  mutable affected : int;
  mutable affected_pos : int;
  mutable stats_seen : int;  (* mutations whose re-annotation stats were seen *)
  mutable triggered : int;
  mutable changed : int;
  mutable plans : int;
  mutable wal_records : int;
  mutable wal_bytes : int;
  mutable cam_touched : int;
  mutable incr_ns : int;
  mutable incr_calls : int;
}

let acc () =
  {
    reads = Meter.hist ();
    mutations = Meter.hist ();
    lags = Meter.hist ();
    attempted = 0;
    rss_mb = 0.0;
    failed = 0;
    lookups = 0;
    read_words = 0.0;
    mutation_words = 0.0;
    affected = 0;
    affected_pos = 0;
    stats_seen = 0;
    triggered = 0;
    changed = 0;
    plans = 0;
    wal_records = 0;
    wal_bytes = 0;
    cam_touched = 0;
    incr_ns = 0;
    incr_calls = 0;
  }

(* Peak RSS is read once a phase has attempted this many operations,
   so it covers set-up plus a fixed amount of work however fast the
   program runs: role-churn's store grows with every mutation, and a
   faster program would otherwise report more memory.  About six
   seconds of session reads; 16 churn cycles. *)
let session_rss_after = 100_000
let churn_rss_after = 16 * (1 + batch)

(* Counts one attempted operation. *)
let attempt a ~rss_after =
  a.attempted <- a.attempted + 1;
  if a.attempted = rss_after then a.rss_mb <- Meter.peak_rss_mb ()

(* One timed end-to-end call: its time into [into], minor-heap words
   into [words]; a traced run also records the call as a root span. *)
let timed tr ~op name into words f =
  let w0 = Gc.minor_words () in
  let v, i = Meter.measure f in
  Meter.add into i.Meter.at_ref;
  words (Gc.minor_words () -. w0);
  (match tr with
  | Some tr -> Meter.add_span tr ~op ~parent:"" name i.Meter.start (int_of_float i.Meter.at_ref)
  | None -> ());
  v

(* An oracle decision computed on the live engine, outside the timed
   calls. *)
let oracle ?subject eng query = Engine.request_direct ?subject eng Engine.Native query

(* A read's reply against its oracle decision. *)
let check_reply a ~expect ~served what = function
  | Ok (r : Serve.reply) ->
      if r.Serve.served <> served then begin
        a.failed <- a.failed + 1;
        fail_note "%s: reply not served as expected" what
      end
      else if r.Serve.decision <> expect then begin
        a.failed <- a.failed + 1;
        fail_note "%s: decision disagrees with the oracle" what
      end
  | Error e ->
      a.failed <- a.failed + 1;
      fail_note "%s: %s" what (Format.asprintf "%a" Serve.pp_error e)

(* The traced run's read split, checked against the end-to-end
   decision. *)
let split_check a tr ~op ~policy cams view ?subject query ~expect =
  let d, lookups = Layers.split_read tr ~op ~policy cams view ?subject query in
  a.lookups <- a.lookups + lookups;
  if d <> expect then begin
    a.failed <- a.failed + 1;
    fail_note "%s: layer split disagrees with the end-to-end decision" query
  end

(* Times one [Metrics.incr] on the engine's registry, amortised over a
   small batch so the clock read does not dominate. *)
let probe_incr a metrics =
  let k = 32 in
  let (), i =
    Meter.measure (fun () ->
        for _ = 1 to k do
          Metrics.incr metrics "perfbench.incr_probe"
        done)
  in
  a.incr_ns <- a.incr_ns + int_of_float i.Meter.at_ref;
  a.incr_calls <- a.incr_calls + k

let wal_totals eng =
  List.fold_left
    (fun (r, b) k ->
      match Engine.wal eng k with
      | Some w -> (r + Wal.records w, b + Wal.bytes_logged w)
      | None -> (r, b))
    (0, 0) Engine.all_backend_kinds

(* The traced mutation split: WAL deltas of the committed epoch, then
   the replay on the mirror, whose native stats must match the
   engine's when the engine reported them.  Returns the mirror's. *)
let record_mutation a tr ~op mirror mu ~wal_before ~wal_after ~engine_stats =
  a.wal_records <- a.wal_records + (fst wal_after - fst wal_before);
  a.wal_bytes <- a.wal_bytes + (snd wal_after - snd wal_before);
  let s, plans, touched = Layers.replay tr ~op mirror mu in
  a.plans <- a.plans + plans;
  a.cam_touched <- a.cam_touched + touched;
  (match engine_stats with
  | Some (e : Reannotator.stats)
    when e.Reannotator.affected <> s.Reannotator.affected
         || List.length e.Reannotator.changed <> List.length s.Reannotator.changed ->
      a.failed <- a.failed + 1;
      fail_note "mirror replay diverged from the engine"
  | _ -> ());
  s

let count_stats a (s : Reannotator.stats) =
  a.stats_seen <- a.stats_seen + 1;
  a.affected <- a.affected + s.Reannotator.affected;
  if s.Reannotator.affected > 0 then a.affected_pos <- a.affected_pos + 1;
  a.triggered <- a.triggered + List.length s.Reannotator.triggered;
  a.changed <- a.changed + List.length s.Reannotator.changed

(* Steady state: the document stays within +-10 % of its set-up size. *)
let check_size a ~base doc =
  let n = Tree.size doc in
  if abs (n - base) * 10 > base then begin
    a.failed <- a.failed + 1;
    fail_note "document drifted from %d to %d nodes" base n
  end

(* Retired-but-pinned snapshots may not grow over the run: every pin
   the run takes is released by its end.  (A serving layer inside
   [Replicate] keeps its load-time pin, so the check is against the
   count after set-up, not against zero.) *)
let leak_check engines =
  let retired () =
    List.fold_left (fun s e -> s + Snapshot.retired (Engine.snapshots e)) 0 engines
  in
  let base = retired () in
  fun () ->
    let n = retired () - base in
    if n > 0 then fail_note "%d retired snapshots still pinned" n;
    if n > 0 then 1 else 0

(* --- what a workload hands the reporter ---------------------------------- *)

type run = {
  setup : Meter.metric list;
  phase : deadline:int64 -> Meter.trace option -> acc;
      (* Runs the closed loop until [deadline]. *)
  counter : string -> int;  (* exact library counters, summed *)
  read_cache : string;  (* counter prefix of the cache in front of reads *)
  finish : unit -> int;  (* end-of-run leak check; failures found *)
  doc_nodes : int;
  queries : int;
  subjects : string;
}

(* --- session-reads ------------------------------------------------------- *)

let session_roles = [ "r1"; "r6"; "r11" ]

(* The set-up of the two workloads that run one [Serve] engine under
   the 16-role policy with every bitmap materialised. *)
let serve_setup { time } =
  let doc, policy, queries =
    time "generate" (fun () ->
        let doc = Inputs.document () in
        (doc, Inputs.role_policy doc, Inputs.query_pool ~n:pool_queries))
  in
  let eng, serve =
    time "create" (fun () ->
        let eng = Engine.create ~dtd:Inputs.dtd ~policy doc in
        (eng, Serve.create eng))
  in
  time "annotate" (fun () -> ignore (Engine.annotate_all eng));
  time "annotate_subjects" (fun () ->
      ignore (Engine.annotate_subjects_all eng);
      (* The annotations bypassed the serving layer: re-pin its view so
         it does not hold the load-time epoch. *)
      Serve.refresh_snapshot serve);
  (doc, eng, serve, queries)

let session_reads cfg =
  let (doc, eng, serve, queries), setup = set_up serve_setup in
  let subjects = Array.of_list (None :: List.map Option.some session_roles) in
  (* The oracle: [request_direct] per (subject, query) at the pinned
     epoch — there is no writer, so it holds for the whole run. *)
  let oracle =
    Array.map
      (fun subject ->
        Array.map (fun q -> Engine.request_direct ?subject eng Engine.Native q) queries)
      subjects
  in
  let z = Inputs.zipf ~s:session_zipf_s (Array.length queries) in
  let sessions = Array.map (fun subject -> Session.open_ ?subject serve) subjects in
  let policy = Engine.policy eng and metrics = Engine.metrics eng in
  let phase_no = ref 0 in
  let phase ~deadline tr =
    incr phase_no;
    let a = acc () in
    let rng = Prng.create ~seed:(Int64.add cfg.seed (Int64.of_int (1000 * !phase_no))) in
    let next_query = Inputs.zipf_draws ~deck:1024 z rng
    and next_subject = Inputs.even_draws (Array.length subjects) rng in
    let cams = Layers.role_cams () in
    let view = Layers.snapshot_view (Session.snapshot sessions.(0)) in
    let i = ref 0 in
    while Meter.now () < deadline do
      let s = next_subject () and qi = next_query () in
      let subject = subjects.(s) and query = queries.(qi) in
      let op = !i in
      incr i;
      let reply =
        timed tr ~op "read" a.reads
          (fun w -> a.read_words <- a.read_words +. w)
          (fun () -> Session.request sessions.(s) query)
      in
      attempt a ~rss_after:session_rss_after;
      let expect = oracle.(s).(qi) in
      check_reply a ~expect ~served:Serve.Pinned query reply;
      match tr with
      | Some tr ->
          split_check a tr ~op ~policy cams view ?subject query ~expect;
          if !i land 255 = 0 then probe_incr a metrics
      | None -> ()
    done;
    a
  in
  let leaks = leak_check [ eng ] in
  let finish () =
    Array.iter Session.close sessions;
    leaks ()
  in
  {
    setup;
    phase;
    counter = Metrics.counter metrics;
    read_cache = "snapshot.cache";
    finish;
    doc_nodes = Tree.size doc;
    queries = Array.length queries;
    subjects = "anonymous+" ^ String.concat "," session_roles;
  }

(* --- the churn workloads ------------------------------------------------- *)

let apply_serve serve = function
  | Inputs.Insert { at; fragment } -> Serve.insert serve ~at ~fragment
  | Inputs.Delete q -> Serve.update serve q

let churn_roles = [ "r0"; "r5"; "r10"; "r15" ]

let role_churn cfg =
  let (doc, eng, serve, queries), setup = set_up serve_setup in
  let base = Tree.size (Engine.document eng) in
  let next = Inputs.stream ~seed:cfg.seed doc in
  let subjects = Array.of_list (None :: List.map Option.some churn_roles) in
  let z = Inputs.zipf ~s:churn_zipf_s (Array.length queries) in
  let rng = Prng.create ~seed:(Int64.add cfg.seed 2000L) in
  let next_query = Inputs.zipf_draws ~deck:batch z rng
  and next_subject = Inputs.even_draws (Array.length subjects) rng in
  let policy = Engine.policy eng and metrics = Engine.metrics eng in
  let mirror = lazy (Layers.mirror eng doc ~bitmaps:true) in
  let op = ref 0 in
  let phase ~deadline tr =
    let a = acc () in
    let mirror = Option.map (fun _ -> Lazy.force mirror) tr in
    let cams = Layers.role_cams () in
    while Meter.now () < deadline do
      incr op;
      let mu = next () in
      let wal_before = wal_totals eng in
      let res =
        timed tr ~op:!op "mutation" a.mutations
          (fun w -> a.mutation_words <- a.mutation_words +. w)
          (fun () -> apply_serve serve mu)
      in
      attempt a ~rss_after:churn_rss_after;
      let stats =
        match res with
        | Ok (Serve.Applied l) ->
            let s = List.assoc Engine.Native l in
            count_stats a s;
            Some s
        | Ok _ ->
            a.failed <- a.failed + 1;
            fail_note "mutation was not applied on the live path";
            None
        | Error e ->
            a.failed <- a.failed + 1;
            fail_note "mutation: %s" (Format.asprintf "%a" Serve.pp_error e);
            None
      in
      check_size a ~base (Engine.document eng);
      (match (tr, mirror) with
      | Some tr, Some m ->
          ignore
            (record_mutation a tr ~op:!op m mu ~wal_before ~wal_after:(wal_totals eng)
               ~engine_stats:stats)
      | _ -> ());
      for _ = 1 to batch do
        incr op;
          let subject = subjects.(next_subject ()) in
        let query = queries.(next_query ()) in
        let reply =
          timed tr ~op:!op "read" a.reads
            (fun w -> a.read_words <- a.read_words +. w)
            (fun () -> Serve.request ?subject serve Engine.Native query)
        in
        attempt a ~rss_after:churn_rss_after;
        let expect = oracle ?subject eng query in
        check_reply a ~expect ~served:Serve.Live query reply;
        match tr with
        | Some tr ->
            split_check a tr ~op:!op ~policy cams (Layers.engine_view eng) ?subject query
              ~expect;
            if !op land 255 = 0 then probe_incr a metrics
        | None -> ()
      done
    done;
    a
  in
  let finish = leak_check [ eng ] in
  {
    setup;
    phase;
    counter = Metrics.counter metrics;
    read_cache = "cache";
    finish;
    doc_nodes = Tree.size doc;
    queries = Array.length queries;
    subjects = "anonymous+" ^ String.concat "," churn_roles;
  }

let apply_replicate r = function
  | Inputs.Insert { at; fragment } -> Replicate.insert r ~at ~fragment
  | Inputs.Delete q -> Replicate.update r q

let follower = 1

let replica_churn cfg =
  let st, setup =
    set_up (fun { time } ->
        let doc, policy, queries =
          time "generate" (fun () ->
              let doc = Inputs.document () in
              (doc, Inputs.sign_policy doc, Inputs.query_pool ~n:pool_queries))
        in
        let r =
          time "create" (fun () ->
              Replicate.create ~followers:1 ~dtd:Inputs.dtd ~policy doc)
        in
        time "annotate" (fun () ->
            match Replicate.annotate_all r with
            | Ok () -> ()
            | Error e -> failwith (Format.asprintf "annotate_all: %a" Serve.pp_error e));
        time "sync" (fun () ->
            if not (Replicate.sync r) then failwith "initial sync did not converge");
        (doc, r, queries))
  in
  let doc, r, queries = st in
  let leader = Replicate.leader_engine r and fol = Replicate.engine r follower in
  let base = Tree.size (Engine.document leader) in
  let next = Inputs.stream ~seed:cfg.seed doc in
  let z = Inputs.zipf ~s:churn_zipf_s (Array.length queries) in
  let next_query =
    Inputs.zipf_draws ~deck:batch z (Prng.create ~seed:(Int64.add cfg.seed 3000L))
  in
  let policy = Engine.policy leader in
  let mirror = lazy (Layers.mirror leader doc ~bitmaps:false) in
  let op = ref 0 in
  let phase ~deadline tr =
    let a = acc () in
    let mirror = Option.map (fun _ -> Lazy.force mirror) tr in
    let cams = Layers.role_cams () in
    while Meter.now () < deadline do
      incr op;
      let mu = next () in
      let wal_before = wal_totals leader in
      let res =
        timed tr ~op:!op "mutation" a.mutations
          (fun w -> a.mutation_words <- a.mutation_words +. w)
          (fun () -> apply_replicate r mu)
      in
      attempt a ~rss_after:churn_rss_after;
      (match res with
      | Ok () -> ()
      | Error e ->
          a.failed <- a.failed + 1;
          fail_note "leader mutation: %s" (Format.asprintf "%a" Serve.pp_error e));
      (* Apply lag: from the leader's commit returning until the
         follower has applied the epoch and serves it. *)
      let synced =
        timed tr ~op:!op "replicate.sync" a.lags ignore (fun () -> Replicate.sync r)
      in
      if (not synced) || Replicate.lag r follower <> 0 then begin
        a.failed <- a.failed + 1;
        fail_note "follower did not catch up"
      end;
      check_size a ~base (Engine.document leader);
      (match (tr, mirror) with
      | Some tr, Some m ->
          ignore
            (Meter.span tr ~op:!op ~parent:"mutation.split"
               "engine.state_checksum" (fun () -> Engine.state_checksum leader));
          (* [Replicate] reports no re-annotation stats; the mirror's
             stand in for the counts. *)
          count_stats a
            (record_mutation a tr ~op:!op m mu ~wal_before
               ~wal_after:(wal_totals leader) ~engine_stats:None)
      | _ -> ());
      let view = Layers.snapshot_view (Engine.current_snapshot fol) in
      for _ = 1 to batch do
        incr op;
          let query = queries.(next_query ()) in
        let node, reply =
          timed tr ~op:!op "read" a.reads
            (fun w -> a.read_words <- a.read_words +. w)
            (fun () -> Replicate.route r query)
        in
        attempt a ~rss_after:churn_rss_after;
        let expect = oracle leader query in
        if node <> follower then begin
          a.failed <- a.failed + 1;
          fail_note "read routed to node %d" node
        end;
        check_reply a ~expect ~served:Serve.Pinned query reply;
        match tr with
        | Some tr ->
            split_check a tr ~op:!op ~policy cams view query ~expect;
            if !op land 255 = 0 then probe_incr a (Engine.metrics fol)
        | None -> ()
      done
    done;
    a
  in
  let finish = leak_check [ leader; fol ] in
  {
    setup;
    phase;
    counter =
      (fun name ->
        Metrics.counter (Engine.metrics fol) name + Metrics.counter (Replicate.metrics r) name);
    read_cache = "snapshot.cache";
    finish;
    doc_nodes = Tree.size doc;
    queries = Array.length queries;
    subjects = "anonymous";
  }
