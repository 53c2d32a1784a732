(* Replication under load: apply lag and failover latency across a
   readers x churn x fault-rate grid, with hard-zero stale-grant
   assertions.

   Not a paper artifact — this measures the replication extension
   (epoch shipping, lag-gated follower serving, promotion).  Each cell
   builds a three-node cluster (one leader, two followers over the
   same document and policy), drives [churn] committed epochs through
   the chaos transport at the cell's drop/duplicate/reorder/torn-frame
   rate, and interleaves [readers] routed snapshot reads per epoch.

   Every routed read is checked against a leader-side per-epoch oracle:
   when the answering node had applied epoch [e], its decision must
   equal the decision the leader produced at epoch [e] — a grant the
   leader never made at that epoch is a stale grant, and the driver
   exits non-zero if a single one occurs.  After the churn phase the
   leader is killed and the least-lagged follower promoted; the cell
   reports the wall-clock time from the kill to the first Live-served
   read off the new leader.  Unbounded lag is the other hard failure:
   a cell whose followers cannot drain to lag 0 after the fault
   schedule stops (or that exhausts its re-ship budget) fails the
   run. *)

module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
open Xmlac_core
module Serve = Xmlac_serve.Serve
module Repl = Xmlac_replicate.Replicate

let reader_counts = [ 1; 8 ]
let churns = [ 24; 48 ]
let fault_rates = [ 0.0; 0.05; 0.2 ]

let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let failures = ref []

let fail fmt =
  Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let decision_key = function
  | Requester.Granted ids ->
      "G:" ^ String.concat "," (List.map string_of_int ids)
  | Requester.Denied { blocked } -> Printf.sprintf "D:%d" blocked

let run (_cfg : Bench_common.config) =
  Bench_common.section
    "Replication: apply lag and failover under readers x churn x faults";
  Fault.reset ();
  let factor = 0.001 in
  let policy = Bench_common.mid_coverage_policy factor in
  let dtd = Xmlac_workload.Xmark.dtd in
  let queries =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.response_queries ~n:16 ())
  in
  let updates =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.delete_updates ~n:64 ~seed:7L ())
  in
  let env_seed = Option.value (Fault.env_seed ()) ~default:0L in
  Printf.printf
    "document: %d nodes (factor %s); 2 followers per cell; fault seed %Ld\n"
    (Xmlac_xml.Tree.size (Bench_common.doc factor))
    (Bench_common.pp_factor factor)
    env_seed;
  let t =
    Tabular.create
      ~headers:
        [ "readers"; "churn"; "rate"; "lag p50"; "lag p99"; "reads";
          "degraded"; "reships"; "failover"; "stale" ]
  in
  List.iter (fun readers ->
      List.iter (fun churn ->
          List.iter (fun rate ->
              Fault.reset ();
              let config =
                {
                  Repl.default_config with
                  Repl.seed =
                    Int64.logxor env_seed
                      (Int64.of_int
                         ((readers * 7919) + (churn * 104729)
                         + int_of_float (rate *. 1e6)));
                  drop_p = rate;
                  dup_p = rate;
                  reorder_p = rate;
                  torn_p = rate /. 2.0;
                  lag_threshold = 4;
                  max_reship = 10_000;
                }
              in
              let t_cluster =
                Repl.create ~config ~followers:2 ~dtd ~policy
                  (Bench_common.doc factor)
              in
              let rng = Prng.create ~seed:11L in
              (* The per-epoch oracle: the leader's decision on every
                 pool query, recorded at each committed epoch.  Epoch 0
                 is the pre-annotation initial state. *)
              let oracle : (int, (string, string) Hashtbl.t) Hashtbl.t =
                Hashtbl.create 64
              in
              let record_epoch () =
                let h = Hashtbl.create 16 in
                List.iter
                  (fun q ->
                    Hashtbl.replace h q
                      (decision_key
                         (Engine.request (Repl.leader_engine t_cluster)
                            Engine.Native q)))
                  queries;
                Hashtbl.replace oracle (Repl.committed t_cluster) h
              in
              record_epoch ();
              let stale = ref 0 and reads = ref 0 and degraded = ref 0 in
              let lag_samples = ref [] in
              let check_read () =
                let q = Prng.choose_list rng queries in
                let node_id, reply = Repl.route t_cluster q in
                incr reads;
                match reply with
                | Error _ -> ()
                | Ok r when r.Serve.served = Serve.Degraded -> incr degraded
                | Ok r -> (
                    let e =
                      if node_id < 0 then Repl.committed t_cluster
                      else Repl.applied t_cluster node_id
                    in
                    match Hashtbl.find_opt oracle e with
                    | None -> ()
                    | Some h -> (
                        match Hashtbl.find_opt h q with
                        | Some k when k <> decision_key r.Serve.decision ->
                            (* A deny where the oracle granted is
                               conservative; a grant absent on the
                               leader at that epoch is the violation. *)
                            (match r.Serve.decision with
                            | Requester.Granted _ -> incr stale
                            | Requester.Denied _ -> ())
                        | _ -> ()))
              in
              (* Replicas hold the native store only: one annotation
                 epoch, recorded like every other. *)
              (match Repl.annotate_all t_cluster with
              | Ok () -> record_epoch ()
              | Error e -> fail "annotate failed: %s" e.Serve.message);
              for step = 1 to churn do
                (match Repl.update t_cluster (Prng.choose_list rng updates)
                 with
                | Ok () -> record_epoch ()
                | Error e ->
                    fail "update %d failed: %s" step e.Serve.message);
                Repl.pump t_cluster;
                List.iter
                  (fun id ->
                    if Repl.node_role t_cluster id = Repl.Follower then
                      lag_samples :=
                        float_of_int (Repl.lag t_cluster id) :: !lag_samples)
                  (Repl.nodes t_cluster);
                for _ = 1 to readers do
                  check_read ()
                done
              done;
              (* The fault schedule stops; lag must drain to zero. *)
              if not (Repl.sync ~rounds:1000 t_cluster) then
                fail
                  "unbounded lag: readers=%d churn=%d rate=%.2f did not \
                   converge"
                  readers churn rate;
              List.iter
                (fun id ->
                  if
                    Repl.node_role t_cluster id = Repl.Follower
                    && Repl.lag t_cluster id > 0
                  then
                    fail "unbounded lag: node %d stuck at lag %d (rate %.2f)"
                      id (Repl.lag t_cluster id) rate)
                (Repl.nodes t_cluster);
              if
                Metrics.counter (Repl.metrics t_cluster)
                  "repl.reship_exhausted"
                > 0
              then fail "re-ship budget exhausted at rate %.2f" rate;
              (* Failover: kill the leader, promote the best follower,
                 time to the first Live-served read. *)
              let (), failover =
                Timing.time (fun () ->
                    Repl.kill_leader t_cluster;
                    let best =
                      List.fold_left
                        (fun acc id ->
                          if Repl.node_role t_cluster id = Repl.Follower
                          then
                            match acc with
                            | Some b
                              when Repl.lag t_cluster b
                                   <= Repl.lag t_cluster id ->
                                acc
                            | _ -> Some id
                          else acc)
                        None
                        (Repl.nodes t_cluster)
                    in
                    match best with
                    | None -> fail "no promotable follower"
                    | Some id -> (
                        match Repl.promote t_cluster id with
                        | Error msg -> fail "promotion refused: %s" msg
                        | Ok _ ->
                            let served = ref false in
                            let rounds = ref 0 in
                            while (not !served) && !rounds < 1000 do
                              incr rounds;
                              Repl.pump t_cluster;
                              match
                                Repl.route t_cluster (List.hd queries)
                              with
                              | _, Ok r when r.Serve.served <> Serve.Degraded
                                ->
                                  served := true
                              | _ -> ()
                            done;
                            if not !served then
                              fail
                                "failover never served a non-degraded read \
                                 (rate %.2f)"
                                rate))
              in
              let m = Repl.metrics t_cluster in
              Tabular.add_row t
                [
                  string_of_int readers;
                  string_of_int churn;
                  Printf.sprintf "%.2f" rate;
                  Printf.sprintf "%.1f ep" (percentile !lag_samples 0.50);
                  Printf.sprintf "%.1f ep" (percentile !lag_samples 0.99);
                  string_of_int !reads;
                  string_of_int !degraded;
                  string_of_int (Metrics.counter m "repl.reshipped");
                  Bench_common.pp_secs failover;
                  string_of_int !stale;
                ];
              if !stale > 0 then
                fail "STALE GRANTS: %d at readers=%d churn=%d rate=%.2f"
                  !stale readers churn rate)
            fault_rates)
        churns)
    reader_counts;
  Tabular.print t;
  Fault.reset ();
  match !failures with
  | [] ->
      print_endline
        "assertions: zero stale grants, lag drained to 0 in every cell, \
         every failover served"
  | fs ->
      List.iter (fun f -> Printf.printf "ASSERTION FAILED: %s\n" f)
        (List.rev fs);
      exit 1
