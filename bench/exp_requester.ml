(* Requester fast lane: queries/sec with and without the snapshot's
   rank-space check + memo, plus what a document update's snapshot
   carries and builds.

   Not a paper artifact — this measures the engine extension that
   serves repeated read traffic: the same query workload is replayed
   several rounds on the native store against (a) the paper's
   requester (per-node sign reads, no memo) and (b) Engine.request
   (the current snapshot: each answer's grant bit checked by preorder
   rank, bounded memo).

   Expected shape: the fast lane wins >= 5x on a repeated workload
   (rounds 2..n are pure memo hits); the snapshot after a delete
   update carries the memos whose answers the epoch did not write,
   and one re-read of the workload builds its grant column once. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
open Xmlac_core

let rounds = 20

let run (cfg : Bench_common.config) =
  Bench_common.section
    "Requester fast lane: snapshot rank-space check + memo";
  let factor = 0.01 in
  let doc = Bench_common.doc factor in
  let policy = Bench_common.mid_coverage_policy factor in
  let queries =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.response_queries ~n:cfg.Bench_common.query_count
         ())
  in
  let eng = Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy doc in
  let _ = Engine.annotate eng in
  Printf.printf "document: %d nodes (factor %s); %d queries x %d rounds\n"
    (Tree.size (Engine.document eng))
    (Bench_common.pp_factor factor)
    (List.length queries) rounds;
  let total = List.length queries * rounds in
  let replay req =
    let _, elapsed =
      Timing.time (fun () ->
          for _ = 1 to rounds do
            List.iter (fun q -> ignore (req q)) queries
          done)
    in
    float_of_int total /. elapsed
  in
  let t =
    Tabular.create
      ~headers:
        [ "backend"; "direct q/s"; "fastlane q/s"; "speedup"; "hit rate" ]
  in
  let label = "xquery" in
  let direct = replay (fun q -> Engine.request_direct eng Engine.Native q) in
  Metrics.reset (Engine.metrics eng);
  let fast = replay (fun q -> Engine.request eng Engine.Native q) in
  let hit_rate =
    Metrics.hit_rate (Engine.metrics eng) ~hits:"cache.hits"
      ~misses:"cache.misses"
  in
  Tabular.add_row t
    [
      label;
      Printf.sprintf "%.0f" direct;
      Printf.sprintf "%.0f" fast;
      Printf.sprintf "%.1fx" (fast /. direct);
      Printf.sprintf "%.1f%%" (100.0 *. hit_rate);
    ];
  Tabular.print t;

  (* A delete update: its snapshot carries the memos above whose
     answers the epoch did not write.  Walk the figure-12 update
     workload until one actually triggers rules, so the epoch writes
     signs. *)
  let updates =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.delete_updates ~n:10 ())
  in
  let rec first_nonvacuous = function
    | [] -> ("(no triggering update in workload)", 0)
    | u :: rest -> (
        Metrics.reset (Engine.metrics eng);
        let stats = Engine.update eng u in
        match List.assoc_opt Engine.Native stats with
        | Some s when s.Reannotator.affected > 0 ->
            (u, s.Reannotator.affected)
        | _ -> if rest = [] then (u, 0) else first_nonvacuous rest)
  in
  let update, affected = first_nonvacuous updates in
  let m = Engine.metrics eng in
  let carried = Metrics.counter m "snapshot.cache.carried" in
  List.iter (fun q -> ignore (Engine.request eng Engine.Native q)) queries;
  let built = Metrics.counter m "snapshot.grant_builds" in
  Printf.printf
    "update %s: affected region %d node(s); %d memo(s) carried; re-reading \
     the workload built %d grant column(s)\n"
    update affected carried built;

  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  Printf.printf
    "  requester.%s: direct_qps=%.0f fastlane_qps=%.0f speedup=%.1f \
     cache_hit_rate=%.3f\n"
    label direct fast (fast /. direct) hit_rate;
  Printf.printf "  requester.snapshot: affected=%d carried=%d grant_builds=%d\n"
    affected carried built;
  print_endline
    "expected shape: fastlane >= 5x direct on the native store (rounds 2+ \
     are memo hits); the update's snapshot carries memos and builds one \
     grant column."
