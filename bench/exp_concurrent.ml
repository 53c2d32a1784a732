(* Concurrent snapshot serving: pinned readers against a churning
   writer, over a readers x churn grid.

   Not a paper artifact — this measures the MVCC extension.  Each cell
   opens [readers] sessions (each pins the committed epoch), computes
   a per-session decision oracle at that epoch on the live path, then
   runs every reader's request loop and the writer's mutation loop
   together on a domain pool.  The cell reports wall-clock p50/p99
   read latency, reads per second, and three invariant counters that
   must all be zero:

     stale      replies whose decision differs from the pinned-epoch
                oracle (a reader observed the writer's churn);
     unpinned   replies not served [Pinned] (a reader fell back to the
                live path and could have blocked on the writer);
     errors     typed errors out of the session read path.

   The snapshot registry columns (published / reclaimed / max lag)
   show reclamation keeping up: retired epochs are freed as soon as
   the last session unpins them, and max lag stays bounded by the
   number of concurrently pinned epochs, not by churn. *)

module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Fault = Xmlac_util.Fault
open Xmlac_core
module S = Xmlac_serve.Serve
module Session = Xmlac_serve.Session
module Pool = Xmlac_serve.Pool
module Snapshot = Xmlac_core.Snapshot

let reader_counts = [ 1; 2; 4; 8 ]
let churns = [ 0; 6 ]
let requests_per_reader = 48

let run (_cfg : Bench_common.config) =
  Bench_common.section
    "Concurrent serving: pinned snapshot readers under writer churn";
  Fault.reset ();
  let factor = 0.01 in
  let policy = Bench_common.mid_coverage_policy factor in
  let queries =
    Array.of_list
      (List.map Xmlac_xpath.Pp.expr_to_string
         (Xmlac_workload.Queries.response_queries ~n:16 ()))
  in
  let updates =
    Array.of_list
      (List.map Xmlac_xpath.Pp.expr_to_string
         (Xmlac_workload.Queries.delete_updates ~n:24 ~seed:7L ()))
  in
  Printf.printf
    "document: %d nodes (factor %s); %d requests per reader, %d quer%s\n"
    (Xmlac_xml.Tree.size (Bench_common.doc factor))
    (Bench_common.pp_factor factor)
    requests_per_reader (Array.length queries)
    (if Array.length queries = 1 then "y" else "ies");
  let t =
    Tabular.create
      ~headers:
        [ "readers"; "churn"; "reads"; "rps"; "p50"; "p99"; "stale";
          "unpinned"; "errors"; "published"; "reclaimed"; "maxlag" ]
  in
  let summary = ref [] in
  let violations = ref 0 in
  List.iter
    (fun readers ->
      List.iter
        (fun churn ->
          let eng =
            Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy
              (Bench_common.doc factor)
          in
          ignore (Engine.annotate eng);
          let serve = S.create eng in
          let pool = Pool.create ~domains:(readers + 1) () in
          let sessions =
            List.init readers (fun _ -> Session.open_ serve)
          in
          (* The oracle: every query answered on the live path at the
             pinned epoch, before the writer starts.  A pinned reply
             that disagrees with it observed another epoch. *)
          let oracle =
            Array.map
              (fun q ->
                match S.request serve Engine.Native q with
                | Ok r -> r.S.decision
                | Error e ->
                    failwith
                      (Format.asprintf "oracle request failed: %a" S.pp_error
                         e))
              queries
          in
          let reader_job sess () =
            let stale = ref 0
            and unpinned = ref 0
            and errs = ref 0
            and lats = ref [] in
            for k = 0 to requests_per_reader - 1 do
              let qi = k mod Array.length queries in
              let t0 = Timing.now () in
              (match Session.request sess queries.(qi) with
              | Ok r ->
                  if r.S.served <> S.Pinned then incr unpinned;
                  if r.S.decision <> oracle.(qi) then incr stale
              | Error _ -> incr errs);
              lats := (Timing.now () -. t0) :: !lats
            done;
            `Reader (!stale, !unpinned, !errs, !lats)
          in
          let writer_job () =
            for i = 0 to churn - 1 do
              ignore (S.update serve updates.(i mod Array.length updates))
            done;
            `Writer
          in
          let t0 = Timing.now () in
          let outcomes =
            Pool.parallel pool
              (List.map reader_job sessions @ [ writer_job ])
          in
          let wall = Timing.now () -. t0 in
          List.iter Session.close sessions;
          Pool.shutdown pool;
          let stale = ref 0
          and unpinned = ref 0
          and errs = ref 0
          and lats = ref [] in
          List.iter
            (function
              | `Reader (s, u, e, ls) ->
                  stale := !stale + s;
                  unpinned := !unpinned + u;
                  errs := !errs + e;
                  lats := ls @ !lats
              | `Writer -> ())
            outcomes;
          let samples = Array.of_list !lats in
          let reads = Array.length samples in
          let p50 = Timing.percentile samples ~p:50.0
          and p99 = Timing.percentile samples ~p:99.0 in
          let rps = float_of_int reads /. Float.max wall 1e-9 in
          let reg = Engine.snapshots eng in
          let published = Snapshot.published reg
          and reclaimed = Snapshot.reclaimed reg
          and maxlag = Snapshot.max_retired reg in
          violations := !violations + !stale + !unpinned + !errs;
          Tabular.add_row t
            [
              string_of_int readers;
              string_of_int churn;
              string_of_int reads;
              Printf.sprintf "%.0f" rps;
              Format.asprintf "%a" Timing.pp_seconds p50;
              Format.asprintf "%a" Timing.pp_seconds p99;
              string_of_int !stale;
              string_of_int !unpinned;
              string_of_int !errs;
              string_of_int published;
              string_of_int reclaimed;
              string_of_int maxlag;
            ];
          summary :=
            Printf.sprintf
              "  concurrent.r%d.c%d: reads=%d rps=%.0f p50_us=%.1f \
               p99_us=%.1f stale=%d unpinned=%d errors=%d published=%d \
               reclaimed=%d max_lag=%d"
              readers churn reads rps (p50 *. 1e6) (p99 *. 1e6) !stale
              !unpinned !errs published reclaimed maxlag
            :: !summary)
        churns)
    reader_counts;
  Tabular.print t;
  print_endline "summary:";
  List.iter print_endline (List.rev !summary);
  if !violations = 0 then
    print_endline
      "invariants: PASS — zero stale decisions, zero unpinned replies, zero \
       errors across the grid"
  else
    Printf.printf
      "invariants: FAIL — %d violation(s) (stale + unpinned + errors)\n"
      !violations;
  print_endline
    "expected shape: p50/p99 are flat in churn (readers never wait on the \
     writer); published grows with churn while reclaimed tracks it and max \
     lag stays small — retired epochs are freed as sessions release them."
