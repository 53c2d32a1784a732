(* perfbench: the repository's benchmark.

     main.exe --workload <session-reads|role-churn|replica-churn>
              --seed <n> --seconds <s> --trace <0|1>

   Sets the workload up (several times, reporting the median), runs its
   closed loop for [--seconds] and checks every answer.  With --trace 0
   the whole run is timed and the end-to-end metrics are reported.
   With --trace 1 the first half runs without spans, as the baseline of
   the tracing overhead, and the second half records spans and the
   per-layer split; spans are written to perfbench/out/ when the run
   ends.  Every time is scaled to the reference speed of [Meter], so
   the host's changing speed moves the figures little.  Every
   applicable metric is printed with its unit and sample count; the
   last line is one JSON object with the metrics BENCHMARK.json lists.  A wrong answer or a leaked pin makes the run
   exit non-zero. *)

module W = Workloads

let end_to_end = [ "setup_s"; "read_p50_us"; "read_p99_us"; "throughput_ops_s"; "peak_rss_mb" ]

let per_layer =
  [
    "xpath.parse_us"; "xmldb.eval_us"; "cam.check_us"; "cam.lookups_per_read";
    "read.unattributed_us"; "decision_cache.hit_ratio"; "decision_cache.lookups";
    "snapshot.memo_hit_ratio"; "snapshot.memo_lookups"; "snapshot.carried_decisions";
    "cam.role_builds"; "metrics.incr_ns"; "reannotator.affected_nodes";
    "reannotator.triggered_rules"; "reannotator.changed_nodes"; "mutation.affected_share";
    "annotator.distinct_plans"; "wal.records_per_mutation"; "wal.bytes_per_mutation";
    "cam.touched_per_mutation"; "replicate.frames_shipped"; "replicate.reshipped";
    "setup.generate_s"; "setup.create_s"; "setup.annotate_s"; "gc.minor_words_per_read";
    "gc.minor_words_per_mutation"; "gc.major_collections"; "trace.overhead_ratio";
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <session-reads|role-churn|replica-churn> --seed <n> \
     --seconds <s> --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced when seconds > 0.0 ->
      (w, { W.seed; seconds; traced })
  | _ -> usage ()

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let per num den = if den = 0 then 0.0 else num /. float_of_int den

let counters =
  [ "cache.hits"; "cache.misses"; "snapshot.cache.hits"; "snapshot.cache.misses";
    "snapshot.cache.carried"; "cam.role_builds"; "snapshot.role_cam_builds";
    "repl.shipped"; "repl.reshipped" ]

(* Every time below is at the reference speed (see [Meter]).
   Throughput is operations per second of the system's own calls —
   reads, mutations and follower syncs — so the benchmark's oracle and
   bookkeeping between calls are not counted. *)
let end_to_end_metrics (a : W.acc) =
  let m = Meter.metric in
  let reads = a.reads and muts = a.mutations and lags = a.lags in
  let read_us q = Meter.percentile reads q /. 1e3 in
  let ops = reads.n + muts.n in
  let busy = reads.sum +. muts.sum +. lags.sum in
  let ms s q = Meter.percentile s q /. 1e6 in
  [
    m ~n:reads.n "read_p50_us" "us" (read_us 50.0);
    m ~n:reads.n "read_p99_us" "us" (read_us 99.0);
    m ~n:ops "throughput_ops_s" "1/s" (float_of_int ops /. Meter.s_of_ns (Float.max 1.0 busy));
    m ~n:a.attempted "error_ratio" "ratio" (ratio a.failed a.attempted);
  ]
  @ (if muts.n = 0 then []
     else
       [
         m ~n:muts.n "mutation_p50_ms" "ms" (ms muts 50.0);
         m ~n:muts.n "mutation_p90_ms" "ms" (ms muts 90.0);
       ])
  @ (if a.stats_seen = 0 then []
     else
       [
         m ~n:a.stats_seen "mutation.affected_share" "ratio" (ratio a.affected_pos a.stats_seen);
       ])
  @
  if lags.n = 0 then []
  else
    [
      m ~n:lags.n "apply_lag_p50_ms" "ms" (ms lags 50.0);
      m ~n:lags.n "apply_lag_p90_ms" "ms" (ms lags 90.0);
    ]

(* The per-layer split of the traced half.  Read-path layer times are
   measured on a replay of the miss path for every read, so they are
   weighted by the miss share of the cache in front of the reads. *)
let layer_metrics (run : W.run) (a : W.acc) tr delta ~gc_major ~baseline_p50 =
  let m = Meter.metric in
  let reads = a.reads.n and muts = a.mutations.n and seen = a.stats_seen in
  let hit_ratio prefix =
    let h = delta (prefix ^ ".hits") in
    let n = h + delta (prefix ^ ".misses") in
    (n, ratio h n)
  in
  let miss = 1.0 -. snd (hit_ratio run.read_cache) in
  let total n = float_of_int (Meter.total_span_ns tr n) in
  let read_layer n = miss *. per (total n) reads /. 1e3 in
  let role_build_us = per (total "cam.role_build") reads /. 1e3 in
  let read_mean_us = Meter.mean a.reads /. 1e3 in
  let read_layers = [ "xpath.parse"; "xmldb.eval"; "cam.check" ] in
  let mut_layer n = per (total n) muts /. 1e6 in
  let mut_layers =
    [ "reannotator.native"; "reannotator.row"; "reannotator.column"; "annotator.subjects";
      "cam.maintain"; "snapshot.publish"; "engine.state_checksum" ]
  in
  let mut_mean_ms = Meter.mean a.mutations /. 1e6 in
  let dc_n, dc = hit_ratio "cache" and memo_n, memo = hit_ratio "snapshot.cache" in
  let builds = Meter.calls tr "cam.role_build" in
  [
    m ~n:reads "xpath.parse_us" "us" (read_layer "xpath.parse");
    m ~n:reads "xmldb.eval_us" "us" (read_layer "xmldb.eval");
    m ~n:reads "cam.check_us" "us" (read_layer "cam.check");
    m ~n:reads "cam.lookups_per_read" "count" (miss *. per (float_of_int a.lookups) reads);
    m ~n:reads "read.unattributed_us" "us"
      (read_mean_us
      -. List.fold_left (fun s n -> s +. read_layer n) 0.0 read_layers
      -. role_build_us);
    m ~n:dc_n "decision_cache.hit_ratio" "ratio" dc;
    m "decision_cache.lookups" "count" (float_of_int dc_n);
    m ~n:memo_n "snapshot.memo_hit_ratio" "ratio" memo;
    m "snapshot.memo_lookups" "count" (float_of_int memo_n);
    m "snapshot.carried_decisions" "count" (float_of_int (delta "snapshot.cache.carried"));
    m "cam.role_builds" "count"
      (float_of_int (delta "cam.role_builds" + delta "snapshot.role_cam_builds"));
    m ~n:builds "cam.role_build_ms" "ms" (per (total "cam.role_build") builds /. 1e6);
    m ~n:a.incr_calls "metrics.incr_ns" "ns" (per (float_of_int a.incr_ns) a.incr_calls);
    m ~n:seen "reannotator.affected_nodes" "count" (per (float_of_int a.affected) seen);
    m ~n:seen "reannotator.triggered_rules" "count" (per (float_of_int a.triggered) seen);
    m ~n:seen "reannotator.changed_nodes" "count" (per (float_of_int a.changed) seen);
    m ~n:seen "mutation.affected_share" "ratio" (ratio a.affected_pos seen);
    m ~n:muts "reannotator.native_ms" "ms" (mut_layer "reannotator.native");
    m ~n:muts "reannotator.row_ms" "ms" (mut_layer "reannotator.row");
    m ~n:muts "reannotator.column_ms" "ms" (mut_layer "reannotator.column");
    m ~n:muts "annotator.subjects_ms" "ms" (mut_layer "annotator.subjects");
    m ~n:muts "annotator.distinct_plans" "count" (per (float_of_int a.plans) muts);
    m ~n:muts "wal.records_per_mutation" "count" (per (float_of_int a.wal_records) muts);
    m ~n:muts "wal.bytes_per_mutation" "bytes" (per (float_of_int a.wal_bytes) muts);
    m ~n:muts "cam.touched_per_mutation" "count" (per (float_of_int a.cam_touched) muts);
    m ~n:muts "cam.maintain_us" "us" (mut_layer "cam.maintain" *. 1e3);
    m ~n:muts "snapshot.publish_us" "us" (mut_layer "snapshot.publish" *. 1e3);
    m ~n:muts "engine.state_checksum_ms" "ms" (mut_layer "engine.state_checksum");
    m ~n:a.lags.n "replicate.apply_ms" "ms" (Meter.mean a.lags /. 1e6);
    m ~n:muts "replicate.frames_shipped" "count" (per (float_of_int (delta "repl.shipped")) muts);
    m "replicate.reshipped" "count" (float_of_int (delta "repl.reshipped"));
    m ~n:muts "mutation.unattributed_ms" "ms"
      (if muts = 0 then 0.0
       else mut_mean_ms -. List.fold_left (fun s n -> s +. mut_layer n) 0.0 mut_layers);
    m ~n:reads "gc.minor_words_per_read" "words" (per a.read_words reads);
    m ~n:muts "gc.minor_words_per_mutation" "words" (per a.mutation_words muts);
    m "gc.major_collections" "count" (float_of_int gc_major);
    m ~n:reads "trace.overhead_ratio" "ratio"
      (Meter.percentile a.reads 50.0 /. Float.max 1.0 baseline_p50);
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics names =
  let fields =
    List.map
      (fun name ->
        let m = List.find (fun (m : Meter.metric) -> m.name = name) metrics in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number m.value) m.unit_)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  let workload, cfg = parse_args () in
  let build =
    match workload with
    | "session-reads" -> W.session_reads
    | "role-churn" -> W.role_churn
    | "replica-churn" -> W.replica_churn
    | _ -> usage ()
  in
  Meter.start_sampling ();
  let run = build cfg in
  Printf.printf "workload %s: seed %Ld, %d nodes, %d distinct queries, subjects %s\n%!"
    workload cfg.seed run.doc_nodes run.queries run.subjects;
  let phase ~seconds tr =
    Gc.full_major ();
    let deadline = Int64.add (Meter.now ()) (Int64.of_float (seconds *. 1e9)) in
    run.phase ~deadline tr
  in
  let untraced_s = if cfg.traced then cfg.seconds /. 2.0 else cfg.seconds in
  let plain = phase ~seconds:untraced_s None in
  (* Read before the analysis below allocates its own buffers, if the
     phase ended before its mark. *)
  let peak_rss = if plain.rss_mb > 0.0 then plain.rss_mb else Meter.peak_rss_mb () in
  let traced =
    if not cfg.traced then None
    else begin
      let tr = Meter.trace () in
      let before = List.map (fun n -> (n, run.counter n)) counters in
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let a = phase ~seconds:(cfg.seconds /. 2.0) (Some tr) in
      let delta n = run.counter n - List.assoc n before in
      let gc_major = (Gc.quick_stat ()).Gc.major_collections - major0 in
      Some (a, tr, delta, gc_major)
    end
  in
  Meter.stop_sampling ();
  let leaks = run.finish () in
  let e2e =
    run.setup
    @ end_to_end_metrics plain
    @ [
        Meter.metric "peak_rss_mb" "MB" peak_rss;
        Meter.metric ~n:!Meter.probes "host.mean_slowdown" "ratio" (Meter.mean_slowdown ());
      ]
  in
  let layers =
    match traced with
    | None -> []
    | Some (a, tr, delta, gc_major) ->
        (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
        Meter.write_spans tr
          (Printf.sprintf "perfbench/out/%s-seed%Ld.jsonl" workload cfg.seed);
        layer_metrics run a tr delta ~gc_major
          ~baseline_p50:(Meter.percentile plain.reads 50.0)
  in
  let all_accs = plain :: (match traced with Some (a, _, _, _) -> [ a ] | None -> []) in
  let attempted = List.fold_left (fun s (a : W.acc) -> s + a.attempted) 0 all_accs in
  let failed = leaks + List.fold_left (fun s (a : W.acc) -> s + a.failed) 0 all_accs in
  let print_metrics title ms =
    Printf.printf "-- %s\n" title;
    List.iter
      (fun (m : Meter.metric) ->
        Printf.printf "%-30s %14.4f %-6s n=%d\n" m.name m.value m.unit_ m.n)
      ms
  in
  if cfg.traced then begin
    print_metrics "per layer (traced half)" layers;
    print_metrics "end to end (untraced half)" e2e
  end
  else print_metrics "end to end" e2e;
  let report = layers @ e2e in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed report
    (if cfg.traced then per_layer else end_to_end);
  exit (if correct then 0 else 1)
