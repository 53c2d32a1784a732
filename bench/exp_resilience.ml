(* The serving layer under injected faults: throughput and tail
   latency at per-point transient fault rates {0, 0.01, 0.05}.

   Not a paper artifact — this measures the resilience extension
   (deadlines, retries, breakers, fail-closed degradation).  For each
   rate a fresh engine is wrapped in [Serve] and
   driven with an interleaved request/mutation workload under a seeded
   transient-fault schedule; the cell reports requests per second,
   p50/p99 request latency, and how the layer absorbed the faults
   (retries, degraded answers, typed errors, breaker trips).

   Expected shape: the rate-0 column is the fast-lane baseline; at
   0.01 and 0.05 retries and forward recovery absorb the faults at a
   p99 cost — throughput degrades smoothly instead of collapsing, and
   the breaker only trips once faults burst faster than the retry
   budget. *)

module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
open Xmlac_core
module S = Xmlac_serve.Serve
module B = Xmlac_serve.Breaker

let rates = [ 0.0; 0.01; 0.05 ]
let steps = 240
let mutation_every = 12

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

let run (_cfg : Bench_common.config) =
  Bench_common.section
    "Resilient serving: throughput and p99 under transient faults";
  Fault.reset ();
  let factor = 0.01 in
  let policy = Bench_common.mid_coverage_policy factor in
  let queries =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.response_queries ~n:24 ())
  in
  let updates =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.delete_updates ~n:24 ~seed:7L ())
  in
  Printf.printf "document: %d nodes (factor %s); %d steps per rate, one \
                 mutation every %d\n"
    (Xmlac_xml.Tree.size (Bench_common.doc factor))
    (Bench_common.pp_factor factor)
    steps mutation_every;
  let t =
    Tabular.create
      ~headers:
        [ "rate"; "qps"; "p50"; "p99"; "retries"; "degraded"; "errors";
          "trips" ]
  in
  let summary = ref [] in
  List.iter
    (fun rate ->
      Fault.reset ();
      let eng =
        Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy
          (Bench_common.doc factor)
      in
      ignore (Engine.annotate eng);
      let serve =
        S.create ~config:{ S.default_config with S.max_retries = 2 } eng
      in
      let rng = Prng.create ~seed:11L in
      let samples = ref [] in
      let requests = ref 0 in
      Fault.set_seed 8191L;
      let total =
        snd
          (Timing.time (fun () ->
               for step = 1 to steps do
                 (* Recovery disarms the registry; re-arm every step so
                    the schedule survives auto-recoveries. *)
                 if rate > 0.0 then Fault.arm_all_transient ~prob:rate;
                 if step mod mutation_every = 0 then
                   ignore (S.update serve (Prng.choose_list rng updates))
                 else begin
                   incr requests;
                   let q = Prng.choose_list rng queries in
                   let _, dt =
                     Timing.time (fun () ->
                         ignore (S.request serve Engine.Native q))
                   in
                   samples := dt :: !samples
                 end
               done))
      in
      Fault.reset ();
      let sorted = Array.of_list !samples in
      Array.sort compare sorted;
      let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
      let qps = float_of_int !requests /. Float.max total 1e-9 in
      let m = Engine.metrics eng in
      let retries = Metrics.counter m "serve.retries"
      and degraded = Metrics.counter m "serve.degraded"
      and errors = Metrics.counter m "serve.errors"
      and trips = B.trips (S.breaker serve) in
      Tabular.add_row t
        [
          Printf.sprintf "%.2f" rate;
          Printf.sprintf "%.0f" qps;
          Format.asprintf "%a" Timing.pp_seconds p50;
          Format.asprintf "%a" Timing.pp_seconds p99;
          string_of_int retries;
          string_of_int degraded;
          string_of_int errors;
          string_of_int trips;
        ];
      summary :=
        Printf.sprintf
          "  resilience.native.rate%.2f: qps=%.0f p50_us=%.1f p99_us=%.1f \
           retries=%d degraded=%d errors=%d trips=%d"
          rate qps (p50 *. 1e6) (p99 *. 1e6) retries degraded errors trips
        :: !summary)
    rates;
  Tabular.print t;
  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  List.iter print_endline (List.rev !summary);
  print_endline
    "expected shape: rate 0 is the fast-lane baseline; at 0.01 and 0.05 \
     retries and forward recovery absorb the faults — throughput degrades \
     smoothly (no collapse) and p99 carries the retry cost; degraded/trips \
     stay near zero until faults burst faster than the retry budget."
