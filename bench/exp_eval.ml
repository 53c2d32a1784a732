(* Evaluator bench: the tree-walking [Eval] against the pre/size
   [Index] on the frozen view a snapshot read misses on.

   Inputs are the repo benchmark's (perfbench/inputs.ml): XMark at
   f = 0.1 and its query pool, 2,000 schema-guided response queries
   drawn with seed 20090101, printed and deduplicated (1,911 distinct).

   Output: the index build time, then per-query mean / p50 / p99 in
   microseconds and the minor words allocated per query, for each
   evaluator.  Every query's answer must be the same id list from
   both; the experiment exits 1 on any difference. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Xp = Xmlac_xpath

let factor = 0.1
let pool_size = 2000
let pool_seed = 20090101L

(* Evaluations per query and evaluator; the per-query figure is their
   mean. *)
let reps = 5
let builds = 11

let measure f =
  let words = Gc.minor_words () in
  let (), elapsed =
    Timing.time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  let per = float_of_int reps in
  (elapsed /. per *. 1e6, (Gc.minor_words () -. words) /. per)

let run () =
  Bench_common.section "Evaluator: Eval vs the pre/size index on a frozen view";
  let view = fst (Tree.freeze (Xmlac_workload.Xmark.generate ~factor ())) in
  let queries =
    Xmlac_workload.Queries.response_queries ~n:pool_size ~seed:pool_seed ()
    |> List.map Xp.Pp.expr_to_string
    |> List.sort_uniq compare
    |> List.map Xp.Parser.parse_exn
    |> Array.of_list
  in
  let n = Array.length queries in
  Printf.printf "document: %d nodes (factor %s); %d distinct queries (pool %d, seed %Ld)\n"
    (Tree.size view) (Bench_common.pp_factor factor) n pool_size pool_seed;
  let build_ms =
    Array.init builds (fun _ ->
        1e3 *. snd (Timing.time (fun () -> Xp.Index.build view)))
  in
  Printf.printf "index build: %.2f ms (median of %d)\n"
    (Timing.percentile build_ms ~p:50.0)
    builds;
  let idx = Xp.Index.build view in
  let eval_ids e = List.map (fun (m : Tree.node) -> m.Tree.id) (Xp.Eval.eval view e) in
  let index_ids e = Array.to_list (Array.map (Xp.Index.id idx) (Xp.Index.eval idx e)) in
  let differ = ref [] in
  let eval_us = Array.make n 0.0 and eval_words = Array.make n 0.0 in
  let index_us = Array.make n 0.0 and index_words = Array.make n 0.0 in
  Array.iteri
    (fun i e ->
      if eval_ids e <> index_ids e then differ := e :: !differ;
      let us, w = measure (fun () -> Xp.Eval.eval view e) in
      eval_us.(i) <- us;
      eval_words.(i) <- w;
      let us, w = measure (fun () -> Xp.Index.eval idx e) in
      index_us.(i) <- us;
      index_words.(i) <- w)
    queries;
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let t =
    Tabular.create
      ~headers:[ "evaluator"; "mean us"; "p50 us"; "p99 us"; "minor words/query" ]
  in
  List.iter
    (fun (label, us, words) ->
      Tabular.add_row t
        [ label;
          Printf.sprintf "%.1f" (mean us);
          Printf.sprintf "%.1f" (Timing.percentile us ~p:50.0);
          Printf.sprintf "%.1f" (Timing.percentile us ~p:99.0);
          Printf.sprintf "%.0f" (mean words) ])
    [ ("eval", eval_us, eval_words); ("index", index_us, index_words) ];
  Tabular.print t;
  Printf.printf "answers: %d agree, %d differ\n" (n - List.length !differ)
    (List.length !differ);
  if !differ <> [] then begin
    List.iter
      (fun e -> Printf.printf "  differs: %s\n" (Xp.Pp.expr_to_string e))
      (List.rev !differ);
    exit 1
  end
