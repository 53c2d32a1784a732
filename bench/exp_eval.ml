(* Evaluator bench: the two stages of a snapshot read miss on the
   frozen view it misses on, and the repair's scope stage on the live
   document.

   Inputs are the repo benchmark's (perfbench/inputs.ml): XMark at
   f = 0.1, annotated under its 50 %-coverage policy, and its query
   pool, 2,000 schema-guided response queries drawn with seed
   20090101, printed and deduplicated (1,911 distinct).

   Evaluation: the tree-walking [Eval] against the pre/size [Index].
   Output: the index build time, then per-query mean / p50 / p99 in
   microseconds and the minor words allocated per query, for each
   evaluator.  Every query's answer must be the same id list from
   both.

   Accessibility check, over each query's answers: a CAM walk from
   each answer's record found by id (the check before rank-space
   reads), decided by [Requester.decide] over the id list, against
   [Snapshot.accessible] on the answers' rank array, one grant-column
   read per answer as a snapshot read miss makes it.
   Output: per-query mean / p50 / p99 in microseconds for each.  Every
   answer must get the same verdict from both.

   Repair scopes, on the live (unfrozen) document of an engine under
   the repo benchmark's 16-role policy (its coverage rules plus one
   qualified allow per role; every rule after optimization): each
   rule's scope walked on the tree with [Eval], and through the native
   backend's [eval_ids], which joins on its index of the live
   document.  Output: the live index build time,
   then per-scope mean / p50 / p99 in microseconds and the minor words
   per scope.  Every scope must give the same id list both ways.

   The experiment exits 1 on any differing answer, verdict or scope. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Xp = Xmlac_xpath
open Xmlac_core

let factor = 0.1
let pool_size = 2000
let pool_seed = 20090101L

(* Evaluations per query and evaluator; the per-query figure is their
   mean. *)
let reps = 5
let builds = 11

(* A rank-space check takes well under a microsecond on most queries,
   so the check stage repeats more to stay above the clock's
   resolution. *)
let check_reps = 20

let measure ?(reps = reps) f =
  let words = Gc.minor_words () in
  let (), elapsed =
    Timing.time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  let per = float_of_int reps in
  (elapsed /. per *. 1e6, (Gc.minor_words () -. words) /. per)

let roles = Bench_common.roles

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let print_table ?(per = "query") ~first rows =
  let t =
    Tabular.create
      ~headers:[ first; "mean us"; "p50 us"; "p99 us"; "minor words/" ^ per ]
  in
  List.iter
    (fun (label, us, words) ->
      Tabular.add_row t
        [ label;
          Printf.sprintf "%.1f" (mean us);
          Printf.sprintf "%.1f" (Timing.percentile us ~p:50.0);
          Printf.sprintf "%.1f" (Timing.percentile us ~p:99.0);
          Printf.sprintf "%.0f" (mean words) ])
    rows;
  Tabular.print t

(* Prints the tally and the differing queries; whether any differ. *)
let report what n differ =
  Printf.printf "%s: %d agree, %d differ\n" what (n - List.length differ)
    (List.length differ);
  List.iter
    (fun e -> Printf.printf "  differs: %s\n" (Xp.Pp.expr_to_string e))
    (List.rev differ);
  differ <> []

let run () =
  Bench_common.section
    "Read miss: Eval vs the pre/size index, CAM walk vs rank-space check";
  let policy = Bench_common.mid_coverage_policy factor in
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy (Bench_common.doc factor)
  in
  ignore (Engine.annotate eng);
  let snap = Engine.current_snapshot eng in
  let view = Snapshot.document snap in
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
  let idx = Snapshot.index snap in
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
  print_table ~first:"evaluator"
    [ ("eval", eval_us, eval_words); ("index", index_us, index_words) ];
  let answers_differ = report "answers" n !differ in
  (* The check stage, on the answers the index gives. *)
  let cam = Cam.build view ~default:(Policy.ds policy) in
  let cam_walk id =
    match Tree.find view id with
    | Some node -> Cam.lookup cam node = Tree.Plus
    | None -> false
  in
  let rank_check = Snapshot.accessible snap in
  let differ = ref [] in
  let cam_us = Array.make n 0.0 and cam_words = Array.make n 0.0 in
  let rank_us = Array.make n 0.0 and rank_words = Array.make n 0.0 in
  Array.iteri
    (fun i e ->
      let ranks = Xp.Index.eval idx e in
      let ids = List.map (Xp.Index.id idx) (Array.to_list ranks) in
      if List.map cam_walk ids <> List.map rank_check (Array.to_list ranks)
      then differ := e :: !differ;
      let us, w =
        measure ~reps:check_reps (fun () ->
            Requester.decide ~ids ~accessible:cam_walk)
      in
      cam_us.(i) <- us;
      cam_words.(i) <- w;
      let us, w =
        measure ~reps:check_reps (fun () ->
            Array.fold_left
              (fun n r -> if rank_check r then n else n + 1)
              0 ranks)
      in
      rank_us.(i) <- us;
      rank_words.(i) <- w)
    queries;
  print_table ~first:"check"
    [ ("cam walk", cam_us, cam_words); ("rank space", rank_us, rank_words) ];
  let verdicts_differ = report "check verdicts" n !differ in
  (* The repair's scope stage, on a live document. *)
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy:(Bench_common.role_policy factor)
      (Bench_common.doc factor)
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let live = Engine.document eng in
  let scopes =
    Array.of_list (List.map (fun r -> r.Rule.resource) (Policy.rules (Engine.policy eng)))
  in
  let n = Array.length scopes in
  Printf.printf "repair scopes: %d rules of the %d-role policy, on the live document
" n
    roles;
  let build_ms =
    Array.init builds (fun _ ->
        1e3 *. snd (Timing.time (fun () -> Xp.Index.build live)))
  in
  Printf.printf "live index build: %.2f ms (median of %d)
"
    (Timing.percentile build_ms ~p:50.0)
    builds;
  let walk e =
    List.sort_uniq Int.compare
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Xp.Eval.eval live e))
  in
  let indexed = Xml_backend.make live in
  let differ = ref [] in
  let walk_us = Array.make n 0.0 and walk_words = Array.make n 0.0 in
  let index_us = Array.make n 0.0 and index_words = Array.make n 0.0 in
  Array.iteri
    (fun i e ->
      if walk e <> indexed.Backend.eval_ids e then differ := e :: !differ;
      let us, w = measure (fun () -> walk e) in
      walk_us.(i) <- us;
      walk_words.(i) <- w;
      let us, w = measure (fun () -> indexed.Backend.eval_ids e) in
      index_us.(i) <- us;
      index_words.(i) <- w)
    scopes;
  print_table ~per:"scope" ~first:"repair scope"
    [ ("eval", walk_us, walk_words); ("index", index_us, index_words) ];
  let scopes_differ = report "repair scopes" n !differ in
  if answers_differ || verdicts_differ || scopes_differ then exit 1
