(* Ablation (beyond the paper): Paper-mode vs Overlap-mode trigger.

   The published trigger uses containment tests between expanded rule
   paths and the update; the Overlap mode replaces them with
   schema-level overlap, trading some extra triggered rules (hence
   re-annotation work) for provable equivalence with full annotation.
   This experiment quantifies both sides: triggered-rule counts,
   re-annotation time, and whether each mode's result matches the
   reference semantics on the updated document.  Overlap is the
   engine's trigger, so the run exits non-zero when its row does not
   match. *)

module Tabular = Xmlac_util.Tabular
module Timing = Xmlac_util.Timing
module Tree = Xmlac_xml.Tree
open Xmlac_core

let run (cfg : Bench_common.config) =
  Bench_common.section "Ablation: Paper vs Overlap trigger mode";
  let factor =
    List.nth cfg.Bench_common.factors
      (List.length cfg.Bench_common.factors / 2)
  in
  let doc = Bench_common.doc factor in
  let policy = Bench_common.mid_coverage_policy factor in
  let updates =
    let all = Xmlac_workload.Queries.delete_updates () in
    List.filteri (fun i _ -> i < cfg.Bench_common.updates) all
  in
  let t =
    Tabular.create
      ~headers:
        [ "mode"; "avg triggered"; "avg reannot"; "matches reference" ]
  in
  let matches =
    List.map
      (fun (mode_label, mode) ->
        let depend = Depend.build ~mode policy in
        let triggered = ref 0 and elapsed = ref 0.0 and correct = ref true in
        List.iter
          (fun update ->
            let working = Tree.copy doc in
            let backend = Xml_backend.make working in
            let _ = Annotator.annotate backend policy in
            let stats, dt =
              Timing.time (fun () ->
                  Reannotator.reannotate ~schema:Bench_common.schema_graph
                    backend depend ~update)
            in
            triggered := !triggered + List.length stats.Reannotator.triggered;
            elapsed := !elapsed +. dt;
            let reference = Tree.copy doc in
            ignore (Xmlac_xmldb.Update.delete reference update);
            if
              Policy.accessible_ids policy reference
              <> Backend.accessible_ids backend ~default:(Policy.ds policy)
            then correct := false)
          updates;
        let n = float_of_int (List.length updates) in
        Tabular.add_row t
          [
            mode_label;
            Printf.sprintf "%.1f / %d"
              (float_of_int !triggered /. n)
              (Policy.size policy);
            Bench_common.pp_secs (!elapsed /. n);
            (if !correct then "yes" else "NO");
          ];
        (mode_label, !correct))
      [
        ("paper", Depend.Paper);
        ("overlap", Depend.Overlap Bench_common.schema_graph);
      ]
  in
  Tabular.print t;
  Printf.printf
    "(factor %s, %d updates; overlap triggers more rules but is provably \
     complete)\n"
    (Bench_common.pp_factor factor)
    (List.length updates);
  (* Second ablation: pure vs schema-aware redundancy elimination, on
     policies salted with redundancy only the DTD can prove. *)
  Bench_common.section "Ablation: pure vs schema-aware optimizer";
  let salt =
    [
      (* Folds purely: the anchored rule is contained in the broad one. *)
      Rule.parse ~name:"X1" "//site/regions" Rule.Plus;
      Rule.parse ~name:"X2" "//regions" Rule.Plus;
      (* Folds only with the schema: the spines are incomparable, but
         zipcode nodes sit exclusively under person/address. *)
      Rule.parse ~name:"X3" "//person//zipcode" Rule.Minus;
      Rule.parse ~name:"X4" "//address/zipcode" Rule.Minus;
      (* Unsatisfiable under the DTD: only the schema-aware pass can
         see it selects nothing. *)
      Rule.parse ~name:"X5" "//bidder/annotation" Rule.Plus;
    ]
  in
  let salted = Policy.with_rules policy (Policy.rules policy @ salt) in
  let t2 = Tabular.create ~headers:[ "optimizer"; "rules kept"; "time" ] in
  List.iter
    (fun (label, optimize) ->
      let kept, dt = Timing.time (fun () -> optimize salted) in
      Tabular.add_row t2
        [ label; Printf.sprintf "%d / %d" (Policy.size kept) (Policy.size salted);
          Bench_common.pp_secs dt ])
    [
      ("pure (paper)", fun p -> Optimizer.optimize_policy p);
      ( "schema-aware",
        fun p -> Optimizer.optimize_policy ~schema:Bench_common.schema_graph p );
    ];
  Tabular.print t2;
  if not (List.assoc "overlap" matches) then begin
    prerr_endline "ablation: the overlap trigger does not match the reference";
    exit 1
  end
