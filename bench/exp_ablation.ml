(* Ablation (beyond the paper): Paper-mode vs Overlap-mode trigger.

   The published trigger uses containment tests between expanded rule
   paths and the update; the Overlap mode replaces them with
   schema-level overlap, trading some extra triggered rules (hence
   re-annotation work) for provable equivalence with full annotation.
   This experiment quantifies both sides: triggered-rule counts,
   re-annotation time on the native store, and whether each mode's
   result matches the reference semantics on the updated document in
   every store.  Besides the generated deletes, the updates delete
   credit cards, which lifts the policy's [//person[creditcard]/profile]
   denial from surviving profiles, so a repair that writes nothing
   cannot match.  Overlap is the engine's trigger, so the run exits
   non-zero when its row does not match in any store, or when no update
   changes the accessibility of a surviving node. *)

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
    @ List.map Xmlac_xpath.Parser.parse_exn
        [ "//person/creditcard"; "//person[address]/creditcard" ]
  in
  (* Each update with the reference: the updated document and its
     accessible ids. *)
  let references =
    List.map
      (fun update ->
        let reference = Tree.copy doc in
        ignore (Xmlac_xmldb.Update.delete reference update);
        (update, reference, Policy.accessible_ids policy reference))
      updates
  in
  (* Surviving nodes whose accessibility the updates change: the
     signs a correct repair must rewrite. *)
  let flips =
    let before = Policy.accessible_ids policy doc in
    List.fold_left
      (fun acc (_, reference, after) ->
        let lost =
          List.filter
            (fun id ->
              Tree.find reference id <> None && not (List.mem id after))
            before
        in
        let gained = List.filter (fun id -> not (List.mem id before)) after in
        acc + List.length lost + List.length gained)
      0 references
  in
  let t =
    Tabular.create
      ~headers:
        [ "mode"; "avg triggered"; "avg region"; "avg reannot";
          "matches reference" ]
  in
  let matches =
    List.map
      (fun (mode_label, mode) ->
        let depend = Depend.build ~mode policy in
        let triggered = ref 0 and region = ref 0 and elapsed = ref 0.0 in
        let correct = ref true in
        List.iter
          (fun (update, _, expected) ->
            List.iter
              (fun (s : Bench_common.store) ->
                let backend = s.Bench_common.backend in
                let _ = Annotator.annotate backend policy in
                let stats, dt =
                  Timing.time (fun () ->
                      Reannotator.reannotate ~schema:Bench_common.schema_graph
                        backend depend ~update)
                in
                (* Only the native store is timed; every store is
                   checked. *)
                if s.Bench_common.label = "xquery" then begin
                  triggered :=
                    !triggered + List.length stats.Reannotator.triggered;
                  region := !region + stats.Reannotator.affected;
                  elapsed := !elapsed +. dt
                end;
                if
                  expected
                  <> Backend.accessible_ids backend ~default:(Policy.ds policy)
                then correct := false)
              (Bench_common.stores_for doc
                 ~default_sign:(Rule.effect_to_string (Policy.ds policy))))
          references;
        let n = float_of_int (List.length updates) in
        Tabular.add_row t
          [
            mode_label;
            Printf.sprintf "%.1f / %d"
              (float_of_int !triggered /. n)
              (Policy.size policy);
            Printf.sprintf "%.1f" (float_of_int !region /. n);
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
    "(factor %s, %d updates flipping %d surviving nodes; region and \
     reannot on xquery, matches checked on xquery/monetsql/postgres; \
     overlap triggers more rules but is provably complete)\n"
    (Bench_common.pp_factor factor)
    (List.length updates) flips;
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
  if flips = 0 then begin
    prerr_endline "ablation: no update changes a surviving node's access";
    exit 1
  end;
  if not (List.assoc "overlap" matches) then begin
    prerr_endline "ablation: the overlap trigger does not match the reference";
    exit 1
  end
