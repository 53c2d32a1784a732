(* Micro-benchmarks (Bechamel): one Test.make per table/figure kernel.

   These time the algorithmic heart of each experiment in isolation —
   useful for regressions independently of the sweep harness:

   - table3  -> Redundancy-Elimination on the hospital policy
   - bitset  -> subset / mem on 16-member role sets, the coverage check
                Redundancy-Elimination runs before every containment test
   - table5  -> shredding a document into an INSERT script
   - fig9    -> executing the INSERT script (row engine)
   - fig10   -> one all-or-nothing request on an annotated store
   - fig11   -> full annotation of a document
   - fig12   -> trigger + partial re-annotation after a delete *)

open Bechamel
open Toolkit
module Tree = Xmlac_xml.Tree
open Xmlac_core

let factor = 0.01

let make_tests () =
  let doc = Bench_common.doc factor in
  let policy = Bench_common.mid_coverage_policy factor in
  let stmts =
    Xmlac_shrex.Shred.insert_statements Bench_common.mapping ~default_sign:"-"
      doc
  in
  let annotated () =
    let working = Tree.copy doc in
    let backend = Xml_backend.make working in
    let _ = Annotator.annotate backend policy in
    backend
  in
  let query = List.hd (Xmlac_workload.Queries.response_queries ~n:1 ()) in
  let update = List.hd (Xmlac_workload.Queries.delete_updates ~n:1 ()) in
  let depend = Depend.build ~mode:Depend.Paper policy in
  (* Equal but separately built, so [subset] scans every word and
     answers true. *)
  let roles = Xmlac_util.Bitset.of_list (List.init 16 Fun.id) in
  let coverage = Xmlac_util.Bitset.of_list (List.init 16 Fun.id) in
  [
    Test.make ~name:"table3/optimize"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Optimizer.optimize_policy Xmlac_workload.Hospital.policy)));
    Test.make ~name:"bitset/subset"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Xmlac_util.Bitset.subset coverage roles)));
    Test.make ~name:"bitset/mem"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Xmlac_util.Bitset.mem 15 roles)));
    Test.make ~name:"table5/shred"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Xmlac_shrex.Shred.insert_statements Bench_common.mapping
                ~default_sign:"-" doc)));
    Test.make ~name:"fig9/load-script"
      (Staged.stage (fun () ->
           let db = Xmlac_reldb.Database.create Xmlac_reldb.Table.Row in
           Xmlac_shrex.Mapping.create_tables Bench_common.mapping db;
           Sys.opaque_identity (Xmlac_shrex.Shred.load_script db stmts)));
    Test.make ~name:"fig10/request"
      (let backend = annotated () in
       Staged.stage (fun () ->
           Sys.opaque_identity
             (Requester.request backend ~default:(Policy.ds policy) query)));
    Test.make ~name:"fig11/annotate"
      (let backend = Xml_backend.make (Tree.copy doc) in
       Staged.stage (fun () ->
           Sys.opaque_identity (Annotator.annotate backend policy)));
    Test.make ~name:"fig12/trigger"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Trigger.run ~schema:Bench_common.schema_graph depend ~update)));
  ]

let run () =
  Bench_common.section
    (Printf.sprintf "Micro-benchmarks (Bechamel, xmark f=%g)" factor);
  let tests = make_tests () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"xmlac" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Xmlac_util.Tabular.create ~headers:[ "kernel"; "time/run" ] in
  Xmlac_util.Tabular.set_align table
    [ Xmlac_util.Tabular.Left; Xmlac_util.Tabular.Right ];
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Bench_common.pp_secs (e /. 1e9)
        | _ -> "n/a"
      in
      Xmlac_util.Tabular.add_row table [ name; ns ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Xmlac_util.Tabular.print table
