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
   - fig12   -> trigger + partial re-annotation after a delete

   A second table times one memo-hit read on the hospital fixture
   through Snapshot.request, Serve.request (live) and
   Serve.snapshot_request (pinned) — the serving layer's fixed
   per-call cost — in ns and minor words per call, and one fill: a
   second subject's first read of a query the snapshot memoized for
   the anonymous subject, decided without evaluating; the run exits 1
   if a fill was not counted as one or differs from
   Engine.request_direct.  A third times the
   state digest after a committed epoch on XMark f=0.1 under a
   sign-only coverage policy: Engine.state_checksum, carried along the
   snapshot chain, next to the full fold it replaces
   (Snapshot.fold_digest); the run exits 1 if the two differ.  A
   fourth times the structural repair's fixed cost on XMark f=0.1
   under the 16-role policy with its Overlap graph: the footprint
   trigger next to the expansion test it replaced, a plan compile on
   a memo miss and on a hit, and the scopes plus the region of a
   person insert on sorted-array sets next to Set.Make (Int); it
   prints the plan memo's distinct keys over a mix of update shapes
   and exits 1 if a trigger set differs from the expansion test or a
   memoized plan from a fresh compile.  A fifth prices what a
   read-demanded structural epoch rebuilds for its readers on XMark
   f=0.1, annotated for the anonymous subject and the 16 roles: the
   pre/size index built from scratch next to Index.patch from the last
   shape's, into fresh arrays and into a reused spare (the storage of
   an index nobody reads, as an engine's writer patches), after a
   person insert and after its delete; then the snapshot's grant
   column after the insert, by the walk a first check runs
   (Snapshot.grant_walk) next to the carry a capture runs from the
   previous column (Snapshot.grant_carry: Index.carry plus the
   written ids); in ns, minor and major words and minor collections
   per call.  It exits 1 if a patched index differs from a built one
   or the carried column from the walked one. *)

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

(* One row: [name], then ns and minor words per call of [f] over
   [calls] calls.  Counted with [Gc.minor_words] around a plain loop:
   OCaml 5's [Gc.quick_stat], which Bechamel's allocation instance
   reads, only advances at minor collections. *)
let row ?(calls = 200_000) name f =
  (* The first call fills any memo; every timed call hits it. *)
  ignore (Sys.opaque_identity (f ()));
  let words = Gc.minor_words () in
  let (), elapsed =
    Xmlac_util.Timing.time (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  let per = float_of_int calls in
  [
    name;
    Printf.sprintf "%.1f" (elapsed /. per *. 1e9);
    Printf.sprintf "%.1f" ((Gc.minor_words () -. words) /. per);
  ]

let print_rows header rows =
  let table =
    Xmlac_util.Tabular.create
      ~headers:[ header; "ns/call"; "minor words/call" ]
  in
  Xmlac_util.Tabular.set_align table Xmlac_util.Tabular.[ Left; Right; Right ];
  List.iter (Xmlac_util.Tabular.add_row table) rows;
  Xmlac_util.Tabular.print table

(* A fill per call: on a fresh capture of the two-role hospital
   fixture, [queries] are memoized by the anonymous subject, untimed,
   then each is read once as [staff]: no parse, no evaluation, the
   decision read off the memo's counts.  Returns the row and how many
   fills were not fills or differ from [request_direct]. *)
let fill_row () =
  let module W = Xmlac_workload in
  let policy =
    Policy_io.parse_exn
      "role staff\nrole doctor inherits staff\ndefault deny\nconflict deny\n\
       allow //patient\ndeny @staff //patient[treatment]\nallow @doctor //treatment\n"
  in
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let policy = Engine.policy eng and doc = Engine.document eng in
  let queries =
    Array.init 1_000 (Printf.sprintf "//patient[psn != \"x%d\"]")
  in
  let rounds = 40 and wrong = ref 0 and elapsed = ref 0.0 and words = ref 0.0 in
  for round = 1 to rounds do
    let metrics = Xmlac_util.Metrics.create () in
    let snap = Snapshot.capture ~epoch:0 ~policy ~metrics (Tree.copy doc) in
    Array.iter (fun q -> ignore (Snapshot.request snap q)) queries;
    let w0 = Gc.minor_words () in
    let (), t =
      Xmlac_util.Timing.time (fun () ->
          Array.iter
            (fun q -> ignore (Sys.opaque_identity (Snapshot.request ~subject:"staff" snap q)))
            queries)
    in
    words := !words +. (Gc.minor_words () -. w0);
    elapsed := !elapsed +. t;
    let fills = Xmlac_util.Metrics.counter metrics "snapshot.cache.fills" in
    wrong := !wrong + abs (Array.length queries - fills);
    if round = 1 then
      Array.iter
        (fun q ->
          if
            Snapshot.request ~subject:"staff" snap q
            <> Engine.request_direct ~subject:"staff" eng Engine.Native q
          then incr wrong)
        queries
  done;
  let per = float_of_int (rounds * Array.length queries) in
  ( [ "Snapshot.request fill (second subject on a memoized query)";
      Printf.sprintf "%.1f" (!elapsed /. per *. 1e9);
      Printf.sprintf "%.1f" (!words /. per) ],
    !wrong )

let read_rows () =
  let module W = Xmlac_workload in
  let module S = Xmlac_serve.Serve in
  let eng =
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (W.Hospital.sample_document ())
  in
  ignore (Engine.annotate eng);
  let serve = S.create eng in
  let snap = Engine.current_snapshot eng in
  let q = "//patient/name" in
  let fill, wrong = fill_row () in
  print_rows "memo-hit read"
    [
      row "Snapshot.request" (fun () -> Snapshot.request snap q);
      fill;
      row "Serve.request (live)" (fun () -> S.request serve Engine.Native q);
      row "Serve.snapshot_request (pinned)" (fun () ->
          S.snapshot_request serve snap q);
    ];
  if wrong > 0 then begin
    Printf.printf
      "ASSERTION FAILED: %d filled decisions differ from request_direct or \
       were not fills\n"
      wrong;
    exit 1
  end

let digest_rows () =
  let factor = 0.1 in
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd
      ~policy:(Bench_common.mid_coverage_policy factor)
      (Bench_common.doc factor)
  in
  ignore (Engine.annotate eng);
  let update = List.hd (Xmlac_workload.Queries.delete_updates ~n:1 ()) in
  ignore (Engine.update eng (Xmlac_xpath.Pp.expr_to_string update));
  let policy = Engine.policy eng and doc = Engine.document eng in
  print_rows
    (Printf.sprintf "state digest, %d nodes" (Tree.size doc))
    [
      row "Engine.state_checksum" (fun () -> Engine.state_checksum eng);
      row ~calls:500 "Snapshot.fold_digest (full fold)" (fun () ->
          Snapshot.fold_digest policy doc);
    ];
  let carried = Engine.state_checksum eng
  and folded = Snapshot.fold_digest policy doc in
  if carried <> folded then begin
    Printf.printf "ASSERTION FAILED: state_checksum %08lx, full fold %08lx\n"
      carried folded;
    exit 1
  end

module Sm = Xmlac_xpath.Schema_match
module Iset = Set.Make (Int)

(* The trigger input of an insert below [at]: the grafted root and
   everything below it, as the engine builds it. *)
let insert_touched at name =
  let at = Xmlac_xpath.Parser.parse_exn at in
  let root = Xmlac_xpath.Ast.{ steps = at.steps @ [ step Child (Name name) ] } in
  [ root; Xmlac_xpath.Ast.{ steps = root.steps @ [ step Descendant Wildcard ] } ]

let repair_rows () =
  let factor = 0.1 in
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd
      ~policy:(Bench_common.role_policy factor) (Bench_common.doc factor)
  in
  let policy = Engine.policy eng and sg = Engine.schema_graph eng in
  let depend = Engine.depend eng in
  let rules = Array.of_list (Policy.rules policy) in
  (* The trigger it replaced: some expansion member overlaps an update. *)
  let expansion_test updates =
    let triggers =
      Rule.memo_resource (fun e ->
          List.exists
            (fun x -> List.exists (Sm.overlap sg x) updates)
            (Xmlac_xpath.Expand.expand ~schema:sg e))
    in
    List.filter (fun i -> triggers rules.(i).Rule.resource)
      (List.init (Array.length rules) Fun.id)
  in
  let compile key =
    Plan.rewrite ~schema:sg
      (Plan.of_rules policy (List.map (fun i -> rules.(i)) key))
  in
  let person = insert_touched "/site/people" "person" in
  let shapes =
    [ person;
      insert_touched "/site/regions/europe" "item";
      insert_touched "/site/open_auctions" "open_auction";
      insert_touched "/site/closed_auctions" "closed_auction";
      insert_touched "/site/people/person" "creditcard";
      insert_touched "/site/people/person/profile" "interest" ]
    @ List.map (fun e -> [ e ]) (Xmlac_workload.Queries.delete_updates ~n:40 ())
  in
  let wrong = ref 0 in
  let keys =
    List.map
      (fun updates ->
        let r = Trigger.run_all ~schema:sg depend ~updates in
        if r.Trigger.directly <> expansion_test updates then incr wrong;
        let key = Trigger.all r in
        let memo = Depend.plan ~schema:sg depend key and fresh = compile key in
        if
          not
            (Plan.equal_node memo.Plan.query fresh.Plan.query
            && memo.Plan.mark = fresh.Plan.mark
            && memo.Plan.default = fresh.Plan.default)
        then incr wrong;
        key)
      shapes
    |> List.sort_uniq compare |> Array.of_list
  in
  (* Cycles through the distinct keys, one per call. *)
  let cycle f =
    let k = ref 0 in
    fun () ->
      incr k;
      f keys.(!k mod Array.length keys)
  in
  (* The scopes and the region of a person insert, on indexes of the
     document before and after it, as a read-demanded repair runs. *)
  let before = Engine.document eng in
  let after = Tree.copy before in
  let fragment = Tree.create ~root_name:"person" in
  ignore (Tree.add_child fragment (Tree.root fragment) ~value:"pb" "name");
  ignore (Tree.add_child fragment (Tree.root fragment) ~value:"1" "creditcard");
  ignore
    (Xmlac_xmldb.Update.insert_nodes after
       ~at:(Xmlac_xpath.Parser.parse_exn "/site/people") ~fragment);
  let pre = Xml_backend.make before and post = Xml_backend.make after in
  let resources =
    List.sort_uniq compare
      (List.map
         (fun (r : Rule.t) -> r.Rule.resource)
         (Trigger.triggered_rules depend
            (Trigger.run_all ~schema:sg depend ~updates:person)))
  in
  let region () =
    List.fold_left
      (fun acc e ->
        Plan.Ids.union acc
          (Plan.Ids.sym_diff
             (Plan.Ids.of_list (pre.Backend.eval_ids e))
             (Plan.Ids.of_list (post.Backend.eval_ids e))))
      Plan.Ids.empty resources
    |> Plan.Ids.filter post.Backend.has_node
  in
  let set_region () =
    List.fold_left
      (fun acc e ->
        let a = Iset.of_list (pre.Backend.eval_ids e)
        and b = Iset.of_list (post.Backend.eval_ids e) in
        Iset.union acc (Iset.union (Iset.diff a b) (Iset.diff b a)))
      Iset.empty resources
    |> Iset.filter post.Backend.has_node
  in
  if Plan.Ids.elements (region ()) <> Iset.elements (set_region ()) then
    incr wrong;
  print_rows
    (Printf.sprintf "structural repair, %d rules, %d nodes"
       (Array.length rules) (Tree.size before))
    [
      row ~calls:2_000 "trigger (footprints)" (fun () ->
          Trigger.run_all ~schema:sg depend ~updates:person);
      row ~calls:300 "trigger (expansion test, replaced)" (fun () ->
          expansion_test person);
      row ~calls:200 "plan compile, memo miss" (cycle compile);
      row ~calls:100_000 "plan compile, memo hit"
        (cycle (Depend.plan ~schema:sg depend));
      row ~calls:500 "scopes + region (array sets)" region;
      row ~calls:500 "scopes + region (Set.Make, replaced)" set_region;
    ];
  Printf.printf "plan memo: %d distinct triggered sets over %d update shapes\n"
    (Array.length keys) (List.length shapes);
  if !wrong > 0 then begin
    Printf.printf
      "ASSERTION FAILED: %d trigger sets, plans or regions differ from the \
       reference\n"
      !wrong;
    exit 1
  end

(* [calls] calls of [f]: ns, minor words, major words and minor
   collections per call.  [Gc.counters] is exact at any point, and the
   minor collection count is a global tally. *)
let gc_row ~calls name f =
  ignore (Sys.opaque_identity (f ()));
  let minor0, _, major0 = Gc.counters () in
  let collections0 = (Gc.quick_stat ()).Gc.minor_collections in
  let (), elapsed =
    Xmlac_util.Timing.time (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  let minor1, _, major1 = Gc.counters () in
  let collections1 = (Gc.quick_stat ()).Gc.minor_collections in
  let per x = Printf.sprintf "%.1f" (x /. float_of_int calls) in
  [
    name;
    per (elapsed *. 1e9);
    per (minor1 -. minor0);
    per (major1 -. major0);
    Printf.sprintf "%.2f" (float_of_int (collections1 - collections0) /. float_of_int calls);
  ]

module Index = Xmlac_xpath.Index

let index_rows () =
  let eng =
    Engine.create ~dtd:Xmlac_workload.Xmark.dtd
      ~policy:(Bench_common.role_policy 0.1) (Bench_common.doc 0.1)
  in
  ignore (Engine.annotate eng);
  ignore (Engine.annotate_subjects eng);
  let policy = Engine.policy eng and live = Tree.copy (Engine.document eng) in
  let at = Xmlac_xpath.Parser.parse_exn "/site/people" in
  let fragment = Tree.create ~root_name:"person" in
  List.iter
    (fun (name, value) ->
      ignore (Tree.add_child fragment (Tree.root fragment) ~value name))
    [ ("name", "pb0"); ("emailaddress", "mailto:pb0@example.com");
      ("creditcard", "1234 5678 9012 3456") ];
  let wrong = ref 0 in
  (* The storage an engine's writer patches into: an index of an
     earlier state that nobody reads. *)
  let spare = Index.build live in
  (* One generation's write, then its index three ways; returns the
     view frozen after it, the change set and the patched index. *)
  let epoch label old write =
    write ();
    let patched = Index.patch old live and built = Index.build live in
    if not (Index.equal patched built) then incr wrong;
    let reused = Index.patch ~into:spare old live in
    if not (Index.equal reused built) then incr wrong;
    let rows =
      [ gc_row ~calls:300 ("Index.build, " ^ label) (fun () -> Index.build live);
        gc_row ~calls:300 ("Index.patch, " ^ label) (fun () -> Index.patch old live);
        gc_row ~calls:300 ("Index.patch into a reused spare, " ^ label) (fun () ->
            Index.patch ~into:spare old live) ]
    in
    let view, stats = Tree.freeze live in
    (rows, view, stats.Tree.changed, patched)
  in
  let view0, _ = Tree.freeze live in
  let idx0 = Index.build view0 in
  let grants0 = Snapshot.grant_walk policy view0 in
  (* The grafted nodes get a grant the defaults do not give, so a
     carry that misses a written rank differs from the walk. *)
  let grant id () =
    Option.iter
      (fun n ->
        Tree.set_sign live n (Some Tree.Plus);
        Tree.set_bits live n (Some (Xmlac_util.Bitset.of_list [ 0; 15 ])))
      (Tree.find live id)
  in
  let insert_rows, view1, changed1, idx1 =
    epoch "person insert" idx0 (fun () ->
        ignore (Xmlac_xmldb.Update.insert_nodes live ~at ~fragment);
        Tree.fold_changed grant live ())
  in
  let delete_rows, _, _, _ =
    epoch "its delete" idx1 (fun () ->
        ignore
          (Xmlac_xmldb.Update.delete live
             (Xmlac_xpath.Parser.parse_exn "/site/people/person[name = \"pb0\"]")))
  in
  let carry () =
    Snapshot.grant_carry policy ~from:idx0 idx1 grants0 view1 ~written:changed1
  in
  if carry () <> Snapshot.grant_walk policy view1 then incr wrong;
  let table =
    Xmlac_util.Tabular.create
      ~headers:
        [ Printf.sprintf "reader structures, %d nodes" (Tree.size view1);
          "ns/call"; "minor words"; "major words"; "minor GCs" ]
  in
  Xmlac_util.Tabular.set_align table
    Xmlac_util.Tabular.[ Left; Right; Right; Right; Right ];
  List.iter (Xmlac_util.Tabular.add_row table)
    (insert_rows @ delete_rows
    @ [ gc_row ~calls:1_000 "grants walk after the insert" (fun () ->
            Snapshot.grant_walk policy view1);
        gc_row ~calls:1_000 "grants carry across the insert" carry ]);
  Xmlac_util.Tabular.print table;
  if !wrong > 0 then begin
    Printf.printf
      "ASSERTION FAILED: %d patched indexes or carried grant columns differ \
       from a build or a walk\n"
      !wrong;
    exit 1
  end

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
  Xmlac_util.Tabular.print table;
  read_rows ();
  digest_rows ();
  repair_rows ();
  index_rows ()
