(* The traced run's per-layer split.  Each layer's time comes from the
   benchmark timing its own calls into that layer's public functions;
   the library itself is not instrumented.

   Reads: after the end-to-end call, the same request is replayed
   through the layer calls of the miss path — parse, evaluation on the
   native tree, the (role-)CAM check — and the recombined decision must
   equal the end-to-end one.

   Mutations: the same mutation is replayed on a mirror store set built
   like the experiments' [stores_for] (one native tree and two shredded
   relational databases, annotated with the engine's own plan), through
   the re-annotator, the shared bitmap pass, CAM maintenance and
   snapshot publication. *)

module Tree = Xmlac_xml.Tree
module Metrics = Xmlac_util.Metrics
open Xmlac_core

(* --- read path -------------------------------------------------------- *)

(* The state a read is answered from: a document, how the native store
   evaluates on it, and its single-subject CAM. *)
type view = {
  doc : Tree.t;
  eval : Xmlac_xpath.Ast.expr -> int list;
  cam : Cam.t;
  version : int;  (* role CAMs built for another version are rebuilt *)
}

let snapshot_view snap =
  let doc = Snapshot.document snap in
  {
    doc;
    eval =
      (fun e ->
        List.sort_uniq compare
          (List.map (fun (n : Tree.node) -> n.Tree.id) (Xmlac_xpath.Eval.eval doc e)));
    cam = Snapshot.cam snap;
    version = Snapshot.epoch snap;
  }

let engine_view eng =
  {
    doc = Engine.document eng;
    eval = (Engine.backend eng Engine.Native).Backend.eval_ids;
    cam = Engine.cam eng;
    version = Engine.epoch eng;
  }

(* Role CAMs the split has built, per role, tagged with the view version
   they describe — built lazily, once per version, like the engine's and
   the snapshots' own. *)
type role_cams = (string, int * Cam.t) Hashtbl.t

let role_cams () : role_cams = Hashtbl.create 16

let split_read tr ~op ~policy (cams : role_cams) view ?subject query =
  let span name f = Meter.span tr ~op ~parent:"read.split" name f in
  let expr = span "xpath.parse" (fun () -> Requester.parse_or_fail query) in
  let ids = span "xmldb.eval" (fun () -> view.eval expr) in
  let cam =
    match subject with
    | None -> view.cam
    | Some role -> (
        match Hashtbl.find_opt cams role with
        | Some (v, c) when v = view.version -> c
        | _ ->
            let idx = Option.get (Subject.index (Policy.subjects policy) role) in
            let c =
              span "cam.role_build" (fun () ->
                  Cam.build_role view.doc ~role:idx
                    ~default:(Policy.resolved_ds policy role))
            in
            Hashtbl.replace cams role (view.version, c);
            c)
  in
  let lookups = List.length ids in
  let d =
    span "cam.check" (fun () ->
        Requester.decide ~ids ~accessible:(fun id ->
            match Tree.find view.doc id with
            | Some n -> Cam.lookup cam n = Tree.Plus
            | None -> false))
  in
  (d, lookups)

(* --- mutation path ---------------------------------------------------- *)

type mirror = {
  doc : Tree.t;
  stores : (string * Backend.t * Xmlac_reldb.Database.t option) list;
  policy : Policy.t;
  depend : Depend.t;
  sg : Xmlac_xml.Schema_graph.t;
  mapping : Xmlac_shrex.Mapping.t;
  bitmaps : bool;
  cam : Cam.t;
  registry : Snapshot.registry;
  metrics : Metrics.t;
  mutable epoch : int;
}

(* A mirror of [eng]'s three stores over [source] (the document the
   engine was created from), annotated like the engine at set-up. *)
let mirror eng source ~bitmaps =
  let policy = Engine.policy eng and mapping = Engine.mapping eng in
  let default_sign = Rule.effect_to_string (Policy.ds policy) in
  let default_bits = Policy.default_bits policy in
  let db engine =
    let d = Xmlac_reldb.Database.create engine in
    ignore (Xmlac_shrex.Shred.load mapping ~default_sign ~default_bits d source);
    (* Journaled like the engine's stores, so statement logging falls
       inside the layer that issues the statements. *)
    Xmlac_reldb.Database.set_wal d (Some (Xmlac_reldb.Wal.create ()));
    d
  in
  let doc = Tree.copy source in
  let row = db Xmlac_reldb.Table.Row and col = db Xmlac_reldb.Table.Column in
  let stores =
    [
      ("native", Xml_backend.make doc, None);
      ("row", Rel_backend.make mapping row, Some row);
      ("column", Rel_backend.make mapping col, Some col);
    ]
  in
  let sg = Engine.schema_graph eng in
  List.iter
    (fun (_, b, _) ->
      ignore (Annotator.annotate_with_plan b (Engine.plan eng));
      if bitmaps then ignore (Annotator.annotate_subjects ~schema:sg b policy))
    stores;
  let metrics = Metrics.create () in
  let cam = Cam.build doc ~default:(Policy.ds policy) in
  let registry = Snapshot.create_registry ~metrics () in
  Snapshot.publish registry
    (Snapshot.capture ~epoch:0 ~policy ~cam ~metrics doc);
  {
    doc;
    stores;
    policy;
    depend = Engine.depend eng;
    sg;
    mapping;
    bitmaps;
    cam;
    registry;
    metrics;
    epoch = 0;
  }

(* Replays one mutation on the mirror; returns the native store's
   re-annotation stats, the shared pass's distinct-plan count and the
   CAM entries examined. *)
let replay tr ~op m (mu : Inputs.mutation) =
  let span name f = Meter.span tr ~op ~parent:"mutation.split" name f in
  let schema = m.sg in
  let roots = ref [] in
  let touched, apply =
    match mu with
    | Inputs.Delete q ->
        let e = Xmlac_xpath.Parser.parse_exn q in
        ([ e ], fun (b : Backend.t) _ -> b.Backend.delete_update e)
    | Inputs.Insert { at; fragment } ->
        let at_expr = Xmlac_xpath.Parser.parse_exn at in
        let open Xmlac_xpath.Ast in
        let root_path =
          { steps = at_expr.steps @ [ step Child (Name (Tree.root fragment).Tree.name) ] }
        in
        let subtree = { steps = root_path.steps @ [ step Descendant Wildcard ] } in
        let default_sign = Rule.effect_to_string (Policy.ds m.policy) in
        let default_bits = Policy.default_bits m.policy in
        ( [ root_path; subtree ],
          fun _ db ->
            (match db with
            | None -> roots := Xmlac_xmldb.Update.insert_nodes m.doc ~at:at_expr ~fragment
            | Some db ->
                (* The relational stores take the native store's fresh
                   ids, as the engine's own insert does. *)
                List.iter
                  (fun r ->
                    ignore
                      (Xmlac_shrex.Shred.insert_subtree m.mapping ~default_sign
                         ~default_bits db r))
                  !roots);
            List.length !roots )
  in
  let native_stats = ref None in
  List.iter
    (fun (label, b, db) ->
      let s =
        span ("reannotator." ^ label) (fun () ->
            let p = Reannotator.prepare ~schema b m.depend ~touched in
            let deleted_roots = apply b db in
            Reannotator.finish ~schema b m.depend p ~deleted_roots)
      in
      if Option.is_none db then native_stats := Some s)
    m.stores;
  let stats = Option.get !native_stats in
  let plans =
    if m.bitmaps then
      span "annotator.subjects" (fun () ->
          List.fold_left
            (fun acc (_, b, _) ->
              acc + (Annotator.annotate_subjects ~schema b m.policy).Annotator.distinct_plans)
            0 m.stores)
    else 0
  in
  let cam_touched =
    span "cam.maintain" (fun () ->
        let n = Cam.apply_changes m.cam m.doc ~changed:stats.Reannotator.changed in
        let n =
          List.fold_left
            (fun acc (r : Tree.node) -> acc + Cam.rebuild_subtree m.cam m.doc ~root:r.Tree.id)
            n !roots
        in
        ignore (Cam.purge m.cam m.doc);
        n)
  in
  m.epoch <- m.epoch + 1;
  span "snapshot.publish" (fun () ->
      Snapshot.publish m.registry
        (Snapshot.capture ?prev:(Snapshot.current m.registry) ~epoch:m.epoch
           ~policy:m.policy ~cam:m.cam ~metrics:m.metrics m.doc));
  (stats, plans, cam_touched)
