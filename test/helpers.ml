(* Shared fixtures and generators for the test suites. *)

module Tree = Xmlac_xml.Tree
module Dtd = Xmlac_xml.Dtd
module Sg = Xmlac_xml.Schema_graph
module Xp = Xmlac_xpath
module Prng = Xmlac_util.Prng

let parse = Xp.Parser.parse_exn

let hospital_doc = Xmlac_workload.Hospital.sample_document
let hospital_dtd = Xmlac_workload.Hospital.dtd
let hospital_sg = lazy (Sg.build hospital_dtd)

let xmark_sg = lazy (Sg.build Xmlac_workload.Xmark.dtd)

(* Ids selected by an expression on a document. *)
let ids doc expr_str =
  List.sort Stdlib.compare
    (List.map
       (fun (n : Tree.node) -> n.Tree.id)
       (Xp.Eval.eval doc (parse expr_str)))

let names_of nodes = List.map (fun (n : Tree.node) -> n.Tree.name) nodes

(* Substring test for error-message assertions. *)
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* A small random hospital-schema document for property tests. *)
let random_hospital_doc rng =
  let departments = 1 + Prng.int rng 3 in
  let patients_per_dept = 1 + Prng.int rng 6 in
  Xmlac_workload.Hospital.generate
    ~seed:(Prng.next_int64 rng)
    ~departments ~patients_per_dept ()

(* QCheck generator wrapping our deterministic PRNG: draws a seed from
   QCheck's own state, then produces the derived artifact. *)
let seed_gen = QCheck2.Gen.int64

(* Random XPath expression over the hospital schema, with value
   constants that occur in generated documents. *)
let hospital_value_pool = function
  | "med" -> [ "enoxaparin"; "celecoxib"; "aspirin" ]
  | "bill" -> [ "700"; "1000"; "1600" ]
  | "psn" -> [ "033"; "042" ]
  | _ -> []

let hospital_qgen_config =
  {
    Xp.Qgen.default_config with
    Xp.Qgen.value_pool = hospital_value_pool;
    pred_prob = 0.4;
  }

let random_hospital_expr rng =
  Xp.Qgen.gen_expr ~config:hospital_qgen_config rng (Lazy.force hospital_sg)

(* A random delete target that does not take out the document root. *)
let rec random_update rng =
  let e = random_hospital_expr rng in
  match e.Xp.Ast.steps with
  | [ { Xp.Ast.test = Xp.Ast.Name "hospital"; _ } ]
  | [ { Xp.Ast.test = Xp.Ast.Wildcard; _ } ] ->
      random_update rng
  | _ -> Xp.Pp.expr_to_string e

(* Random role DAG: edges only point at earlier declarations, so the
   graph is acyclic by construction. *)
let random_subjects rng =
  let open Xmlac_core in
  let n = 1 + Prng.int rng 3 in
  Subject.make_exn
    (List.init n (fun i ->
         let name = Printf.sprintf "r%d" i in
         let inherits =
           List.filter_map
             (fun j ->
               if Prng.int rng 3 = 0 then Some (Printf.sprintf "r%d" j)
               else None)
             (List.init i Fun.id)
         in
         let eff () = if Prng.bool rng then Rule.Plus else Rule.Minus in
         let ds = if Prng.int rng 4 = 0 then Some (eff ()) else None in
         let cr = if Prng.int rng 4 = 0 then Some (eff ()) else None in
         Subject.role ~inherits ?ds ?cr name))

(* A random multi-role policy over [subjects]: one to five rules on
   random hospital expressions, each qualified by a random subset of
   the roles. *)
let random_role_policy rng subjects =
  let open Xmlac_core in
  let names = Subject.names subjects in
  let rules =
    List.init
      (1 + Prng.int rng 5)
      (fun i ->
        let quals = List.filter (fun _ -> Prng.int rng 3 = 0) names in
        Rule.make
          ~name:(Printf.sprintf "Q%d" i)
          ~subjects:quals
          ~resource:(random_hospital_expr rng)
          (if Prng.bool rng then Rule.Plus else Rule.Minus))
  in
  let ds = if Prng.bool rng then Rule.Plus else Rule.Minus in
  let cr = if Prng.bool rng then Rule.Plus else Rule.Minus in
  Policy.make ~subjects ~ds ~cr rules

(* A two-role hospital policy: doctors inherit staff's rules, staff
   lose patients under treatment, doctors see treatments. *)
let hospital_roles_policy =
  lazy
    (Xmlac_core.Policy_io.parse_exn
       "role staff\n\
        role doctor inherits staff\n\
        default deny\n\
        conflict deny\n\
        allow //patient\n\
        deny @staff //patient[treatment]\n\
        allow @doctor //treatment\n")

(* ------------------------------------------------------------------ *)
(* The paper's store comparison (Section 6), outside the engine: one
   op script replayed on a default engine and on a row and a column
   store driven through [Annotator] / [Reannotator] directly — no WAL,
   no recovery.  [cross_disagreement] compares the stores' anonymous
   and per-role accessible sets with the engine's. *)

type cross_op =
  | Annotate
  | Annotate_subjects
  | Update of string
  | Insert of { at : string; fragment : Tree.t }

(* All three backends over (copies of) one hospital document. *)
let backends_for doc ~default_sign =
  let open Xmlac_core in
  let mapping = Xmlac_shrex.Mapping.of_dtd hospital_dtd in
  let store kind =
    let db = Xmlac_reldb.Database.create kind in
    ignore (Xmlac_shrex.Shred.load mapping ~default_sign db doc);
    Rel_backend.make mapping db
  in
  let native = Xml_backend.make (Tree.copy doc) in
  let row = store Xmlac_reldb.Table.Row in
  [ native; row; store Xmlac_reldb.Table.Column ]

type cross = {
  eng : Xmlac_core.Engine.t;
  (* The engine's document, replayed: an insert grafts here first and
     the relational stores copy the fresh universal ids, which match
     the engine's because both sides start from copies of one tree. *)
  replica : Tree.t;
  stores : (Xmlac_reldb.Database.t * Xmlac_core.Backend.t) list;
  mutable bits : bool;  (* an [Annotate_subjects] has run *)
}

let cross_stores ?optimize ~dtd ~policy doc =
  let open Xmlac_core in
  let eng = Engine.create ?optimize ~dtd ~policy doc in
  let load = Rel_backend.load (Engine.mapping eng) (Engine.policy eng) in
  {
    eng;
    replica = Tree.copy doc;
    stores =
      [ load Xmlac_reldb.Table.Row doc; load Xmlac_reldb.Table.Column doc ];
    bits = false;
  }

(* One op on an engine alone. *)
let engine_apply eng op =
  let open Xmlac_core in
  match op with
  | Annotate -> ignore (Engine.annotate eng)
  | Annotate_subjects -> ignore (Engine.annotate_subjects eng)
  | Update q -> ignore (Engine.update eng q)
  | Insert { at; fragment } -> ignore (Engine.insert eng ~at ~fragment)

let cross_apply c op =
  let open Xmlac_core in
  let eng = c.eng in
  engine_apply eng op;
  let policy = Engine.policy eng and schema = Engine.schema_graph eng in
  let each f = List.iter (fun (db, b) -> f db b) c.stores in
  (* The engine's repair cycle, on each relational store. *)
  let restructure ~touched apply =
    each (fun db b ->
        let p =
          Reannotator.prepare ~schema ~bits:c.bits b (Engine.depend eng)
            ~touched
        in
        let deleted_roots = apply db b in
        ignore
          (Reannotator.finish ~schema b (Engine.depend eng) p ~deleted_roots))
  in
  match op with
  | Annotate ->
      each (fun _ b ->
          ignore (Annotator.annotate_with_plan b (Engine.plan eng)))
  | Annotate_subjects ->
      c.bits <- true;
      each (fun _ b -> ignore (Annotator.annotate_subjects ~schema b policy))
  | Update q ->
      let e = parse q in
      ignore (Xmlac_xmldb.Update.delete c.replica e);
      restructure ~touched:[ e ] (fun _ b -> b.Backend.delete_update e)
  | Insert { at; fragment } ->
      let at_expr = parse at in
      let root_name = (Tree.root fragment).Tree.name in
      let root_path =
        Xp.Ast.{ steps = at_expr.steps @ [ step Child (Name root_name) ] }
      in
      let touched =
        [ root_path;
          Xp.Ast.{ steps = root_path.steps @ [ step Descendant Wildcard ] } ]
      in
      let roots =
        Xmlac_xmldb.Update.insert_nodes c.replica ~at:at_expr ~fragment
      in
      restructure ~touched (fun db _ ->
          List.iter
            (fun root ->
              ignore
                (Xmlac_shrex.Shred.insert_subtree (Engine.mapping eng)
                   ~default_sign:(Rule.effect_to_string (Policy.ds policy))
                   ~default_bits:(Policy.default_bits policy) db root))
            roots;
          List.length roots)

(* [None] when both relational stores materialize the engine's
   anonymous and per-role accessible sets, else the first difference. *)
let cross_disagreement c =
  let open Xmlac_core in
  let policy = Engine.policy c.eng in
  let differs (_, b) =
    if
      Backend.accessible_ids b ~default:(Policy.ds policy)
      <> Engine.accessible c.eng
    then Some (b.Backend.name ^ ": anonymous accessible set differs")
    else
      List.find_map
        (fun role ->
          let role_idx =
            Option.get (Subject.index (Policy.subjects policy) role)
          in
          if
            Backend.accessible_ids_role b ~default:(Policy.default_bits policy)
              ~role:role_idx
            <> Engine.accessible_subject c.eng role
          then
            Some
              (Printf.sprintf "%s: %s's accessible set differs" b.Backend.name
                 role)
          else None)
        (Policy.roles policy)
  in
  List.find_map differs c.stores

let check_cross msg c =
  match cross_disagreement c with
  | None -> ()
  | Some diff -> Alcotest.failf "%s: %s" msg diff

(* The all-or-nothing decision of every store on one query: the
   engine's, then each relational store's off its own signs. *)
let cross_decisions c query =
  let open Xmlac_core in
  let default = Policy.ds (Engine.policy c.eng) in
  ("native", Engine.request c.eng Engine.Native query)
  :: List.map
       (fun (_, b) ->
         (b.Backend.name, Requester.request b ~default (parse query)))
       c.stores

(* Whether a snapshot's rank-space check ([Snapshot.accessible])
   gives, at every rank of its index and for the anonymous subject and
   every role of [policy], the verdict of [Cam.lookup] on a fresh map
   of [doc] (default: the snapshot's own view), found by id. *)
let rank_check_coherent ~policy ?doc snap =
  let open Xmlac_core in
  let doc = Option.value doc ~default:(Snapshot.document snap) in
  let idx = Snapshot.index snap in
  let n = Xp.Index.length idx in
  let verdicts subject =
    let cam =
      match subject with
      | None -> Cam.build doc ~default:(Policy.ds policy)
      | Some role ->
          Cam.build_role doc
            ~role:(Option.get (Subject.index (Policy.subjects policy) role))
            ~default:(Policy.resolved_ds policy role)
    in
    let check = Snapshot.accessible ?subject snap in
    List.for_all
      (fun r ->
        match Tree.find doc (Xp.Index.id idx r) with
        | Some node -> check r = (Cam.lookup cam node = Tree.Plus)
        | None -> false)
      (List.init n Fun.id)
  in
  Tree.size doc = n
  && List.for_all verdicts (None :: List.map Option.some (Policy.roles policy))

(* The same over the engine's current snapshot against its live
   document, which also shows the snapshot holds the live state.
   Meaningful between epochs. *)
let snapshot_coherent eng =
  let open Xmlac_core in
  rank_check_coherent ~policy:(Engine.policy eng) ~doc:(Engine.document eng)
    (Engine.current_snapshot eng)

(* Alcotest checkers. *)
let int_list = Alcotest.(list int)
let string_list = Alcotest.(list string)

let check_ids = Alcotest.(check int_list)
