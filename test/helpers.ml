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

(* Alcotest checkers. *)
let int_list = Alcotest.(list int)
let string_list = Alcotest.(list string)

let check_ids = Alcotest.(check int_list)
