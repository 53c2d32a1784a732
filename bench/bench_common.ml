(* Shared infrastructure for the experiment harness: document caching,
   store construction and formatting helpers. *)

module Tree = Xmlac_xml.Tree
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
open Xmlac_core

type config = {
  factors : float list;  (** xmlgen scale factors to sweep. *)
  updates : int;  (** Delete updates per factor in Figure 12. *)
  coverage_targets : float list;
  query_count : int;  (** Queries for Figure 10 (paper: 55). *)
}

let default_config =
  {
    factors = [ 0.0001; 0.001; 0.01; 0.1; 1.0 ];
    updates = 10;
    coverage_targets = Xmlac_workload.Coverage.standard_targets;
    query_count = 55;
  }

let full_config =
  {
    default_config with
    factors = [ 0.0001; 0.001; 0.01; 0.1; 1.0; 2.0; 10.0 ];
    updates = 55;
  }

let mapping = Xmlac_shrex.Mapping.of_dtd Xmlac_workload.Xmark.dtd
let schema_graph = Xmlac_shrex.Mapping.schema_graph mapping

(* Pristine documents per factor; callers receive copies so mutation
   never leaks between experiments. *)
let pristine : (float, Tree.t) Hashtbl.t = Hashtbl.create 8

let doc factor =
  let base =
    match Hashtbl.find_opt pristine factor with
    | Some d -> d
    | None ->
        let d = Xmlac_workload.Xmark.generate ~factor () in
        Hashtbl.replace pristine factor d;
        d
  in
  Tree.copy base

(* Coverage policies are derived per factor (coverage is measured on
   the factor's own document). *)
let mid_policy_cache : (float, Policy.t) Hashtbl.t = Hashtbl.create 8

let mid_coverage_policy factor =
  match Hashtbl.find_opt mid_policy_cache factor with
  | Some p -> p
  | None ->
      let p =
        Xmlac_workload.Coverage.policy_for_target ~doc:(doc factor) ~target:0.5
      in
      Hashtbl.replace mid_policy_cache factor p;
      p

(* The repo benchmark's 16-role policy (perfbench/inputs.ml): the
   coverage rules plus one qualified allow per role. *)
let role_scopes =
  [ "//emailaddress"; "//person[creditcard]/emailaddress"; "//phone"; "//interest";
    "//payment"; "//location"; "//current"; "//open_auction[type = \"Featured\"]/current" ]

let roles = 16

let role_policy factor =
  let base = mid_coverage_policy factor in
  let name i = Printf.sprintf "r%d" i in
  let subjects = Subject.make_exn (List.init roles (fun i -> Subject.role (name i))) in
  let qualified =
    List.init roles (fun i ->
        Rule.parse ~name:(Printf.sprintf "q%d" i) ~subjects:[ name i ]
          (List.nth role_scopes (i mod List.length role_scopes))
          Rule.Plus)
  in
  Policy.make ~subjects ~ds:(Policy.ds base) ~cr:(Policy.cr base)
    (Policy.rules base @ qualified)

let load_db ?wal engine document ~default_sign =
  let db = Db.create engine in
  ignore (Xmlac_shrex.Shred.load mapping ~default_sign db document);
  Db.set_wal db wal;
  db

(* The three stores of the evaluation, named as in the paper's plots. *)
type store = {
  label : string;  (** "xquery" | "monetsql" | "postgres". *)
  backend : Backend.t;
}

let stores_for document ~default_sign =
  let native_doc = Tree.copy document in
  [
    { label = "xquery"; backend = Xml_backend.make native_doc };
    {
      label = "monetsql";
      backend = Rel_backend.make mapping (load_db Table.Column document ~default_sign);
    };
    {
      label = "postgres";
      backend = Rel_backend.make mapping (load_db Table.Row document ~default_sign);
    };
  ]

let store_labels = [ "xquery"; "monetsql"; "postgres" ]

let pp_secs s =
  if s < 1e-6 then Printf.sprintf "%.1f ns" (s *. 1e9)
  else if s < 1e-4 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if s < 0.1 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.3f s" s

let pp_bytes n =
  if n < 1024 then Printf.sprintf "%dB" n
  else if n < 1024 * 1024 then Printf.sprintf "%dK" (n / 1024)
  else Printf.sprintf "%.1fM" (float_of_int n /. 1048576.0)

let pp_factor f =
  if Float.is_integer f && f >= 1.0 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let section title =
  Printf.printf "\n=== %s ===\n%!" title
