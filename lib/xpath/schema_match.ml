open Ast
module Sg = Xmlac_xml.Schema_graph
module Dtd = Xmlac_xml.Dtd

let test_ok test label =
  match test with Wildcard -> true | Name l -> String.equal l label

(* Spine matching, qualifiers ignored. The label path must be consumed
   entirely: expressions select the node at the end of the path. *)
let rec spine_match steps labels =
  match (steps, labels) with
  | [], [] -> true
  | [], _ :: _ -> false
  | s :: rest, labels -> (
      match s.axis with
      | Child -> (
          match labels with
          | [] -> false
          | l :: ls -> test_ok s.test l && spine_match rest ls)
      | Descendant ->
          let rec try_from = function
            | [] -> false
            | l :: ls ->
                (test_ok s.test l && spine_match rest ls) || try_from ls
          in
          try_from labels)

let spine_matches_path (e : expr) labels = spine_match e.steps labels

(* Qualifier satisfiability at a schema type: every qualifier path must
   be realizable as a downward path from the type (and its own nested
   qualifiers recursively). *)
let rec quals_sat sg ty quals = List.for_all (qual_sat sg ty) quals

and qual_sat sg ty = function
  | And (a, b) -> qual_sat sg ty a && qual_sat sg ty b
  | Exists p | Value (p, _, _) -> rel_sat sg ty p

and rel_sat sg ty = function
  | [] -> true
  | s :: rest ->
      let dtd = Sg.dtd sg in
      let candidates =
        match s.axis with
        | Child -> Dtd.child_types dtd ty
        | Descendant ->
            List.filter
              (fun c -> Sg.reachable sg ~src:ty ~dst:c)
              (Dtd.element_types dtd)
      in
      List.exists
        (fun c ->
          test_ok s.test c && quals_sat sg c s.quals && rel_sat sg c rest)
        candidates

(* Spine matching with qualifier checks: walk the expression and the
   label path together; when a step consumes a label, that label is the
   schema type of the landing node, so check the step's qualifiers
   there. *)
let rec full_match sg steps labels =
  match (steps, labels) with
  | [], [] -> true
  | [], _ :: _ -> false
  | s :: rest, labels -> (
      match s.axis with
      | Child -> (
          match labels with
          | [] -> false
          | l :: ls ->
              test_ok s.test l && quals_sat sg l s.quals
              && full_match sg rest ls)
      | Descendant ->
          let rec try_from = function
            | [] -> false
            | l :: ls ->
                (test_ok s.test l && quals_sat sg l s.quals
                && full_match sg rest ls)
                || try_from ls
          in
          try_from labels)

let matched_root_paths sg (e : expr) =
  List.filter (fun path -> full_match sg e.steps path) (Sg.root_paths sg)

let selected_types sg e =
  let paths = matched_root_paths sg e in
  List.sort_uniq String.compare
    (List.filter_map
       (fun p -> match List.rev p with [] -> None | last :: _ -> Some last)
       paths)

let satisfiable sg e = matched_root_paths sg e <> []

let overlap sg p q =
  let paths_p = matched_root_paths sg p in
  List.exists (fun path -> full_match sg q.steps path) paths_p

let disjoint sg p q = not (overlap sg p q)

(* Ascending indices into [Sg.root_paths]. *)
type footprint = int array

let footprint sg exprs =
  let acc = ref [] in
  List.iteri
    (fun i path ->
      if List.exists (fun (e : expr) -> full_match sg e.steps path) exprs then
        acc := i :: !acc)
    (Sg.root_paths sg);
  Array.of_list (List.rev !acc)

let footprint_is_empty fp = Array.length fp = 0
let footprint_paths fp = fp

(* A merge over the two ascending arrays. *)
let footprints_meet a b =
  let rec go i j =
    i < Array.length a
    && j < Array.length b
    && (a.(i) = b.(j) || if a.(i) < b.(j) then go (i + 1) j else go i (j + 1))
  in
  go 0 0
