module SS = Set.Make (String)

type t = {
  dtd : Dtd.t;
  parents : (string, string list) Hashtbl.t;
  reach : (string, SS.t) Hashtbl.t; (* proper descendants per type *)
  recursive : bool;
  paths : string list list;  (* [root_paths]; empty on a recursive DTD *)
  path_ids : (string list, int) Hashtbl.t;  (* a path's index in [paths] *)
}

let compute_parents dtd =
  let parents = Hashtbl.create 32 in
  List.iter (fun ty -> Hashtbl.replace parents ty []) (Dtd.element_types dtd);
  List.iter
    (fun ty ->
      List.iter
        (fun child ->
          let cur = Hashtbl.find parents child in
          if not (List.mem ty cur) then
            Hashtbl.replace parents child (cur @ [ ty ]))
        (Dtd.child_types dtd ty))
    (Dtd.element_types dtd);
  parents

(* Transitive closure of the child relation, fixpoint iteration. Schemas
   have a few dozen types, so the quadratic fixpoint is plenty fast. *)
let compute_reach dtd =
  let reach = Hashtbl.create 32 in
  let types = Dtd.element_types dtd in
  List.iter
    (fun ty -> Hashtbl.replace reach ty (SS.of_list (Dtd.child_types dtd ty)))
    types;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ty ->
        let cur = Hashtbl.find reach ty in
        let extended =
          SS.fold
            (fun child acc -> SS.union acc (Hashtbl.find reach child))
            cur cur
        in
        if not (SS.equal cur extended) then begin
          Hashtbl.replace reach ty extended;
          changed := true
        end)
      types
  done;
  reach

(* Every label path from the root type down, preorder.  Terminates
   only on a non-recursive DTD. *)
let enumerate_paths dtd =
  let acc = ref [] in
  let rec go path ty =
    let path = path @ [ ty ] in
    acc := path :: !acc;
    List.iter (go path) (Dtd.child_types dtd ty)
  in
  go [] (Dtd.root dtd);
  List.rev !acc

let build dtd =
  let parents = compute_parents dtd in
  let reach = compute_reach dtd in
  let recursive =
    List.exists
      (fun ty -> SS.mem ty (Hashtbl.find reach ty))
      (Dtd.element_types dtd)
  in
  (* Enumerated once: the trigger and the snapshot footprints match
     against them on every mutation. *)
  let paths = if recursive then [] else enumerate_paths dtd in
  let path_ids = Hashtbl.create 64 in
  List.iteri (fun i path -> Hashtbl.replace path_ids path i) paths;
  { dtd; parents; reach; recursive; paths; path_ids }

let dtd t = t.dtd
let is_recursive t = t.recursive

let parents t ty =
  match Hashtbl.find_opt t.parents ty with None -> [] | Some ps -> ps

let reachable t ~src ~dst =
  match Hashtbl.find_opt t.reach src with
  | None -> false
  | Some s -> SS.mem dst s

let require_non_recursive t who =
  if t.recursive then
    invalid_arg (who ^ ": recursive DTD; path enumeration does not terminate")

let root_paths t =
  require_non_recursive t "Schema_graph.root_paths";
  t.paths

let path_index t n = Hashtbl.find_opt t.path_ids (Tree.label_path n)

(* Every edge on a node's root path is a DTD edge exactly when its
   label path is a root path; below [n] it suffices to check each
   parent-child edge once. *)
let covers t (n : Tree.node) =
  let rec edges (p : Tree.node) =
    let allowed = Dtd.child_types t.dtd p.Tree.name in
    List.for_all
      (fun (c : Tree.node) -> List.mem c.Tree.name allowed && edges c)
      p.Tree.children
  in
  (match Tree.parent n with
  | None -> String.equal n.Tree.name (Dtd.root t.dtd)
  | Some p -> List.mem n.Tree.name (Dtd.child_types t.dtd p.Tree.name))
  && edges n

let paths_to t target =
  List.filter
    (fun path ->
      match List.rev path with [] -> false | last :: _ -> last = target)
    (root_paths t)

let paths_between t ~src ~dst =
  require_non_recursive t "Schema_graph.paths_between";
  let acc = ref [] in
  let rec go path ty =
    let path = path @ [ ty ] in
    if ty = dst && List.length path >= 2 then acc := path :: !acc;
    (* Continue below even after a hit: dst may also occur deeper. *)
    List.iter (go path) (Dtd.child_types t.dtd ty)
  in
  go [] src;
  List.rev !acc

let max_depth t =
  List.fold_left (fun m p -> max m (List.length p)) 0 (root_paths t)
