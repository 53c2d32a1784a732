(* Named roles and their inheritance DAG.

   A policy's subjects are a finite, ordered set of roles; declaration
   order is load-bearing — a role's index is its bit in every per-node
   accessibility bitmap, so the order must be stable across parsing,
   serialization and annotation.  Roles inherit rules from their
   parents ([inherits]); the closure is computed once, breadth-first,
   self first, so per-role rule resolution and (ds, cr) overrides are
   O(1) lookups afterwards. *)

type decl = {
  name : string;
  inherits : string list;
  ds : Rule.effect option;
  cr : Rule.effect option;
}

let role ?(inherits = []) ?ds ?cr name = { name; inherits; ds; cr }

type t = {
  order : decl array;
  by_name : (string, int) Hashtbl.t;
  closure : string list array; (* self first, then ancestors in BFS order *)
}

let default_role = "default"
let solo_decls = [ role default_role ]

let make decls =
  let order = Array.of_list decls in
  let by_name = Hashtbl.create (Array.length order) in
  let dup = ref None in
  Array.iteri
    (fun i d ->
      if Hashtbl.mem by_name d.name then
        (match !dup with None -> dup := Some d.name | Some _ -> ())
      else Hashtbl.replace by_name d.name i)
    order;
  match !dup with
  | Some name -> Error (Printf.sprintf "duplicate role %S" name)
  | None -> (
      if Array.length order = 0 then Error "no roles declared"
      else
        let unknown = ref None in
        Array.iter
          (fun d ->
            List.iter
              (fun p ->
                if (not (Hashtbl.mem by_name p)) && !unknown = None then
                  unknown :=
                    Some
                      (Printf.sprintf "role %S inherits unknown role %S" d.name
                         p))
              d.inherits)
          order;
        match !unknown with
        | Some msg -> Error msg
        | None -> (
            (* Cycle detection: iterative DFS with tricolor marking. *)
            let state = Array.make (Array.length order) `White in
            let cycle = ref None in
            let rec visit i trail =
              match state.(i) with
              | `Black -> ()
              | `Grey ->
                  if !cycle = None then
                    cycle :=
                      Some
                        (String.concat " -> "
                           (List.rev (order.(i).name :: trail)))
              | `White ->
                  state.(i) <- `Grey;
                  List.iter
                    (fun p ->
                      visit (Hashtbl.find by_name p) (order.(i).name :: trail))
                    order.(i).inherits;
                  state.(i) <- `Black
            in
            Array.iteri (fun i _ -> visit i []) order;
            match !cycle with
            | Some path ->
                Error (Printf.sprintf "role inheritance cycle: %s" path)
            | None ->
                (* Ancestor closure, BFS, self first, deduplicated. *)
                let closure =
                  Array.map
                    (fun d ->
                      let seen = Hashtbl.create 8 in
                      let out = ref [] in
                      let q = Queue.create () in
                      Queue.add d.name q;
                      while not (Queue.is_empty q) do
                        let n = Queue.take q in
                        if not (Hashtbl.mem seen n) then begin
                          Hashtbl.replace seen n ();
                          out := n :: !out;
                          List.iter
                            (fun p -> Queue.add p q)
                            (order.(Hashtbl.find by_name n)).inherits
                        end
                      done;
                      List.rev !out)
                    order
                in
                Ok { order; by_name; closure }))

let make_exn decls =
  match make decls with
  | Ok t -> t
  | Error msg -> invalid_arg ("Subject.make: " ^ msg)

let solo = make_exn solo_decls

let count t = Array.length t.order
let decls t = Array.to_list t.order
let names t = List.map (fun d -> d.name) (decls t)
let index t name = Hashtbl.find_opt t.by_name name
let mem t name = Hashtbl.mem t.by_name name

let decl t name = Option.map (fun i -> t.order.(i)) (index t name)

let closure t name =
  match index t name with
  | Some i -> t.closure.(i)
  | None -> invalid_arg (Printf.sprintf "Subject.closure: unknown role %S" name)

let is_solo t =
  match names t with [ n ] -> n = default_role | _ -> false

(* Resolve a per-role override: the role's own setting, else the
   nearest ancestor's (BFS order), else [None] — the caller falls back
   to the policy's global value. *)
let resolve t name get =
  let rec go = function
    | [] -> None
    | n :: rest -> (
        match get (t.order.(Hashtbl.find t.by_name n)) with
        | Some _ as v -> v
        | None -> go rest)
  in
  go (closure t name)

let resolved_ds t name = resolve t name (fun d -> d.ds)
let resolved_cr t name = resolve t name (fun d -> d.cr)

let equal a b =
  decls a = decls b

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i d ->
      Format.fprintf ppf "role %-12s (bit %d)" d.name i;
      (match d.inherits with
      | [] -> ()
      | ps -> Format.fprintf ppf " inherits %s" (String.concat ", " ps));
      (match d.ds with
      | Some e -> Format.fprintf ppf " default %s" (Rule.effect_to_string e)
      | None -> ());
      (match d.cr with
      | Some e -> Format.fprintf ppf " conflict %s" (Rule.effect_to_string e)
      | None -> ());
      if i < Array.length t.order - 1 then Format.fprintf ppf "@,")
    t.order;
  Format.fprintf ppf "@]"
