type col = { alias : string; column : string }

type scalar = Col of col | Const of Value.t

type pred =
  | Cmp of { lhs : scalar; op : Value.cmp; rhs : scalar }
  | Is_null of col
  | Not_null of col

type table_ref = { table : string; as_alias : string }

type select = {
  proj : col list;
  from : table_ref list;
  where : pred list;
}

type query =
  | Select of query_select
  | Union of query * query
  | Except of query * query
  | Intersect of query * query

and query_select = select

type stmt =
  | Insert of { table : string; values : Value.t list }
  | Update of { table : string; set : (string * Value.t) list; where : pred list }
  | Delete of { table : string; where : pred list }

let col alias column = { alias; column }
let eq lhs rhs = Cmp { lhs; op = Value.Eq; rhs }

let col_to_string c = c.alias ^ "." ^ c.column

let scalar_to_string = function
  | Col c -> col_to_string c
  | Const v -> Value.to_literal v

let pred_to_string = function
  | Cmp { lhs; op; rhs } ->
      Printf.sprintf "%s %s %s" (scalar_to_string lhs)
        (Value.cmp_to_string op) (scalar_to_string rhs)
  | Is_null c -> col_to_string c ^ " IS NULL"
  | Not_null c -> col_to_string c ^ " IS NOT NULL"

let select_to_string s =
  let proj =
    match s.proj with
    | [] -> "*"
    | cols -> String.concat ", " (List.map col_to_string cols)
  in
  let from =
    String.concat ", "
      (List.map (fun r -> r.table ^ " " ^ r.as_alias) s.from)
  in
  let where =
    match s.where with
    | [] -> ""
    | ps -> " WHERE " ^ String.concat " AND " (List.map pred_to_string ps)
  in
  Printf.sprintf "SELECT %s FROM %s%s" proj from where

let rec query_to_string = function
  | Select s -> select_to_string s
  | Union (a, b) ->
      Printf.sprintf "(%s UNION %s)" (query_to_string a) (query_to_string b)
  | Except (a, b) ->
      Printf.sprintf "(%s EXCEPT %s)" (query_to_string a) (query_to_string b)
  | Intersect (a, b) ->
      Printf.sprintf "(%s INTERSECT %s)" (query_to_string a) (query_to_string b)

let stmt_to_string = function
  | Insert { table; values } ->
      Printf.sprintf "INSERT INTO %s VALUES (%s);" table
        (String.concat ", " (List.map Value.to_literal values))
  | Update { table; set; where } ->
      let sets =
        String.concat ", "
          (List.map (fun (c, v) -> c ^ " = " ^ Value.to_literal v) set)
      in
      let w =
        match where with
        | [] -> ""
        | ps -> " WHERE " ^ String.concat " AND " (List.map pred_to_string ps)
      in
      Printf.sprintf "UPDATE %s SET %s%s;" table sets w
  | Delete { table; where } ->
      let w =
        match where with
        | [] -> ""
        | ps -> " WHERE " ^ String.concat " AND " (List.map pred_to_string ps)
      in
      Printf.sprintf "DELETE FROM %s%s;" table w

(* N-ary unions.  The Annotation-Queries compilation and the ShreX
   translation both produce unions of many branches; a left-leaning
   fold hands the executor a degenerate depth-n operator tree.  A
   balanced tree keeps the set-operation recursion logarithmic in the
   branch count. *)
let rec balanced_union = function
  | [] -> None
  | [ q ] -> Some q
  | qs ->
      let rec split i acc rest =
        if i = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: rest -> split (i - 1) (x :: acc) rest
      in
      let left, right = split (List.length qs / 2) [] qs in
      (match (balanced_union left, balanced_union right) with
      | Some a, Some b -> Some (Union (a, b))
      | (Some _ as q), None | None, (Some _ as q) -> q
      | None, None -> None)

let rec flatten_union = function
  | Union (a, b) -> flatten_union a @ flatten_union b
  | q -> [ q ]

let rec size = function
  | Select _ -> 1
  | Union (a, b) | Except (a, b) | Intersect (a, b) -> 1 + size a + size b

let rec depth = function
  | Select _ -> 1
  | Union (a, b) | Except (a, b) | Intersect (a, b) ->
      1 + max (depth a) (depth b)
