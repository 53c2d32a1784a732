type axis = Child | Descendant

type ntst = Name of string | Wildcard

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type path = step list
and step = { axis : axis; test : ntst; quals : qual list }

and qual =
  | Exists of path
  | Value of path * cmp * string
  | And of qual * qual

type expr = { steps : path }

let step ?(quals = []) axis test = { axis; test; quals }
let absolute steps = { steps }

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let cmp_holds_parsed op v d ~num =
  let c =
    match num with
    | Some y -> (
        match float_of_string_opt v with
        | Some x -> compare x y
        | None -> String.compare v d)
    | None -> String.compare v d
  in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let cmp_holds op v d = cmp_holds_parsed op v d ~num:(float_of_string_opt d)

let rec equal_path p1 p2 =
  match (p1, p2) with
  | [], [] -> true
  | s1 :: r1, s2 :: r2 -> equal_step s1 s2 && equal_path r1 r2
  | _ -> false

and equal_step s1 s2 =
  s1.axis = s2.axis && s1.test = s2.test
  && List.length s1.quals = List.length s2.quals
  && List.for_all2 equal_qual s1.quals s2.quals

and equal_qual q1 q2 =
  match (q1, q2) with
  | Exists p1, Exists p2 -> equal_path p1 p2
  | Value (p1, c1, d1), Value (p2, c2, d2) ->
      equal_path p1 p2 && c1 = c2 && String.equal d1 d2
  | And (a1, b1), And (a2, b2) -> equal_qual a1 a2 && equal_qual b1 b2
  | (Exists _ | Value _ | And _), _ -> false

let equal_expr e1 e2 = equal_path e1.steps e2.steps

let rec path_size p = List.fold_left (fun acc s -> acc + step_size s) 0 p

and step_size s =
  1 + List.fold_left (fun acc q -> acc + qual_size q) 0 s.quals

and qual_size = function
  | Exists p -> path_size p
  | Value (p, _, _) -> path_size p
  | And (a, b) -> qual_size a + qual_size b

let size e = path_size e.steps

let rec qual_has_descendant = function
  | Exists p | Value (p, _, _) -> path_has_descendant_qualified p
  | And (a, b) -> qual_has_descendant a || qual_has_descendant b

and path_has_descendant_qualified p =
  List.exists
    (fun s ->
      s.axis = Descendant || List.exists qual_has_descendant s.quals)
    p

let has_descendant_in_qual e =
  List.exists (fun s -> List.exists qual_has_descendant s.quals) e.steps

let strip_quals e =
  { steps = List.map (fun s -> { s with quals = [] }) e.steps }
