module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Xp = Xmlac_xpath
module Sql = Xmlac_reldb.Sql
module Translate = Xmlac_shrex.Translate
module Timing = Xmlac_util.Timing

(* Ascending int arrays without duplicates; the binary operations are
   merges. *)
module Ids = struct
  type t = int array

  let empty = [||]
  let cardinal = Array.length
  let is_empty a = Array.length a = 0
  let elements = Array.to_list
  let iter = Array.iter
  let fold f a acc = Array.fold_left (fun acc x -> f x acc) acc a

  (* Scope answers usually ascend already: one scan spares the sort. *)
  let of_array a =
    let rec ascends i = i >= Array.length a || (a.(i - 1) < a.(i) && ascends (i + 1)) in
    if ascends 1 then a else Array.of_list (List.sort_uniq Int.compare (elements a))

  let of_list l = of_array (Array.of_list l)

  let mem x a =
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      a.(mid) = x || if a.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length a)

  let filter f a =
    let kept = List.filter f (elements a) in
    if List.compare_length_with kept (Array.length a) = 0 then a else Array.of_list kept

  (* Keeps what only [a] holds if [left], what both hold if [both] and
     what only [b] holds if [right].  A counting pass sizes the result,
     so a large one is allocated once. *)
  let merge ~left ~both ~right a b =
    let la = Array.length a and lb = Array.length b in
    let rec go emit i j =
      if i = la then for j = j to lb - 1 do if right then emit b.(j) done
      else if j = lb then for i = i to la - 1 do if left then emit a.(i) done
      else if a.(i) < b.(j) then (if left then emit a.(i); go emit (i + 1) j)
      else if a.(i) > b.(j) then (if right then emit b.(j); go emit i (j + 1))
      else (if both then emit a.(i); go emit (i + 1) (j + 1))
    in
    if la = 0 then (if right then b else empty)
    else if lb = 0 then (if left then a else empty)
    else
      let n = ref 0 in
      go (fun _ -> incr n) 0 0;
      let out = Array.make !n 0 and k = ref 0 in
      go (fun x -> out.(!k) <- x; incr k) 0 0;
      out

  let union = merge ~left:true ~both:true ~right:true
  let diff = merge ~left:true ~both:false ~right:false
  let sym_diff = merge ~left:true ~both:false ~right:true
  let inter = merge ~left:false ~both:true ~right:false
end

type node =
  | Empty
  | Scope of Xp.Ast.expr
  | Union of node list
  | Except of node * node
  | Intersect of node * node

type t = { query : node; mark : Rule.effect; default : Rule.effect }

(* --- construction ------------------------------------------------- *)

let scope_union rules =
  Union (List.map (fun (r : Rule.t) -> Scope r.Rule.resource) rules)

(* Figure 5: the nodes to flip to the non-default sign. *)
let of_policy policy =
  let grants = scope_union (Policy.positive policy) in
  let denies = scope_union (Policy.negative policy) in
  let ds = Policy.ds policy in
  let query =
    match (ds, Policy.cr policy) with
    | Rule.Minus, Rule.Minus -> Except (grants, denies)
    | Rule.Minus, Rule.Plus -> grants
    | Rule.Plus, Rule.Minus -> denies
    | Rule.Plus, Rule.Plus -> Except (denies, grants)
  in
  { query; mark = Rule.opposite ds; default = ds }

let of_rules policy rules = of_policy (Policy.with_rules policy rules)

(* --- inspection --------------------------------------------------- *)

let rec size_node = function
  | Empty | Scope _ -> 1
  | Union ps -> List.fold_left (fun n p -> n + size_node p) 1 ps
  | Except (a, b) | Intersect (a, b) -> 1 + size_node a + size_node b

let size t = size_node t.query

let scopes t =
  let rec go acc = function
    | Empty -> acc
    | Scope e -> e :: acc
    | Union ps -> List.fold_left go acc ps
    | Except (a, b) | Intersect (a, b) -> go (go acc a) b
  in
  List.rev (go [] t.query)

let rec equal_node a b =
  match (a, b) with
  | Empty, Empty -> true
  | Scope p, Scope q -> Xp.Ast.equal_expr p q
  | Union ps, Union qs ->
      List.length ps = List.length qs && List.for_all2 equal_node ps qs
  | Except (a1, b1), Except (a2, b2) | Intersect (a1, b1), Intersect (a2, b2)
    ->
      equal_node a1 a2 && equal_node b1 b2
  | _ -> false

(* --- rewriting ---------------------------------------------------- *)

type pass_stat = { pass : string; before : int; after : int }

let rec simplify = function
  | (Empty | Scope _) as p -> p
  | Union ps -> (
      let ps =
        List.concat_map
          (fun p ->
            match simplify p with Empty -> [] | Union qs -> qs | q -> [ q ])
          ps
      in
      match ps with [] -> Empty | [ p ] -> p | ps -> Union ps)
  | Except (a, b) -> (
      match (simplify a, simplify b) with
      | Empty, _ -> Empty
      | a, Empty -> a
      | a, b -> Except (a, b))
  | Intersect (a, b) -> (
      match (simplify a, simplify b) with
      | Empty, _ | _, Empty -> Empty
      | a, b -> Intersect (a, b))

(* Within one union front, [Scope p] is absorbed when some sibling
   [Scope q] contains it; ties between equivalent scopes keep the
   leftmost.  Only scope members participate — compound members are
   recursed into but never compared. *)
let absorb ?schema query =
  let contained p q =
    match schema with
    | None -> Xp.Containment.contained_in p q
    | Some sg -> Xp.Containment.contained_in_schema sg p q
  in
  let absorb_front ps =
    let arr = Array.of_list ps in
    let n = Array.length arr in
    let expr_of = function Scope e -> Some e | _ -> None in
    let absorbed i p =
      let rec any j =
        j < n
        && ((j <> i
            &&
            match expr_of arr.(j) with
            | None -> false
            | Some q -> contained p q && (j < i || not (contained q p)))
           || any (j + 1))
      in
      any 0
    in
    List.filteri
      (fun i member ->
        match expr_of member with
        | None -> true
        | Some p -> not (absorbed i p))
      ps
  in
  let rec go = function
    | (Empty | Scope _) as p -> p
    | Union ps -> Union (absorb_front (List.map go ps))
    | Except (a, b) -> Except (go a, go b)
    | Intersect (a, b) -> Intersect (go a, go b)
  in
  go query

let prune sg query =
  let rec go = function
    | Scope e when not (Xp.Schema_match.satisfiable sg e) -> Empty
    | (Empty | Scope _) as p -> p
    | Union ps -> Union (List.map go ps)
    | Except (a, b) -> Except (go a, go b)
    | Intersect (a, b) -> Intersect (go a, go b)
  in
  go query

let passes ?schema () =
  [ ("flatten", simplify) ]
  @ (match schema with
    | None -> []
    | Some sg -> [ ("prune-unsat", prune sg) ])
  @ [ ("absorb", fun q -> absorb ?schema q); ("simplify", simplify) ]

let rewrite_trace ?schema t =
  let query, rev_trace =
    List.fold_left
      (fun (q, trace) (pass, f) ->
        let q' = f q in
        ((q' : node), { pass; before = size_node q; after = size_node q' } :: trace))
      (t.query, []) (passes ?schema ())
  in
  ({ t with query }, List.rev rev_trace)

let rewrite ?schema t = fst (rewrite_trace ?schema t)

(* --- equivalence (for cross-role plan sharing) --------------------- *)

(* Whether two plans have provably identical answers on every document:
   structural recursion, with [Scope]s compared up to mutual
   containment so syntactic variants of the same path collapse.  Marks
   are deliberately ignored — two roles can share one query evaluation
   and fan the answer out with opposite marks. *)
let equiv ?schema a b =
  let scopes_equiv p q =
    Xp.Ast.equal_expr p q
    ||
    let contained x y =
      match schema with
      | None -> Xp.Containment.contained_in x y
      | Some sg -> Xp.Containment.contained_in_schema sg x y
    in
    contained p q && contained q p
  in
  let rec go a b =
    match (a, b) with
    | Empty, Empty -> true
    | Scope p, Scope q -> scopes_equiv p q
    | Union ps, Union qs ->
        List.length ps = List.length qs && List.for_all2 go ps qs
    | Except (a1, b1), Except (a2, b2) | Intersect (a1, b1), Intersect (a2, b2)
      ->
        go a1 a2 && go b1 b2
    | _ -> false
  in
  go a.query b.query

(* --- native lowering ---------------------------------------------- *)

let ids_of_table tbl = Ids.of_list (Hashtbl.fold (fun id () l -> id :: l) tbl [])

(* [scope] evaluates one XPath to its id set; the set algebra runs on
   those. *)
let eval scope t =
  let rec go = function
    | Empty -> Ids.empty
    | Scope e -> scope e
    | Union ps -> List.fold_left (fun acc p -> Ids.union acc (go p)) Ids.empty ps
    | Except (a, b) -> Ids.diff (go a) (go b)
    | Intersect (a, b) -> Ids.inter (go a) (go b)
  in
  go t.query

let tree_scope doc e = ids_of_table (Xp.Eval.node_set doc e)

let index_scope idx e = Ids.of_array (Xp.Index.ids idx (Xp.Index.eval idx e))

let native_ids doc t = Ids.elements (eval (tree_scope doc) t)

(* One scope memo across a batch of plans: role plans from one policy
   share most of their scopes, so each distinct XPath evaluates once
   per document no matter how many roles reference it. *)
let ids_shared scope ts =
  let scope = Rule.memo_resource scope in
  List.map (fun t -> Ids.elements (eval scope t)) ts

(* --- relational lowering ------------------------------------------ *)

let to_sql mapping t =
  let rec go = function
    | Empty -> Translate.empty mapping
    | Scope e -> Translate.translate mapping e
    | Union ps -> (
        (* Every scope itself lowers to a union of ShreX branches;
           flattening the whole front before balancing gives one
           balanced n-ary union over all branches. *)
        match
          Sql.balanced_union
            (List.concat_map (fun p -> Sql.flatten_union (go p)) ps)
        with
        | None -> Translate.empty mapping
        | Some q -> q)
    | Except (a, b) -> Sql.Except (go a, go b)
    | Intersect (a, b) -> Sql.Intersect (go a, go b)
  in
  go t.query

(* --- xquery lowering ---------------------------------------------- *)

let rec xq_node = function
  | Empty | Union [] -> "()"
  | Scope e -> Xp.Pp.expr_to_string e
  | Union ps -> String.concat " union " (List.map xq_atom ps)
  | Except (a, b) -> xq_atom a ^ " except " ^ xq_atom b
  | Intersect (a, b) -> xq_atom a ^ " intersect " ^ xq_atom b

and xq_atom p =
  match p with
  | Empty | Scope _ | Union [] -> xq_node p
  | Union _ | Except _ | Intersect _ -> "(" ^ xq_node p ^ ")"

let to_xquery ~doc_name t =
  Printf.sprintf "for $n in doc(\"%s\")(%s)\nreturn xmlac:annotate($n, \"%s\")"
    doc_name (xq_node t.query)
    (Rule.effect_to_string t.mark)

(* --- printing ----------------------------------------------------- *)

let pp ppf t =
  Format.fprintf ppf "mark %s: %s"
    (Rule.effect_to_string t.mark)
    (xq_node t.query)

(* --- explain ------------------------------------------------------ *)

type explain = {
  raw : t;
  rewritten : t;
  trace : pass_stat list;
  xquery : string;
  sql : Sql.query option;
  scope_counts : (string * int) list;
  answer_size : int option;
  timings : (string * float) list;
}

let explain ?schema ?mapping ?doc ?(doc_name = "doc") t =
  let (rewritten, trace), rewrite_s =
    Timing.time (fun () -> rewrite_trace ?schema t)
  in
  let xquery, xquery_s =
    Timing.time (fun () -> to_xquery ~doc_name rewritten)
  in
  let sql, sql_timing =
    match mapping with
    | None -> (None, [])
    | Some m ->
        let q, s = Timing.time (fun () -> to_sql m rewritten) in
        (Some q, [ ("lower:sql", s) ])
  in
  let scope_counts, answer_size, native_timing =
    match doc with
    | None -> ([], None, [])
    | Some d ->
        let counts =
          List.map
            (fun e ->
              (Xp.Pp.expr_to_string e, Hashtbl.length (Xp.Eval.node_set d e)))
            (scopes rewritten)
        in
        let answer, s =
          Timing.time (fun () -> eval (tree_scope d) rewritten)
        in
        (counts, Some (Ids.cardinal answer), [ ("eval:native", s) ])
  in
  {
    raw = t;
    rewritten;
    trace;
    xquery;
    sql;
    scope_counts;
    answer_size;
    timings =
      (("rewrite", rewrite_s) :: ("lower:xquery", xquery_s) :: sql_timing)
      @ native_timing;
  }

let pp_explain ppf e =
  Format.fprintf ppf "@[<v>plan (raw, %d nodes):@;<1 2>%a@," (size e.raw) pp
    e.raw;
  Format.fprintf ppf "rewrite passes:@,";
  List.iter
    (fun { pass; before; after } ->
      Format.fprintf ppf "  %-12s %d -> %d%s@," pass before after
        (if after < before then "  (shrunk)" else ""))
    e.trace;
  Format.fprintf ppf "plan (rewritten, %d nodes):@;<1 2>%a@," (size e.rewritten)
    pp e.rewritten;
  Format.fprintf ppf "xquery lowering:@;<1 2>%s@,"
    (String.concat " " (String.split_on_char '\n' e.xquery));
  (match e.sql with
  | None -> ()
  | Some q ->
      Format.fprintf ppf
        "sql lowering (%d query nodes, union depth %d):@;<1 2>%s@," (Sql.size q)
        (Sql.depth q) (Sql.query_to_string q));
  (match e.scope_counts with
  | [] -> ()
  | counts ->
      Format.fprintf ppf "per-scope node counts:@,";
      List.iter
        (fun (expr, n) -> Format.fprintf ppf "  %-40s %d@," expr n)
        counts);
  (match e.answer_size with
  | None -> ()
  | Some n -> Format.fprintf ppf "answer: %d node(s) to mark %s@," n
        (Rule.effect_to_string e.rewritten.mark));
  Format.fprintf ppf "timings:@,";
  List.iter
    (fun (stage, s) ->
      Format.fprintf ppf "  %-14s %a@," stage Timing.pp_seconds s)
    e.timings;
  Format.fprintf ppf "@]"
