open Ast
module Tree = Xmlac_xml.Tree

(* Node sets stay in document order.  Steps stream over the tree
   (children lists / preorder subtree walks) instead of materializing
   descendant lists, and qualifiers are evaluated with early exit.
   A step's result travels with a flag saying whether one of its nodes
   may lie below another ("nested").  Only a descendant step can make a
   nested set, and only a nested context needs the extra work that
   keeps the next step in document order and free of duplicates. *)

let test_ok test (n : Tree.node) =
  match test with Wildcard -> true | Name l -> String.equal l n.Tree.name

exception Found

let rec iter_descendants f (n : Tree.node) =
  List.iter
    (fun c ->
      f c;
      iter_descendants f c)
    n.Tree.children

(* Qualifier truth at a context node, short-circuited. *)
let rec qual_ok (n : Tree.node) = function
  | Exists p -> exists_rel n p (fun _ -> true)
  | Value (p, op, d) ->
      exists_rel n p (fun (m : Tree.node) ->
          match m.Tree.value with
          | Some v -> cmp_holds op v d
          | None -> false)
  | And (a, b) -> qual_ok n a && qual_ok n b

(* Does some node reachable from [n] via [p] satisfy [accept]?  The
   empty path tests the context node itself. *)
and exists_rel (n : Tree.node) (p : path) accept =
  match p with
  | [] -> accept n
  | s :: rest ->
      let candidate (c : Tree.node) =
        if
          test_ok s.test c
          && List.for_all (qual_ok c) s.quals
          && exists_rel c rest accept
        then raise Found
      in
      (try
         (match s.axis with
         | Child -> List.iter candidate n.Tree.children
         | Descendant -> iter_descendants candidate n);
         false
       with Found -> true)

(* A nested context, split by nesting.  [tops] are the contexts with no
   context above them, in document order.  [below] maps the child of a
   context that leads down to further contexts to those contexts, the
   ones whose nearest context ancestor it is, in document order.  One
   parent walk per context, stopping at the first context above it. *)
let nesting context =
  let ctx = Hashtbl.create 64 in
  List.iter (fun (n : Tree.node) -> Hashtbl.replace ctx n.Tree.id ()) context;
  let below = Hashtbl.create 16 and tops = ref [] in
  List.iter
    (fun (n : Tree.node) ->
      let rec up (m : Tree.node) =
        match Tree.parent m with
        | None -> tops := n :: !tops
        | Some p when Hashtbl.mem ctx p.Tree.id ->
            let under =
              Option.value ~default:[] (Hashtbl.find_opt below m.Tree.id)
            in
            Hashtbl.replace below m.Tree.id (n :: under)
        | Some p -> up p
      in
      up n)
    context;
  (List.rev !tops, below)

(* One step applied to a context list (document order in, document
   order out).  A child step over nested contexts expands each context
   nested below a child right after that child, so the children of an
   inner context come out before the outer context's next child.  A
   descendant step walks only the outermost contexts, whose subtrees
   are disjoint, so it needs no seen-set. *)
let select_step (context, nested) (s : step) =
  let out = ref [] in
  let keep (c : Tree.node) = test_ok s.test c && List.for_all (qual_ok c) s.quals in
  match s.axis with
  | Child ->
      let consider c = if keep c then out := c :: !out in
      (if not nested then
         List.iter (fun (n : Tree.node) -> List.iter consider n.Tree.children) context
       else
         let tops, below = nesting context in
         let rec expand (n : Tree.node) =
           List.iter
             (fun (c : Tree.node) ->
               consider c;
               match Hashtbl.find_opt below c.Tree.id with
               | Some inner -> List.iter expand (List.rev inner)
               | None -> ())
             n.Tree.children
         in
         List.iter expand tops);
      (List.rev !out, nested)
  | Descendant ->
      let nested_out = ref false in
      let rec walk inside = function
        | [] -> ()
        | (c : Tree.node) :: siblings ->
            let selected = keep c in
            if selected then begin
              if inside then nested_out := true;
              out := c :: !out
            end;
            walk (inside || selected) c.Tree.children;
            walk inside siblings
      in
      List.iter
        (fun (n : Tree.node) -> walk false n.Tree.children)
        (if nested then fst (nesting context) else context);
      (List.rev !out, !nested_out)

let select_path context p = fst (List.fold_left select_step context p)

(* Absolute evaluation starts from the virtual document node, whose
   only child is the root element and whose descendants are every node
   of the tree. *)
let eval t (e : expr) =
  match e.steps with
  | [] -> [ Tree.root t ]
  | first :: rest ->
      let root = Tree.root t in
      let initial =
        let matching (n : Tree.node) =
          test_ok first.test n && List.for_all (qual_ok n) first.quals
        in
        match first.axis with
        | Child -> ((if matching root then [ root ] else []), false)
        | Descendant ->
            let under, nested = select_step ([ root ], false) first in
            if matching root then (root :: under, under <> []) else (under, nested)
      in
      select_path initial rest

let eval_rel _t context p = select_path ([ context ], false) p

let matches t e (n : Tree.node) =
  List.exists (fun (m : Tree.node) -> m.Tree.id = n.Tree.id) (eval t e)

let node_set t e =
  let set = Hashtbl.create 64 in
  List.iter (fun (n : Tree.node) -> Hashtbl.replace set n.Tree.id ()) (eval t e);
  set

let count t e = List.length (eval t e)
