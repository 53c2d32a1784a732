module Tree = Xmlac_xml.Tree
module Xp = Xmlac_xpath

type effect = Tree.sign = Plus | Minus

let effect_to_string = Tree.sign_to_string
let opposite = function Plus -> Minus | Minus -> Plus

type t = {
  name : string;
  resource : Xp.Ast.expr;
  effect : effect;
  subjects : string list;
}

let make ?name ?(subjects = []) ~resource effect =
  let name =
    match name with Some n -> n | None -> Xp.Pp.expr_to_string resource
  in
  { name; resource; effect; subjects }

let parse ?name ?subjects s effect =
  make ?name ?subjects ~resource:(Xp.Parser.parse_exn s) effect

let unqualified r = r.subjects = []

(* Whether the rule reaches a role whose inheritance closure is
   [closure]: unqualified rules reach every role; a qualified rule
   reaches the roles it names and their heirs. *)
let applies_to ~closure r =
  r.subjects = [] || List.exists (fun s -> List.mem s r.subjects) closure

(* [equal_expr] is structural equality on plain data, so the generic
   hash table keys resources exactly. *)
let memo_resource f =
  let tbl = Hashtbl.create 16 in
  fun e ->
    match Hashtbl.find_opt tbl e with
    | Some v -> v
    | None ->
        let v = f e in
        Hashtbl.replace tbl e v;
        v

let is_positive r = r.effect = Plus
let is_negative r = r.effect = Minus

let scope doc r = Xp.Eval.eval doc r.resource

let pp ppf r =
  Format.fprintf ppf "%s: %s (%s)" r.name
    (Xp.Pp.expr_to_string r.resource)
    (effect_to_string r.effect);
  match r.subjects with
  | [] -> ()
  | ss -> Format.fprintf ppf " @@%s" (String.concat ",@" ss)

let equal a b =
  a.effect = b.effect
  && Xp.Ast.equal_expr a.resource b.resource
  && List.sort compare a.subjects = List.sort compare b.subjects
