open Ast

let pp_ntst ppf = function
  | Name l -> Format.pp_print_string ppf l
  | Wildcard -> Format.pp_print_char ppf '*'

let needs_quotes d = float_of_string_opt d = None

let pp_const ppf d =
  if needs_quotes d then Format.fprintf ppf "%S" d
  else Format.pp_print_string ppf d

(* Relative paths inside qualifiers: a leading descendant step prints
   as [.//x]; a leading child step prints bare ([x/y]); the empty path
   prints as [.]. *)
let rec pp_rel ppf (p : path) =
  match p with
  | [] -> Format.pp_print_char ppf '.'
  | first :: _ ->
      if first.axis = Descendant then Format.pp_print_string ppf ".";
      pp_steps ppf p

and pp_steps ppf p =
  List.iteri
    (fun i s ->
      (match (i, s.axis) with
      | 0, Child -> ()
      | _, Child -> Format.pp_print_char ppf '/'
      | _, Descendant -> Format.pp_print_string ppf "//");
      pp_ntst ppf s.test;
      List.iter (fun q -> Format.fprintf ppf "[%a]" pp_qual q) s.quals)
    p

and pp_qual ppf = function
  | Exists p -> pp_rel ppf p
  | Value (p, op, d) ->
      Format.fprintf ppf "%a %s %a" pp_rel p (cmp_to_string op) pp_const d
  | And (a, b) -> Format.fprintf ppf "%a and %a" pp_qual a pp_qual b

let pp_path ppf p = pp_rel ppf p

let pp_expr ppf (e : expr) =
  (* Absolute expressions always start with a separator. *)
  match e.steps with
  | [] -> Format.pp_print_char ppf '/'
  | first :: _ ->
      (* [pp_steps] prints no separator before an index-0 child step
         and [//] before an index-0 descendant step, so only the
         leading [/] of a child-anchored expression is missing. *)
      if first.axis = Child then Format.pp_print_char ppf '/';
      pp_steps ppf e.steps

let to_string pp x = Format.asprintf "%a" pp x
let expr_to_string = to_string pp_expr
