module Tree = Xmlac_xml.Tree
module Xp = Xmlac_xpath
module Bitset = Xmlac_util.Bitset

type t = {
  ds : Rule.effect;
  cr : Rule.effect;
  rules : Rule.t list;
  subjects : Subject.t;
}

let make ?(subjects = Subject.solo) ~ds ~cr rules =
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun s ->
          if not (Subject.mem subjects s) then
            invalid_arg
              (Printf.sprintf
                 "Policy.make: rule %s is qualified with undeclared role %S"
                 r.Rule.name s))
        r.Rule.subjects)
    rules;
  { ds; cr; rules; subjects }

let ds t = t.ds
let cr t = t.cr
let rules t = t.rules
let subjects t = t.subjects
let roles t = Subject.names t.subjects
let role_count t = Subject.count t.subjects
let positive t = List.filter Rule.is_positive t.rules
let negative t = List.filter Rule.is_negative t.rules
let size t = List.length t.rules

let with_rules t rules = make ~subjects:t.subjects ~ds:t.ds ~cr:t.cr rules

(* --- per-subject resolution ---------------------------------------- *)

let unknown_role what role =
  invalid_arg (Printf.sprintf "Policy.%s: unknown role %S" what role)

let resolved_ds t role =
  if not (Subject.mem t.subjects role) then unknown_role "resolved_ds" role;
  Option.value (Subject.resolved_ds t.subjects role) ~default:t.ds

let resolved_cr t role =
  if not (Subject.mem t.subjects role) then unknown_role "resolved_cr" role;
  Option.value (Subject.resolved_cr t.subjects role) ~default:t.cr

(* The one-role special case: the policy a single subject sees.  The
   rule set keeps declaration order; per-role (ds, cr) overrides are
   folded in; the resulting policy is single-subject (solo DAG) so
   every downstream consumer — plan builder, optimizer, annotator —
   works unchanged on it. *)
let for_subject t role =
  match Subject.index t.subjects role with
  | None -> unknown_role "for_subject" role
  | Some _ ->
      let closure = Subject.closure t.subjects role in
      let applicable =
        List.filter_map
          (fun (r : Rule.t) ->
            if Rule.applies_to ~closure r then
              Some { r with Rule.subjects = [] }
            else None)
          t.rules
      in
      {
        ds = resolved_ds t role;
        cr = resolved_cr t role;
        rules = applicable;
        subjects = Subject.solo;
      }

(* Role indices a rule reaches — the subject-coverage bitmap the
   optimizer compares before treating one rule as subsuming another. *)
let applicability t (r : Rule.t) =
  Bitset.of_list
    (List.filter_map
       (fun role ->
         if Rule.applies_to ~closure:(Subject.closure t.subjects role) r then
           Subject.index t.subjects role
         else None)
       (roles t))

(* Roles whose resolved default semantics grants: bit set in the
   bitmap a reset writes to every node. *)
let default_bits t =
  Bitset.of_list
    (List.filter_map
       (fun role ->
         if resolved_ds t role = Rule.Plus then Subject.index t.subjects role
         else None)
       (roles t))

(* --- reference semantics ------------------------------------------- *)

(* Union of rule scopes as an id set. *)
let scope_set doc rules =
  let set = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (n : Tree.node) -> Hashtbl.replace set n.Tree.id ())
        (Rule.scope doc r))
    rules;
  set

let accessible_id_set_solo t doc =
  let a = scope_set doc (positive t) in
  let d = scope_set doc (negative t) in
  let universe () =
    let u = Hashtbl.create 64 in
    Tree.iter (fun n -> Hashtbl.replace u n.Tree.id ()) doc;
    u
  in
  let minus x y =
    let r = Hashtbl.create (Hashtbl.length x) in
    Hashtbl.iter (fun k () -> if not (Hashtbl.mem y k) then Hashtbl.replace r k ()) x;
    r
  in
  (* Table 2. *)
  match (t.ds, t.cr) with
  | Rule.Plus, Rule.Plus -> minus (universe ()) (minus d a)
  | Rule.Minus, Rule.Plus -> a
  | Rule.Plus, Rule.Minus -> minus (universe ()) d
  | Rule.Minus, Rule.Minus -> minus a d

(* Omitted subject = the anonymous single-subject view: global
   (ds, cr) over all rules regardless of qualifiers — exactly the
   pre-subject semantics, which a solo policy coincides with. *)
let accessible_id_set ?subject t doc =
  match subject with
  | None -> accessible_id_set_solo t doc
  | Some role -> accessible_id_set_solo (for_subject t role) doc

let accessible_ids ?subject t doc =
  List.sort Stdlib.compare
    (Hashtbl.fold
       (fun id () acc -> id :: acc)
       (accessible_id_set ?subject t doc)
       [])

let annotate_reference ?subject t doc =
  let set = accessible_id_set ?subject t doc in
  List.iter
    (fun (n : Tree.node) ->
      Tree.set_sign doc n
        (Some (if Hashtbl.mem set n.Tree.id then Tree.Plus else Tree.Minus)))
    (Tree.nodes doc)

let pp ppf t =
  Format.fprintf ppf "policy (ds=%s, cr=%s):@."
    (Rule.effect_to_string t.ds)
    (Rule.effect_to_string t.cr);
  if not (Subject.is_solo t.subjects) then
    Format.fprintf ppf "%a@." Subject.pp t.subjects;
  List.iter (fun r -> Format.fprintf ppf "  %a@." Rule.pp r) t.rules
