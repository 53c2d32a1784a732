module Fault = Xmlac_util.Fault

type lane = Auto | Materialized | Rewrite

let lane_to_string = function
  | Auto -> "auto"
  | Materialized -> "materialized"
  | Rewrite -> "rewrite"

let lane_of_string = function
  | "auto" -> Some Auto
  | "materialized" -> Some Materialized
  | "rewrite" -> Some Rewrite
  | _ -> None

let pp_lane ppf l = Format.pp_print_string ppf (lane_to_string l)

type compiled = {
  subject : string option;
  granted : Plan.t;
  residue : Plan.t;
}

(* The accessible region under a compiled policy plan is the plan's
   answer when [mark = Plus] (everything else defaults to [Minus]) and
   its complement when [mark = Minus] — so intersecting or subtracting
   the request's scope against [plan.query] expresses both the granted
   and the denied part of the answer without a complement operator. *)
let compile ?schema ?plan ?subject policy expr =
  Fault.point "rewrite.compile";
  let plan =
    match (subject, plan) with
    | None, Some p -> p
    | None, None -> Plan.rewrite ?schema (Plan.of_policy policy)
    | Some role, _ ->
        Plan.rewrite ?schema (Plan.of_policy (Policy.for_subject policy role))
  in
  let scope = Plan.Scope expr in
  let granted_q, residue_q =
    match plan.Plan.mark with
    | Rule.Plus ->
        ( Plan.Intersect (scope, plan.Plan.query),
          Plan.Except (scope, plan.Plan.query) )
    | Rule.Minus ->
        ( Plan.Except (scope, plan.Plan.query),
          Plan.Intersect (scope, plan.Plan.query) )
  in
  let finish mark query =
    Plan.rewrite ?schema { Plan.query; mark; default = Rule.opposite mark }
  in
  {
    subject;
    granted = finish Rule.Plus granted_q;
    residue = finish Rule.Minus residue_q;
  }

type answer = { granted_ids : int list; blocked : int }

let eval (b : Backend.t) c =
  match b.Backend.eval_plans [ c.granted; c.residue ] with
  | [ granted_ids; residue_ids ] ->
      { granted_ids; blocked = List.length residue_ids }
  | _ -> assert false

let eval_scopes scope c =
  match Plan.ids_shared scope [ c.granted; c.residue ] with
  | [ granted_ids; residue_ids ] ->
      { granted_ids; blocked = List.length residue_ids }
  | _ -> assert false
