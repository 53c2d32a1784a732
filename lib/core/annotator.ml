type stats = {
  reset_default : Rule.effect;
  marked : int;
  total : int;
}

let annotate_with_plan (backend : Backend.t) (plan : Plan.t) =
  backend.Backend.reset_signs ~default:plan.Plan.default;
  let ids = backend.Backend.eval_plan plan in
  let marked = backend.Backend.set_sign_ids ids plan.Plan.mark in
  {
    reset_default = plan.Plan.default;
    marked;
    total = backend.Backend.node_count ();
  }

let annotate ?schema ?(rewrite = true) backend policy =
  let plan = Plan.of_policy policy in
  let plan = if rewrite then Plan.rewrite ?schema plan else plan in
  annotate_with_plan backend plan

let coverage stats =
  if stats.total = 0 then 0.0
  else float_of_int stats.marked /. float_of_int stats.total

(* --- multi-subject shared pass ------------------------------------- *)

type subjects_stats = {
  roles : int;
  distinct_plans : int;
  shared_plans : int;
  stamped : int;
  bits_total : int;
}

(* Same resolved ds/cr and the same rules (structurally equal
   resources, equal effects): the two projections compile to the same
   plan. *)
let same_projection p q =
  Policy.ds p = Policy.ds q
  && Policy.cr p = Policy.cr q
  &&
  let rp = Policy.rules p and rq = Policy.rules q in
  List.length rp = List.length rq
  && List.for_all2
       (fun (a : Rule.t) (b : Rule.t) ->
         a.Rule.effect = b.Rule.effect
         && (a.Rule.resource == b.Rule.resource
            || Xmlac_xpath.Ast.equal_expr a.Rule.resource b.Rule.resource))
       rp rq

(* One plan per role, in bit order: the role's projected single-subject
   policy compiled and rewritten exactly as the single-plan path
   would.  Roles whose projections coincide ({!same_projection})
   compile (and rewrite, the expensive step) once and share the plan
   value; a miss only costs the duplicate compile it would have paid
   anyway. *)
let compile_subjects ?schema ?(rewrite = true) policy =
  let compiled = ref [] in
  List.map
    (fun role ->
      let p = Policy.for_subject policy role in
      match List.find_opt (fun (q, _) -> same_projection p q) !compiled with
      | Some (_, plan) -> plan
      | None ->
          let plan = Plan.of_policy p in
          let plan = if rewrite then Plan.rewrite ?schema plan else plan in
          compiled := (p, plan) :: !compiled;
          plan)
    (Policy.roles policy)

(* Group the role plans by answer equivalence ({!Plan.equiv}), keeping
   bit order within and across groups.  Marks may differ inside a
   group — the answer is shared, the fan-out direction is per role. *)
let share ?schema plans =
  let groups = ref [] (* (representative, (role, value) list ref), reversed *) in
  List.iteri
    (fun role (p : Plan.t) ->
      let value = p.Plan.mark = Rule.Plus in
      match
        (* Plans deduplicated by [compile_subjects] are physically
           shared, so most lookups resolve on [==] without touching
           the containment-based equivalence check. *)
        List.find_opt
          (fun (rep, _) -> rep == p || Plan.equiv ?schema rep p)
          !groups
      with
      | Some (_, members) -> members := (role, value) :: !members
      | None -> groups := (p, ref [ (role, value) ]) :: !groups)
    plans;
  List.rev_map (fun (rep, members) -> (rep, List.rev !members)) !groups

let annotate_subjects ?schema ?(rewrite = true) (backend : Backend.t) policy =
  let default = Policy.default_bits policy in
  backend.Backend.reset_bits ~default;
  let plans = compile_subjects ?schema ~rewrite policy in
  let groups = share ?schema plans in
  let answers = backend.Backend.eval_plans (List.map fst groups) in
  (* Gather every (role, value) edit per node before touching the
     store, so each touched node's bitmap is read, updated and
     serialized once for the whole epoch — not once per role.  Nodes
     keep first-touch order (group order, ascending ids within), and a
     node's edits keep role order, so the write sequence is a
     reordering of the old per-role loops over commuting single-bit
     edits. *)
  let per_node : (int, (int * bool) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let order = ref [] (* first-touch order, reversed *) in
  List.iter2
    (fun (_, members) ids ->
      List.iter
        (fun id ->
          let edits =
            match Hashtbl.find_opt per_node id with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace per_node id r;
                order := id :: !order;
                r
          in
          List.iter (fun (role, value) -> edits := (role, value) :: !edits)
            members)
        ids)
    groups answers;
  let batch =
    List.rev_map
      (fun id -> (id, List.rev !(Hashtbl.find per_node id)))
      !order
  in
  let stamped = backend.Backend.set_bits_batch batch ~default in
  let roles = List.length plans in
  {
    roles;
    distinct_plans = List.length groups;
    shared_plans = roles - List.length groups;
    stamped;
    bits_total = backend.Backend.node_count ();
  }
