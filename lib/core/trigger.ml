module Xp = Xmlac_xpath
module Sm = Xp.Schema_match

type result = {
  directly : int list;
  via_depends : int list;
  footprint : Sm.footprint option;
}

let all r = List.sort_uniq Stdlib.compare (r.directly @ r.via_depends)

let run_all ?schema depend ~updates =
  let rules = Array.of_list (Policy.rules (Depend.policy depend)) in
  (* [triggers i] says whether rule [i] is triggered directly. *)
  let footprint, triggers =
    match Depend.mode depend with
    | Depend.Paper ->
        (* The verdict depends on the resource alone. *)
        let related x u = Xp.Containment.comparable x u || Xp.Ast.equal_expr x u in
        let triggers =
          Rule.memo_resource (fun e ->
              List.exists
                (fun x -> List.exists (related x) updates)
                (Xp.Expand.expand ?schema e))
        in
        (None, fun i -> triggers rules.(i).Rule.resource)
    | Depend.Overlap sg ->
        (* Some expansion member overlaps some update iff the two
           footprints meet. *)
        let ufp = Sm.footprint sg updates in
        ( Some ufp,
          fun i ->
            Sm.footprints_meet (Option.get (Depend.expansion_footprint depend i)) ufp )
  in
  let directly = List.filter triggers (List.init (Array.length rules) Fun.id) in
  let via_depends =
    List.concat_map (Depend.depends depend) directly
    |> List.filter (fun i -> not (List.mem i directly))
    |> List.sort_uniq Stdlib.compare
  in
  { directly; via_depends; footprint }

let run ?schema depend ~update = run_all ?schema depend ~updates:[ update ]

let triggered_rules depend r =
  let rules = Array.of_list (Policy.rules (Depend.policy depend)) in
  List.map (fun i -> rules.(i)) (all r)
