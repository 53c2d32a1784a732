module Xp = Xmlac_xpath

type result = {
  directly : int list;
  via_depends : int list;
}

let all r = List.sort_uniq Stdlib.compare (r.directly @ r.via_depends)

let related mode x u =
  match mode with
  | Depend.Paper ->
      Xp.Containment.comparable x u || Xp.Ast.equal_expr x u
  | Depend.Overlap sg -> Xp.Schema_match.overlap sg x u

let run_all ?schema depend ~updates =
  let policy = Depend.policy depend in
  let mode = Depend.mode depend in
  let schema =
    match (schema, mode) with
    | Some sg, _ -> Some sg
    | None, Depend.Overlap sg -> Some sg
    | None, Depend.Paper -> None
  in
  let rules = Array.of_list (Policy.rules policy) in
  (* The verdict depends on the resource alone. *)
  let triggers =
    Rule.memo_resource (fun e ->
        let expansion = Xp.Expand.expand ?schema e in
        List.exists
          (fun update -> List.exists (fun x -> related mode x update) expansion)
          updates)
  in
  let directly = ref [] in
  Array.iteri
    (fun i r -> if triggers r.Rule.resource then directly := i :: !directly)
    rules;
  let directly = List.rev !directly in
  let with_deps =
    List.concat_map (fun i -> Depend.depends depend i) directly
  in
  let direct_set = List.sort_uniq Stdlib.compare directly in
  let via_depends =
    List.sort_uniq Stdlib.compare
      (List.filter (fun i -> not (List.mem i direct_set)) with_deps)
  in
  { directly = direct_set; via_depends }

let run ?schema depend ~update = run_all ?schema depend ~updates:[ update ]

let triggered_rules depend r =
  let rules = Array.of_list (Policy.rules (Depend.policy depend)) in
  List.map (fun i -> rules.(i)) (all r)
