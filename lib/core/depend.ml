module Xp = Xmlac_xpath
module Sm = Xp.Schema_match

type mode = Paper | Overlap of Xmlac_xml.Schema_graph.t

type t = {
  mode : mode;
  policy : Policy.t;
  rules : Rule.t array;
  adj : int list array;  (** Neighbour indices. *)
  closure : int list array;  (** Transitive closure (lazy-built). *)
  expansions : Sm.footprint array;  (** Per rule; empty in [Paper] mode. *)
  plans : (int list, Plan.t) Hashtbl.t;  (** [plan]'s memo. *)
}

let plan_capacity = 64

let build ~mode policy =
  let rules = Array.of_list (Policy.rules policy) in
  let n = Array.length rules in
  let adj = Array.make n [] in
  (* Paper mode restricts neighbours to opposite effects, as published.
     Overlap mode connects rules of any effect: a node leaving a
     triggered rule's scope may still be covered by a same-effect
     untriggered rule, and must not be reset — the wider closure is
     what makes partial re-annotation provably coincide with full
     annotation. *)
  let signs_ok i j =
    match mode with
    | Paper -> rules.(i).Rule.effect <> rules.(j).Rule.effect
    | Overlap _ -> true
  in
  (* Relatedness depends on the resources alone: number the distinct
     resources and decide each pair of them once.  In [Overlap] mode a
     resource's own footprint decides its pairs (two singleton
     footprints meet exactly when [overlap] holds), and its
     expansion's footprint is the trigger's. *)
  let resources = ref [] and classes = ref 0 in
  let class_of =
    Rule.memo_resource (fun e ->
        resources := e :: !resources;
        incr classes;
        !classes - 1)
  in
  let cls = Array.map (fun (r : Rule.t) -> class_of r.Rule.resource) rules in
  let resources = Array.of_list (List.rev !resources) in
  let footprints exprs =
    match mode with
    | Paper -> [||]
    | Overlap sg -> Array.map (fun e -> Sm.footprint sg (exprs sg e)) resources
  in
  let own = footprints (fun _ e -> [ e ]) in
  let related a b =
    match mode with
    | Paper ->
        let p = resources.(a) and q = resources.(b) in
        Xp.Containment.comparable p q || Xp.Ast.equal_expr p q
    | Overlap _ -> Sm.footprints_meet own.(a) own.(b)
  in
  let memo = Array.make_matrix !classes !classes None in
  let related i j =
    match memo.(cls.(i)).(cls.(j)) with
    | Some v -> v
    | None ->
        let v = related cls.(i) cls.(j) in
        memo.(cls.(i)).(cls.(j)) <- Some v;
        v
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && signs_ok i j && related i j then adj.(i) <- j :: adj.(i)
    done;
    adj.(i) <- List.rev adj.(i)
  done;
  (* Depend-Resolve: DFS from every rule. *)
  let closure = Array.make n [] in
  for i = 0 to n - 1 do
    let visited = Array.make n false in
    visited.(i) <- true;
    let acc = ref [] in
    let rec resolve r =
      List.iter
        (fun nb ->
          if not visited.(nb) then begin
            visited.(nb) <- true;
            acc := nb :: !acc;
            resolve nb
          end)
        adj.(r)
    in
    resolve i;
    closure.(i) <- List.rev !acc
  done;
  let expanded = footprints (fun sg e -> Xp.Expand.expand ~schema:sg e) in
  let expansions = if expanded = [||] then [||] else Array.map (Array.get expanded) cls in
  { mode; policy; rules; adj; closure; expansions; plans = Hashtbl.create 16 }

let mode t = t.mode
let policy t = t.policy
let neighbours t i = t.adj.(i)
let depends t i = t.closure.(i)

let expansion_footprint t i =
  match t.mode with Paper -> None | Overlap _ -> Some t.expansions.(i)

let plan ?schema t triggered =
  let compile () =
    Plan.rewrite ?schema
      (Plan.of_rules t.policy (List.map (fun i -> t.rules.(i)) triggered))
  in
  match (t.mode, schema) with
  | Overlap sg, Some s when s == sg -> (
      match Hashtbl.find_opt t.plans triggered with
      | Some p -> p
      | None ->
          let p = compile () in
          if Hashtbl.length t.plans >= plan_capacity then Hashtbl.reset t.plans;
          Hashtbl.replace t.plans triggered p;
          p)
  | _ -> compile ()

let pp ppf t =
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "%a@.  depends: %s@." Rule.pp r
        (String.concat ", "
           (List.map (fun j -> t.rules.(j).Rule.name) t.closure.(i))))
    t.rules
