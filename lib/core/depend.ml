module Xp = Xmlac_xpath

type mode = Paper | Overlap of Xmlac_xml.Schema_graph.t

type t = {
  mode : mode;
  policy : Policy.t;
  rules : Rule.t array;
  adj : int list array;  (** Neighbour indices. *)
  closure : int list array;  (** Transitive closure (lazy-built). *)
}

let related mode (a : Rule.t) (b : Rule.t) =
  match mode with
  | Paper ->
      Xp.Containment.comparable a.Rule.resource b.Rule.resource
      || Xp.Ast.equal_expr a.Rule.resource b.Rule.resource
  | Overlap sg -> Xp.Schema_match.overlap sg a.Rule.resource b.Rule.resource

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
     resources and decide each pair of them once. *)
  let classes = ref 0 in
  let class_of =
    Rule.memo_resource (fun _ ->
        incr classes;
        !classes - 1)
  in
  let cls = Array.map (fun (r : Rule.t) -> class_of r.Rule.resource) rules in
  let memo = Array.make_matrix !classes !classes None in
  let related i j =
    match memo.(cls.(i)).(cls.(j)) with
    | Some v -> v
    | None ->
        let v = related mode rules.(i) rules.(j) in
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
  { mode; policy; rules; adj; closure }

let mode t = t.mode
let policy t = t.policy
let neighbours t i = t.adj.(i)
let depends t i = t.closure.(i)

let pp ppf t =
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "%a@.  depends: %s@." Rule.pp r
        (String.concat ", "
           (List.map (fun j -> t.rules.(j).Rule.name) t.closure.(i))))
    t.rules
