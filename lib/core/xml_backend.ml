module Tree = Xmlac_xml.Tree
module Xp = Xmlac_xpath
module Bitset = Xmlac_util.Bitset

let make ?index doc : Backend.t =
  let index = match index with Some i -> i | None -> Live_index.create doc in
  let scope () = Plan.index_scope (Live_index.get index) in
  {
    Backend.name = "xquery";
    eval_ids =
      (fun e ->
        let i = Live_index.get index in
        (* Ids ascend in document order until a graft breaks it. *)
        let ids =
          Array.fold_right (fun r acc -> Xp.Index.id i r :: acc) (Xp.Index.eval i e) []
        in
        let rec ascends = function a :: (b :: _ as l) -> a < b && ascends l | _ -> true in
        if ascends ids then ids else List.sort Int.compare ids);
    eval_plan = (fun p -> Plan.Ids.elements (Plan.eval (scope ()) p));
    eval_plans = (fun ps -> Plan.ids_shared (scope ()) ps);
    set_sign_ids =
      (fun ids sign ->
        List.fold_left
          (fun count id ->
            match Tree.find doc id with
            | Some n ->
                Xmlac_xmldb.Store.annotate doc n sign;
                count + 1
            | None -> count)
          0 ids);
    reset_signs =
      (fun ~default ->
        (* The native store keeps only non-default annotations
           (Section 5.2), so resetting means erasing them all. *)
        ignore default;
        Tree.clear_signs doc);
    sign_of =
      (fun id ->
        match Tree.find doc id with
        | Some n -> n.Tree.sign
        | None -> None);
    set_bits_batch =
      (fun edits ~default ->
        (* All of a node's role edits fold into one bitmap write;
           unannotated nodes materialize their bitmap from the default
           on first touch. *)
        List.fold_left
          (fun acc (id, role_edits) ->
            match (Tree.find doc id, role_edits) with
            | None, _ | _, [] -> acc
            | Some n, _ ->
                let base = Option.value n.Tree.bits ~default in
                let bits =
                  List.fold_left
                    (fun b (role, value) ->
                      if value then Bitset.add role b else Bitset.remove role b)
                    base role_edits
                in
                Tree.set_bits doc n (Some bits);
                acc + List.length role_edits)
          0 edits);
    reset_bits =
      (fun ~default ->
        (* The native store keeps only materialized bitmaps, so
           resetting means erasing them all. *)
        ignore default;
        Tree.clear_bits doc);
    bits_of =
      (fun id ->
        match Tree.find doc id with Some n -> n.Tree.bits | None -> None);
    delete_update =
      (fun e -> Xmlac_xmldb.Update.delete_nodes doc (Live_index.targets index e));
    has_node = (fun id -> Tree.find doc id <> None);
    live_ids =
      (fun () ->
        List.sort Stdlib.compare
          (List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.nodes doc)));
    node_count = (fun () -> Tree.size doc);
  }
