module Tree = Xmlac_xml.Tree
module Xp = Xmlac_xpath
module Bitset = Xmlac_util.Bitset

let make doc : Backend.t =
  let eval_ids e =
    List.sort Stdlib.compare
      (List.map (fun (n : Tree.node) -> n.Tree.id) (Xp.Eval.eval doc e))
  in
  {
    Backend.name = "xquery";
    eval_ids;
    eval_plan = (fun p -> Plan.native_ids doc p);
    eval_plans = (fun ps -> Plan.native_ids_shared doc ps);
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
    restore_sign =
      (fun id s ->
        (* The undo-journal primitive: unlike [set_sign_ids] this can
           write back [None], the unannotated state the native store's
           compact representation relies on. *)
        match Tree.find doc id with
        | Some n -> Tree.set_sign doc n s
        | None -> ());
    set_bits_ids =
      (fun ids ~role ~value ~default ->
        List.fold_left
          (fun count id ->
            match Tree.find doc id with
            | Some n ->
                (* Unannotated nodes materialize their bitmap from the
                   default on first touch. *)
                let base = Option.value n.Tree.bits ~default in
                let bits =
                  if value then Bitset.add role base
                  else Bitset.remove role base
                in
                Tree.set_bits doc n (Some bits);
                count + 1
            | None -> count)
          0 ids);
    set_bits_batch =
      (fun edits ~default ->
        (* All of a node's role edits fold into one bitmap write. *)
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
    restore_bits =
      (fun id b ->
        match Tree.find doc id with
        | Some n -> Tree.set_bits doc n b
        | None -> ());
    delete_update = (fun e -> Xmlac_xmldb.Update.delete doc e);
    has_node = (fun id -> Tree.find doc id <> None);
    live_ids =
      (fun () ->
        List.sort Stdlib.compare
          (List.map (fun (n : Tree.node) -> n.Tree.id) (Tree.nodes doc)));
    iter_live =
      (fun f ->
        Tree.iter_by_id (fun n -> f n.Tree.id n.Tree.sign n.Tree.bits) doc);
    node_count = (fun () -> Tree.size doc);
  }
