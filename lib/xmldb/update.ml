module Tree = Xmlac_xml.Tree
module Eval = Xmlac_xpath.Eval

let delete_nodes doc targets =
  (* Deleting an ancestor first detaches its descendants, so skip any
     target no longer in the document. *)
  List.fold_left
    (fun count (n : Tree.node) ->
      if Tree.mem doc n then begin
        if Tree.parent n = None then
          invalid_arg "Update.delete: cannot delete the document root";
        Tree.delete doc n;
        count + 1
      end
      else count)
    0 targets

let delete doc expr = delete_nodes doc (Eval.eval doc expr)

let graft_under doc targets ~fragment =
  List.map (fun parent -> Tree.graft doc parent fragment) targets

let insert_nodes doc ~at ~fragment = graft_under doc (Eval.eval doc at) ~fragment

let insert doc ~at ~fragment = List.length (insert_nodes doc ~at ~fragment)
