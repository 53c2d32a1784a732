(** Document updates on the native store.

    The paper's updates are "XPath expressions that specify the
    location of the nodes to be inserted or deleted" (Section 5.3);
    deletion removes the designated nodes together with their
    subtrees. *)

val delete : Xmlac_xml.Tree.t -> Xmlac_xpath.Ast.expr -> int
(** Deletes every node the expression selects (with its subtree);
    returns the number of subtree roots removed.  Selecting the
    document root raises [Invalid_argument] — a document cannot delete
    itself. *)

val delete_nodes : Xmlac_xml.Tree.t -> Xmlac_xml.Tree.node list -> int
(** {!delete} of targets found elsewhere (the native store's index),
    in document order: a target an earlier one's subtree took along
    is skipped. *)

val insert :
  Xmlac_xml.Tree.t ->
  at:Xmlac_xpath.Ast.expr ->
  fragment:Xmlac_xml.Tree.t ->
  int
(** Grafts a copy of the fragment under every node selected by [at];
    returns the number of copies inserted.  Fresh universal ids are
    assigned to the copies. *)

val insert_nodes :
  Xmlac_xml.Tree.t ->
  at:Xmlac_xpath.Ast.expr ->
  fragment:Xmlac_xml.Tree.t ->
  Xmlac_xml.Tree.node list
(** Like {!insert}, returning the freshly grafted subtree roots — the
    nodes a relational store shredded from the same document takes in
    with {!Xmlac_shrex.Shred.insert_subtree} (same universal ids). *)

val graft_under :
  Xmlac_xml.Tree.t ->
  Xmlac_xml.Tree.node list ->
  fragment:Xmlac_xml.Tree.t ->
  Xmlac_xml.Tree.node list
(** {!insert_nodes} under parents found elsewhere, in document order:
    the order fixes the ids the copies take. *)
