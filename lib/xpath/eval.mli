(** Evaluation of XPath expressions over {!Xmlac_xml.Tree} documents.

    [\[\[p\]\](T)] in the paper's notation: the set of nodes obtained by
    evaluating the absolute expression [p] on the root of [T].  Node
    sets are returned deduplicated, in document (preorder) order, also
    when a step's context nodes nest: the children of an inner context
    come out before the enclosing context's next child.

    This evaluator walks the tree and needs no index, so it serves
    trees that are still being written: the [Xmlac_xmldb] store,
    update and XQuery layers, the plan explainer's counts, the
    reference oracles ([Rule.scope]), and the native backend's
    fallback — a repair scope or plan whose document has no
    {!Index} of its current shape.  Frozen snapshot views, and the
    live tree between structural writes once readers demand an index,
    are read through {!Index} instead, which the tests and the
    evaluator bench hold to this module's answers, list for list. *)

val eval : Xmlac_xml.Tree.t -> Ast.expr -> Xmlac_xml.Tree.node list
(** Evaluate an absolute expression on a document. *)

val eval_rel :
  Xmlac_xml.Tree.t -> Xmlac_xml.Tree.node -> Ast.path -> Xmlac_xml.Tree.node list
(** Evaluate a relative path from a context node (the empty path
    returns the context node itself). *)

val matches : Xmlac_xml.Tree.t -> Ast.expr -> Xmlac_xml.Tree.node -> bool
(** [matches t e n] iff [n] is in [eval t e]. *)

val node_set : Xmlac_xml.Tree.t -> Ast.expr -> (int, unit) Hashtbl.t
(** The answer as a set of universal node ids; convenient for the
    UNION/EXCEPT combinations of Section 5.2. *)

val count : Xmlac_xml.Tree.t -> Ast.expr -> int
