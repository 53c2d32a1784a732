(** Native XML backend: direct XPath evaluation and in-place sign
    mutation over one document — the MonetDB/XQuery role.

    In the paper's native store (Section 5.2), annotations are [sign]
    attributes written by the generated
    [for $n in doc(...)(...) return xmlac:annotate($n, ...)] queries;
    here the same surface is the sign slot of {!Xmlac_xml.Tree} nodes,
    and plan evaluation short-circuits the XQuery text to direct
    id-set evaluation (the text form itself is covered by
    {!Xmlac_xmldb.Xquery}). *)

val make : ?index:Xmlac_xpath.Index.t option ref -> Xmlac_xml.Tree.t -> Backend.t
(** The backend operates on the document in place.

    [index] (default: a slot of its own, left empty) is the one live
    index slot.  While the slot holds an index that
    {!Xmlac_xpath.Index.describes} the document — no structural write
    since it was built — [eval_ids], [eval_plan] and [eval_plans]
    evaluate on it by staircase joins; otherwise they walk the tree
    with {!Xmlac_xpath.Eval}.  Both give the same ids.  The backend
    never fills the slot: its owner ({!Engine}) puts an index there
    when readers demand one, so an unread document is only ever
    walked. *)
