(** Native XML backend: direct XPath evaluation and in-place sign
    mutation over one document — the MonetDB/XQuery role.

    In the paper's native store (Section 5.2), annotations are [sign]
    attributes written by the generated
    [for $n in doc(...)(...) return xmlac:annotate($n, ...)] queries;
    here the same surface is the sign slot of {!Xmlac_xml.Tree} nodes,
    and plan evaluation short-circuits the XQuery text to direct
    id-set evaluation (the text form itself is covered by
    {!Xmlac_xmldb.Xquery}). *)

val make : ?index:Live_index.t -> Xmlac_xml.Tree.t -> Backend.t
(** The backend operates on the document in place.

    [eval_ids], [eval_plan] and [eval_plans] evaluate by staircase
    joins on [index] ({!Live_index.get}), and [delete_update] finds its
    targets there.  [index] defaults to one of the backend's own,
    built now and rebuilt whenever the document's shape moved since
    ([repair.index_rebuilds], uncounted); its owner ({!Engine}) passes
    the one its writer patches after each structural write. *)
