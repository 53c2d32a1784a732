(** The pre/size index ({!Xmlac_xpath.Index}) of one live document,
    kept current across its writes: the native store evaluates every
    expression on it, and the engine's writer owns it.

    It keeps two buffers: the index of the document's shape, and the
    one before it.  A structural write is followed by {!patch}, which
    splices the current index into the other buffer's storage — so a
    writer whose indexes nobody holds alternates two buffers and
    allocates nothing that grows with the document.  An index {!lend}
    hands out (to a snapshot, whose readers may hold it) is never
    written again: the patch after it allocates a fresh buffer instead
    ([repair.index_spares]), unless {!take_back} reports that no reader
    took it.  After {!Xmlac_xml.Tree.abort} the kept buffer that
    describes the restored shape is current again, and a document
    neither buffer describes (a structural write made outside {!patch})
    is indexed from scratch ([repair.index_rebuilds]). *)

type t

val create : ?metrics:Xmlac_util.Metrics.t -> Xmlac_xml.Tree.t -> t
(** Builds the document's index.  [metrics] receives
    [repair.index_patches], [repair.index_spares] and
    [repair.index_rebuilds]. *)

val get : t -> Xmlac_xpath.Index.t
(** The index of the document's current shape: the current buffer
    while it {!Xmlac_xpath.Index.describes} the document, else the kept
    one if it does (after an abort), else a {!Xmlac_xpath.Index.build}
    counted [repair.index_rebuilds].  O(1) but for the rebuild. *)

val patch : t -> unit
(** Makes the index current after the structural writes since the
    document's last {!Xmlac_xml.Tree.freeze}, which the current buffer
    must have described at or after that freeze: a
    {!Xmlac_xpath.Index.patch} into the other buffer, counted
    [repair.index_patches], or into a fresh one, counted
    [repair.index_spares] as well, when the other one was lent.  A
    no-op while the current buffer describes the document. *)

val lend : t -> Xmlac_xpath.Index.t option
(** {!get}, after which that index's storage is never written again,
    or [None] if it was lent already: a buffer is lent to one borrower
    at a time, so that {!take_back} from that one frees it. *)

val take_back : t -> (Xmlac_xpath.Index.t -> bool) -> unit
(** [take_back t unread] offers each lent buffer to [unread], and one it
    returns [true] for may be written again: the borrower has given it
    up, and no reader holds it. *)

val targets : t -> Xmlac_xpath.Ast.expr -> Xmlac_xml.Tree.node list
(** The nodes the absolute expression selects on {!get}, in document
    order, as {!Xmlac_xpath.Eval.eval} lists them. *)
