(** A read-only pre/size index over one structural state of a
    document, and an XPath evaluator over it.

    Nodes are numbered by their preorder {e rank}.  The index keeps,
    per rank, the node's id, subtree size, interned name and leaf
    value, plus per-name postings (the ranks carrying each
    name, ascending).  A subtree is the rank interval
    [(r, r + size r\]], so:

    {ul
    {- a descendant step is a staircase join: the context is pruned to
       its outermost intervals and the step's postings are merged
       against them (a wildcard takes the whole interval);}
    {- a child step walks each context's children by size skips
       (first child [r + 1], next sibling [c + size c + 1]), never
       scanning the whole document;}
    {- a qualifier binary-searches the postings inside the context's
       interval and stops at its first witness.}}

    Evaluation allocates little beyond its result and takes no lock,
    so one index may be read from many domains at once.  It gives the
    same answers as {!Eval.eval}, in the same (document) order.

    The index describes the tree as it was at {!build}, and records
    the tree's {!Xmlac_xml.Tree.family} and {!Xmlac_xml.Tree.shape}.
    Sign and bitmap writes leave it valid; a structural write leaves
    it describing the old state, which {!describes} detects.  So one
    index serves a frozen snapshot view for its whole life, and the
    live tree between two structural writes.  The engine's repair
    evaluates its scopes on one once readers have evaluated on an
    index of the same shape, and the epoch's snapshot takes over the
    index the repair built after its structural write. *)

type t

val build : Xmlac_xml.Tree.t -> t
(** One preorder walk of the document: O(n) time and about five words
    per node. *)

val eval : t -> Ast.expr -> int array
(** The ranks of the nodes the absolute expression selects, ascending
    (document order), without duplicates.  The empty expression
    selects the root. *)

val describes : t -> Xmlac_xml.Tree.t -> bool
(** [describes t doc] iff [doc] is of the indexed tree's family and
    has had no structural write since {!build}: the index's answers
    are then [doc]'s.  Holds for the live tree and every view frozen
    from it at the same shape. *)

val length : t -> int
(** Number of nodes indexed. *)

val id : t -> int -> int
(** The node id at a rank. *)

val ids : t -> int array -> int array
(** [ids t ranks] is the node ids at [ranks] (as {!eval} returns them),
    ascending: a fresh array.  Ids that already ascend in document
    order, as they do until a graft, cost one scan and no sort. *)

