(** A read-only pre/size index over a document that no longer changes
    (a frozen {!Xmlac_xml.Tree} view), and an XPath evaluator over it.

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
    same answers as {!Eval.eval}, in the same (document) order.  The
    index describes the tree as it was at {!build}: building it over a
    tree that is later mutated leaves it describing the old state. *)

type t

val build : Xmlac_xml.Tree.t -> t
(** One preorder walk of the document: O(n) time and about five words
    per node. *)

val eval : t -> Ast.expr -> int array
(** The ranks of the nodes the absolute expression selects, ascending
    (document order), without duplicates.  The empty expression
    selects the root. *)

val length : t -> int
(** Number of nodes indexed. *)

val id : t -> int -> int
(** The node id at a rank. *)

