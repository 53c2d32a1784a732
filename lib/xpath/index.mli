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

    The index describes the tree as it was at {!build} or {!patch},
    and records the tree's {!Xmlac_xml.Tree.family} and
    {!Xmlac_xml.Tree.shape}.  Sign and bitmap writes leave it valid; a
    structural write leaves it describing the old state, which
    {!describes} detects, and {!patch} derives the new state's index
    from it by splicing the old arrays where the write cut or grafted,
    without walking the tree, into the storage of an index the caller
    gives up.  So one index serves a frozen snapshot view for its
    whole life, and the live tree between two structural writes.  The
    engine's writer keeps one current across every epoch, patching it
    back and forth between two buffers, and hands the patched one to
    the epoch's snapshot when readers want it.  {!build} is the cold
    start. *)

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


val patch : ?into:t -> t -> Xmlac_xml.Tree.t -> t
(** [patch ?into old doc] is the index of the live tree [doc] after the
    writes since its last {!Xmlac_xml.Tree.freeze}
    ({!Xmlac_xml.Tree.fold_changed}), given the index [old] of its
    shape before them: [old] must have {!describes}d [doc] at or after
    that freeze.  The result equals {!build} on [doc] (see {!equal}).
    The changed ids [old] holds and [doc] does not are the deleted
    subtrees; those [doc] holds and [old] does not were born, and a
    born node under a node of [old] roots a grafted subtree, which
    {!Xmlac_xml.Tree.graft} and {!Xmlac_xml.Tree.add_child} place
    after its parent's other children.  A changed value is rewritten
    at its rank.  The changed ids are found by one scan of [old]'s
    ranks against a byte per id; each array is then copied once, cut
    and spliced, and so is each name's postings; a name [old] never
    saw is interned into a copy of its name table.  O(n) copying plus
    O(changed · log n), and no walk of the tree beyond the grafted
    subtrees.  [old] is only read.

    [into] is an index the caller gives up, of any earlier state: the
    result is [into] itself, its storage overwritten, and it allocates
    nothing in proportion to the document while its arrays have the
    room (each grows with some to spare when they do not).  Without
    [into] the result is a fresh index.  An index readers may still
    hold must never be passed as [into].
    @raise Invalid_argument when [into] is [old], [doc] is of another
    family, or its node count or a changed id shows that [old] did not
    describe it before those writes. *)

val carry :
  from:t -> t -> int array -> written:int list -> fresh:(int -> int) ->
  int array
(** [carry ~from t a ~written ~fresh] moves an int column over the
    ranks of [from], an index of an earlier state of [t]'s tree that
    no {!Xmlac_xml.Tree.abort} discarded, to [t]'s ranks: each node
    takes [fresh id] if its id is in [written] (every birth since must
    be), else [a]'s entry at its rank in [from].  Births are numbered
    above every id of [from] and survivors keep their order, so one
    scan of the two id arrays pairs them; [Array.copy a] and the
    written ranks when [from == t].
    @raise Invalid_argument when [a] is not of [from]'s length, or
    the ids show that [from] is not such a state. *)

val equal : t -> t -> bool
(** Whether two indexes describe the same tree state alike: family,
    shape, and per rank the id, size, name (as a string: names may be
    interned in another order) and value, with the same ranks per
    name.  The check the tests and the micro bench hold {!patch} to
    against {!build}. *)
