(** Compressed accessibility map (related work of the paper: Yu et al.,
    TODS 2004; Zhang et al., DKE 2007).

    Accessibility is strongly clustered — whole subtrees tend to share
    one sign — so instead of one sign per node, a CAM stores a sign
    only at nodes whose {e effective} sign differs from their parent's;
    a lookup walks up to the nearest recorded ancestor.  This is the
    compact labeling the paper cites as the more sophisticated way to
    store annotations.

    The CAM is the requester's hot-path index ({!Engine.request}).
    Snapshots own every map: a {!Snapshot.t} builds one over its
    frozen signs (or one role's bitmap bit) on the first read that
    needs it, and the next epoch's snapshot patches a copy with
    {!apply_changes} at the ids the epoch wrote — after partial
    re-annotation (Section 5.3) only the nodes whose sign changed and
    their children are recomputed.  The invariant: a node carries an
    entry iff its effective sign differs from its parent's effective
    sign (the root's reference sign being [default]). *)

type t

val build : Xmlac_xml.Tree.t -> default:Xmlac_xml.Tree.sign -> t
(** Reads the document's current (possibly partial) annotations; an
    unannotated node's effective sign is [default] — the native
    store's interpretation (Section 5.2). *)

val build_with :
  Xmlac_xml.Tree.t ->
  default:Xmlac_xml.Tree.sign ->
  read:(Xmlac_xml.Tree.node -> Xmlac_xml.Tree.sign option) ->
  t
(** {!build} generalized over the annotation being indexed: [read]
    extracts a node's explicit sign (or [None] for unannotated) and is
    retained for incremental maintenance.  [build] is
    [build_with ~read:(fun n -> n.sign)]. *)

val build_role :
  Xmlac_xml.Tree.t -> role:int -> default:Xmlac_xml.Tree.sign -> t
(** A per-role map over the bitmap slots: a node with a materialized
    bitmap reads as [Plus] iff the role's bit is set; an unannotated
    node inherits [default] (the role's resolved default
    semantics). *)

val freeze : t -> t
(** An O(1) frozen copy: the entry map is persistent, so the copy
    shares it by reference and a later patch on either side leaves the
    other untouched.  Entries are keyed by node id and
    {!lookup} walks the parent chain of the node it is handed, so the
    copy answers for any tree with the same ids and parent chains — in
    particular the COW view an MVCC snapshot captures. *)

val lookup : t -> Xmlac_xml.Tree.node -> Xmlac_xml.Tree.sign
(** Effective sign of a node of the document the map was built from.
    O(depth) worst case; O(1) when the node itself carries an entry.
    Crosses one {!Xmlac_util.Deadline.checkpoint} per call, so lookups
    under a serve-layer budget time out cooperatively. *)

val lookup_at : t -> id:(int -> int) -> parent:(int -> int) -> int -> Xmlac_xml.Tree.sign
(** {!lookup} over the positions of another encoding of the same
    document, such as the preorder ranks of an
    {!Xmlac_xpath.Index}: [id p] is the node id at position [p] and
    [parent p] its parent's position, negative at the root.  Walks
    parent positions instead of node records, with the same single
    {!Xmlac_util.Deadline.checkpoint}. *)

val default : t -> Xmlac_xml.Tree.sign

val entries : t -> int
(** Stored sign changes. *)

val node_count : t -> int
(** Document size at build time (kept current by the maintenance
    operations). *)

val compression_ratio : t -> float
(** [entries / node_count]; small is good — 1.0 means the map
    degenerated to one sign per node. *)

(** {1 Incremental maintenance}

    Each operation returns how many nodes (or entries) it examined.
    Snapshots use {!apply_changes} alone; {!rebuild_subtree} and
    {!purge} stay only for [perfbench/]'s traced replay and the
    tests. *)

val apply_changes : t -> Xmlac_xml.Tree.t -> changed:int list -> int
(** [apply_changes t doc ~changed] repairs the map after the nodes in
    [changed] were written (annotation writes and births).  A write at
    [n] can only move the change points at [n] itself and at [n]'s
    children, so exactly those entries are recomputed; an id no longer
    present in [doc] loses its entry (a deleted node's descendants
    only if listed too, as a {!Xmlac_xml.Tree.freeze} change set lists
    them).  Returns the number of distinct live nodes examined. *)

val rebuild_subtree : t -> Xmlac_xml.Tree.t -> root:int -> int
(** Recomputes every entry in the subtree rooted at id [root]
    (inheriting from the live parent's effective sign) — used for
    freshly grafted fragments, whose nodes have no entries yet.
    Returns the subtree's node count; 0 when [root] is not in
    [doc]. *)

val purge : t -> Xmlac_xml.Tree.t -> int
(** Drops entries whose node no longer exists in [doc] (deleted
    subtrees).  Stale entries are unreachable from {!lookup} — walks
    start at live nodes — so this is garbage collection, not
    correctness repair; O(entries).  Returns how many were dropped. *)

val equal : t -> t -> bool
(** Same default and identical entry sets: the tests' check that a
    patched map equals a fresh {!build}. *)

val pp : Format.formatter -> t -> unit
