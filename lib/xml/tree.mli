(** Rooted, unordered, mutable XML trees with copy-on-write freezes.

    This is the document model of the paper (Section 2.1): nodes carry
    labels from a finite alphabet of element names, leaf nodes may carry
    a data value, and every node has a document-unique integer id — the
    "universal identifier" that the relational mapping of Section 5.2
    relies on.  Each node also has a mutable [sign] slot storing the
    materialized accessibility annotation ("+"/"-") used by the native
    XML store.

    Trees are mutable because the paper's workload is update-heavy:
    annotation flips signs in place and document updates delete or
    insert subtrees.

    {2 Generations and frozen views}

    [freeze] publishes the current state as an immutable view in O(1):
    the view shares every node record and the persistent id index with
    the live tree, and the live tree moves to a new {e generation}.
    Each node record remembers the generation that created it; the
    first write of a generation to a record born earlier path-copies
    the record and its ancestor chain ([O(depth)]) before mutating, so
    frozen views never observe later writes.  A tree that is never
    frozen mutates fully in place, exactly as before.

    Two reading rules follow from path-copying.  (1) The current record
    of a node always lists current records as its [children], so any
    downward traversal from [root] sees only current state.  (2) A
    record's [parent] pointer may reference a {e displaced} (superseded)
    record whose [id]/[name] are correct but whose annotation slots are
    stale — upward walks that read more than identity must resolve the
    parent through [parent_live].  All mutators resolve their node
    argument by id first, so stale references held across mutations
    remain valid handles. *)

type sign = Plus | Minus

val sign_to_string : sign -> string
val sign_of_string : string -> sign option

type node = private {
  id : int;  (** Document-unique identifier, assigned at creation. *)
  mutable name : string;  (** Element name. *)
  mutable value : string option;  (** Text content of a leaf element. *)
  mutable parent : node option;
      (** [None] only for the root.  May point at a displaced record
          after the parent is path-copied: ids and names stay valid,
          annotation slots may be stale — see [parent_live]. *)
  mutable children : node list;  (** Document order preserved. *)
  mutable sign : sign option;  (** Materialized annotation, if any. *)
  mutable bits : Xmlac_util.Bitset.t option;
      (** Multi-subject annotation: the set of role bit indices with
          access, or [None] when unannotated (every role falls back to
          its resolved default semantics). *)
  mutable gen : int;  (** Generation that created this record. *)
  fam : int;  (** The tree family the record belongs to. *)
}

type t
(** A document: a root node plus the id allocator and id index. *)

(** {1 Construction} *)

val create : root_name:string -> t
(** A document whose root element is [root_name]. *)

val root : t -> node

val add_child : t -> node -> ?value:string -> string -> node
(** [add_child doc parent name] appends a fresh child element. Raises
    [Invalid_argument] if [parent] does not belong to [doc], or when
    adding a child to a node holding a text value. *)

val set_value : t -> node -> string option -> unit
(** Sets the text content of a leaf. Raises [Invalid_argument] on a
    node with element children. *)

val delete : t -> node -> unit
(** Detaches [node] (with its whole subtree) from the document and
    removes all its ids from the index. Deleting the root raises
    [Invalid_argument]. *)

val graft : t -> node -> t -> node
(** [graft doc parent fragment] deep-copies the root of document
    [fragment] (and its subtree) under [parent], assigning fresh ids in
    [doc]; returns the new child.  The copies are unannotated: the
    fragment's signs and role bitmaps are not copied, so every grafted
    node reads as the default until something stamps it. *)

(** {1 Access} *)

val find : t -> int -> node option
(** Node's current record by universal id; O(log n). *)

val mem : t -> node -> bool
(** Whether the node currently belongs to the document (by id: any
    record of the node, current or displaced, answers the same). *)

val size : t -> int
(** Number of nodes in the document. *)

val parent : node -> node option

val parent_live : t -> node -> node option
(** The {e current} record of [n]'s parent: [parent] resolved through
    the document index.  Use this instead of [parent] whenever the
    walk reads annotation slots or children, which can be stale on a
    displaced record. *)

val children : node -> node list

val descendants : node -> node list
(** Proper descendants, document order (preorder). *)

val descendant_or_self : node -> node list

val ancestors : node -> node list
(** Proper ancestors, nearest first. *)

val depth : node -> int
(** Root has depth 0. *)

val label_path : node -> string list
(** Element names from the root down to the node, inclusive. *)

val iter : (node -> unit) -> t -> unit
(** Preorder traversal of the whole document. *)

val iter_by_id : (node -> unit) -> t -> unit
(** Every node's current record in ascending id order: a walk of the
    id index, with no sort and no per-id lookup. *)

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
val nodes : t -> node list

val count : (node -> bool) -> t -> int

(** {1 Annotations} *)

val set_sign : t -> node -> sign option -> unit
(** Writes the node's sign slot (path-copying first if the record is
    shared with a frozen view); no-op when the sign is unchanged. *)

val signed : t -> sign -> node list
(** Nodes currently carrying the given sign. *)

val clear_signs : t -> unit

val set_bits : t -> node -> Xmlac_util.Bitset.t option -> unit
(** Writes the node's role bitmap; [None] returns it to unannotated.
    No-op when the bitmap is unchanged. *)

val clear_bits : t -> unit
(** Erases every node's role bitmap (all nodes unannotated). *)

(** {1 Freezing} *)

type freeze_stats = {
  frozen_gen : int;  (** Generation the view captured. *)
  changed : int list;
      (** Ids written during the frozen generation (ascending): the
          epoch's change set.  A write is a sign, bitmap or value
          write, a birth or a deletion.  The ancestors a write merely
          path-copies are not listed: their slots did not change. *)
  structural : bool;
      (** Whether the generation inserted/deleted nodes or changed a
          value (anything that can move query answer sets). *)
}

val freeze : t -> t * freeze_stats
(** Publishes the current state as an immutable view, O(1): the view
    shares all unchanged structure with the live tree, which moves to
    the next generation.  Mutating a frozen view raises
    [Invalid_argument]; freezing a frozen view likewise. *)

val abort : t -> int
(** Discards every write since the tree's last {!freeze} — signs,
    bitmaps, values, births and deletions, whoever made them — and
    returns the tree to that freeze's index, root, node count and id
    allocator: the next fresh id is the one the freeze would have
    handed out.  O(1) plus the change set, and it stays in the
    current generation.  Returns how many ids the discarded writes
    touched (the {!fold_changed} set).  The view and every record it
    shares are untouched, since copy-on-write never writes them.
    Raises [Invalid_argument] on a frozen view or a tree never
    frozen. *)

val fold_changed : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the ids written since the last {!freeze} (ascending):
    the change set the next freeze will report.  Empty on a frozen
    view. *)

val frozen : t -> bool
(** Whether [t] is a frozen view. *)

val generation : t -> int
(** The generation currently being written ([freeze] increments it);
    on a frozen view, the generation the view captured. *)

val family : t -> int
(** Process-unique identifier shared by a tree and every view frozen
    from it; [copy] starts a new family.  Two trees share structure
    only within one family, so snapshot carry-forward requires the
    captured view to be of its predecessor's family. *)

val shape : t -> int
(** The tree's structural state: {!add_child}, {!set_value} (when the
    value changes), {!delete} and {!graft} each move it to a value the
    tree has never had before; sign and bitmap writes and {!freeze} do
    not move it.  A frozen view keeps the value the tree had at
    freeze, and {!abort} takes that value back.  Within one
    {!family}, two trees with the same shape have the same nodes,
    names, values and document order, so a structure derived from one
    (the XPath library's pre/size index) describes the other — and
    one derived from writes an {!abort} discarded describes nothing
    the tree is ever again. *)

(** {1 Copying and comparison} *)

val copy : t -> t
(** Deep copy preserving ids, values, signs and role bitmaps.  The
    copy is a fresh unfrozen generation-0 tree sharing nothing with
    [t]. *)

val equal_structure : t -> t -> bool
(** Same shape, names and values (ids and signs ignored); children are
    compared in document order. *)

val equal_annotated : t -> t -> bool
(** [equal_structure] and equal signs and role bitmaps
    node-for-node. *)

val pp : Format.formatter -> t -> unit
(** Debugging printer: indented outline with ids and signs. *)
