(** The storage-backend interface the access-control engine drives.

    Figure 3's annotator / reannotator / requester talk to both stores
    through exactly these operations; {!Rel_backend} routes them
    through SQL over the shredded database, {!Xml_backend} through
    XPath over the native tree.  Node identity is the universal id in
    both.

    {2 Signs and role bitmaps}

    Two annotation representations coexist.  The single-subject sign
    ("+"/"-") is the paper's original materialization.  The
    multi-subject role {e bitmap} ({!Xmlac_util.Bitset}) stores, per
    node, the set of role bit indices with access; [set_bits_batch]
    writes every role edit of a node at once, which is how the shared
    annotation pass fans each plan answer out to the roles that share
    the plan.

    {2 Crash safety}

    {!with_faults} threads every mutating operation through
    {!Xmlac_util.Fault} points — per {e node} for sign and bitmap
    stamps, so a counted trigger can kill the process in the middle of
    a multi-row UPDATE.  The native store has no WAL and needs no undo
    record: its document's last copy-on-write freeze is the committed
    state, and {!Engine.recover} discards a crashed epoch's writes
    back to it ({!Xmlac_xml.Tree.abort}). *)

type t = {
  name : string;  (** e.g. "xquery", "row-sql", "column-sql". *)
  eval_ids : Xmlac_xpath.Ast.expr -> int list;
      (** Ids selected by an expression, ascending. *)
  eval_plan : Plan.t -> int list;
      (** Ids in the annotation plan's answer, ascending — the plan is
          lowered to the backend's own algebra: one SQL query with
          balanced unions relationally, id-set algebra natively.  The
          annotator's whole-document pass; the reannotator evaluates
          scopes through [eval_ids] instead. *)
  eval_plans : Plan.t list -> int list list;
      (** A batch of plans in one pass, in order — the shared
          multi-role annotation pass and the rewrite lane.  The native
          store shares a scope memo across the batch
          ({!Plan.ids_shared}) so each distinct XPath evaluates
          once; relationally each plan is one SQL query.  Answers match
          [List.map eval_plan] exactly. *)
  set_sign_ids : int list -> Xmlac_xml.Tree.sign -> int;
      (** Stamps the sign on the given nodes; ids no longer present are
          skipped; returns how many were stamped. *)
  reset_signs : default:Xmlac_xml.Tree.sign -> unit;
      (** Returns every node to the unannotated/default state. *)
  sign_of : int -> Xmlac_xml.Tree.sign option;
      (** [None] when the node carries no explicit annotation (native
          store) or does not exist. *)
  set_bits_batch :
    (int * (int * bool) list) list -> default:Xmlac_util.Bitset.t -> int;
      (** [set_bits_batch [(id, [(role, value); ...]); ...] ~default]
          applies every role-bit edit of a node in one write: the
          node's bitmap is read (or started from [default], the
          policy's {!Policy.default_bits}) once, all its role bits
          flipped, and the result stored — one serialization per
          touched node instead of one per (node, role), which is what
          makes thousands of roles affordable on the relational stores.
          The native store materializes a bitmap on first touch; the
          relational store always has an explicit [b] column.  Ids no
          longer present are skipped.  Returns the number of (node,
          role) edits applied. *)
  reset_bits : default:Xmlac_util.Bitset.t -> unit;
      (** Returns every node's bitmap to the unannotated/default state:
          natively erases them all (compact representation),
          relationally rewrites the [b] column to [default]. *)
  bits_of : int -> Xmlac_util.Bitset.t option;
      (** [None] when the node carries no explicit bitmap (native
          store) or does not exist. *)
  delete_update : Xmlac_xpath.Ast.expr -> int;
      (** Applies a delete update: removes the selected nodes and their
          subtrees; returns the number of subtree roots removed. *)
  has_node : int -> bool;
      (** Whether a node with this universal id is currently stored;
          O(1) natively, a handful of index probes relationally. *)
  live_ids : unit -> int list;
  node_count : unit -> int;
}

val accessible_ids : t -> default:Xmlac_xml.Tree.sign -> int list
(** Ids whose effective sign (explicit or default) is [Plus],
    ascending — the materialized [\[\[P\]\](T)]. *)

val effective_sign : t -> default:Xmlac_xml.Tree.sign -> int -> Xmlac_xml.Tree.sign
(** Explicit sign if present, the default otherwise. *)

val effective_bits : t -> default:Xmlac_util.Bitset.t -> int -> Xmlac_util.Bitset.t
(** Explicit bitmap if present, the default otherwise. *)

val accessible_ids_role : t -> default:Xmlac_util.Bitset.t -> role:int -> int list
(** Ids whose effective bitmap has the role's bit set, ascending — the
    materialized [\[\[P\]\](T)] of one subject. *)

(** {1 Fault injection} *)

val with_faults : t -> t
(** Threads the mutating operations through fault points named
    [native.set_sign] and [native.set_bits] (hit once {e per node}
    stamped — [set_bits_batch]'s crossing granularity follows its
    per-node write granularity — so counted triggers land mid-write),
    [native.reset_signs], [native.reset_bits] and
    [native.delete]; [eval_ids] crosses [native.eval] once per
    query — as does each plan of an [eval_plans] batch, before the
    wrapped store runs the whole batch — the read-path site transient
    triggers use to fail a request without corrupting state.  Other
    read operations pass through untouched. *)
