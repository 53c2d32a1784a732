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
    node, the set of role bit indices with access; [set_bits_ids]
    stamps one role's slice of every bitmap in an id set, which is how
    the shared annotation pass fans a plan answer out to the roles that
    share the plan.

    {2 Crash safety}

    The engine's annotation epochs ({!Engine.recover}) lean on two
    wrappers defined here.  {!with_faults} threads every mutating
    operation through {!Xmlac_util.Fault} points — per {e node} for
    sign and bitmap stamps, so a counted trigger can kill the process
    in the middle of a multi-row UPDATE.  {!journaled} records each
    overwritten sign or bitmap (the undo journal the native store
    needs, since it has no WAL); rolling a journal back restores the
    exact pre-epoch annotation state, including the unannotated [None]
    of the native representation, via the {!t.restore_sign} /
    {!t.restore_bits} primitives. *)

type t = {
  name : string;  (** e.g. "xquery", "row-sql", "column-sql". *)
  eval_ids : Xmlac_xpath.Ast.expr -> int list;
      (** Ids selected by an expression, ascending. *)
  eval_plan : Plan.t -> int list;
      (** Ids in the annotation plan's answer, ascending — the plan is
          lowered to the backend's own algebra (SQL with balanced
          unions relationally, id-set algebra natively), with any
          [Plan.Restrict] applied as a semijoin on the
          answer. *)
  eval_plans : Plan.t list -> int list list;
      (** A batch of plans in one pass, in order.  The native store
          shares a scope memo across the batch
          ({!Plan.native_ids_shared}) so each distinct XPath evaluates
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
  restore_sign : int -> Xmlac_xml.Tree.sign option -> unit;
      (** Undo-journal primitive: writes back a sign previously read
          with [sign_of] — including [None], which natively clears the
          annotation.  No-op on a missing node; relationally [None] is
          unrepresentable for a live row and is skipped. *)
  set_bits_ids : int list -> role:int -> value:bool -> default:Xmlac_util.Bitset.t -> int;
      (** Stamps one role's bit to [value] in the bitmap of each given
          node; ids no longer present are skipped; returns how many
          were stamped.  A node without an explicit bitmap starts from
          [default] (the policy's {!Policy.default_bits}) — the native
          store materializes the bitmap on first touch, the relational
          store always has an explicit [b] column. *)
  set_bits_batch :
    (int * (int * bool) list) list -> default:Xmlac_util.Bitset.t -> int;
      (** [set_bits_batch [(id, [(role, value); ...]); ...] ~default]
          applies every role-bit edit of a node in one write: the
          node's bitmap is read (or started from [default]) once, all
          its role bits flipped, and the result stored — one
          serialization per touched node instead of one per (node,
          role), which is what makes thousands of roles affordable on
          the relational stores.  Ids no longer present are skipped.
          Returns the number of (node, role) edits applied — the same
          count a [set_bits_ids] loop would report. *)
  reset_bits : default:Xmlac_util.Bitset.t -> unit;
      (** Returns every node's bitmap to the unannotated/default state:
          natively erases them all (compact representation),
          relationally rewrites the [b] column to [default]. *)
  bits_of : int -> Xmlac_util.Bitset.t option;
      (** [None] when the node carries no explicit bitmap (native
          store) or does not exist. *)
  restore_bits : int -> Xmlac_util.Bitset.t option -> unit;
      (** Undo-journal primitive for bitmaps; mirrors
          {!t.restore_sign}, including the [None] conventions. *)
  delete_update : Xmlac_xpath.Ast.expr -> int;
      (** Applies a delete update: removes the selected nodes and their
          subtrees; returns the number of subtree roots removed. *)
  has_node : int -> bool;
      (** Whether a node with this universal id is currently stored;
          O(1) natively, a handful of index probes relationally. *)
  live_ids : unit -> int list;
  iter_live :
    (int -> Xmlac_xml.Tree.sign option -> Xmlac_util.Bitset.t option -> unit) ->
    unit;
      (** Visits every live node once, in ascending id order, with its
          [sign_of] and [bits_of] values: one pass over the store
          instead of a [live_ids] list plus two lookups per id. *)
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

val with_faults : prefix:string -> t -> t
(** Threads the mutating operations through fault points named
    [<prefix>.set_sign] and [<prefix>.set_bits] (hit once {e per node}
    stamped — [set_bits_batch] included, whose crossing granularity
    follows its per-node write granularity — so counted triggers land
    mid-write),
    [<prefix>.reset_signs], [<prefix>.reset_bits] and
    [<prefix>.delete]; [eval_ids] crosses [<prefix>.eval] once per
    query — as does each plan of an [eval_plans] batch, before the
    wrapped store runs the whole batch — the read-path site transient
    triggers use to fail a request without corrupting state.  Other
    read operations pass through untouched. *)

(** {1 Annotation undo journal} *)

type journal
(** Per-backend undo journal for one annotation epoch: every sign or
    bitmap overwrite performed through a {!journaled} wrapper while the
    journal is active records the prior value, so {!rollback} can
    restore the pre-epoch state after a crash. *)

val journal : unit -> journal
(** A fresh, inactive journal. *)

val journaled : journal -> t -> t
(** Wraps the backend so [set_sign_ids] / [reset_signs] record each
    overwritten [(id, prior sign)] and [set_bits_ids] / [reset_bits]
    each overwritten [(id, prior bitmap)] into the journal while it is
    active.  Compose {e inside} {!with_faults} so a write interrupted
    by a fault is neither journaled nor applied. *)

val journal_begin : journal -> unit
(** Start recording (clears previous entries). *)

val journal_stop : journal -> unit
(** Stop recording and discard entries — the commit path. *)

val journal_entries : journal -> int
(** Recorded overwrites (an id written twice counts twice). *)

val rollback : journal -> int
(** Restores every journaled sign and bitmap, newest first (so an id
    written twice ends at its original value), then deactivates the
    journal.  Returns the number of restores performed.  Requires the
    journal to have been attached with {!journaled}. *)
