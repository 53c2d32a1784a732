(** Access control policies [(ds, cr, A, D)] and their semantics
    (Section 3, Table 2), extended with a subject dimension.

    [ds] is the default semantics — the accessibility of nodes no rule
    covers; [cr] the conflict resolution — the outcome for nodes
    covered by rules of both signs ([Minus] = deny overrides); [A]/[D]
    the positive/negative rule sets.  The common case in practice, and
    the paper's running configuration, is deny/deny.

    A policy also carries a {!Subject.t} role DAG.  Rules may be
    qualified with roles ({!Rule.t.subjects}); a role sees the
    unqualified rules plus the rules qualified with any role in its
    inheritance closure, under its own resolved [(ds, cr)].  A policy
    built without [?subjects] carries {!Subject.solo} and behaves
    exactly like the historical single-subject policy. *)

type t

val make :
  ?subjects:Subject.t -> ds:Rule.effect -> cr:Rule.effect -> Rule.t list -> t
(** Rule order is preserved (it only affects display).  [subjects]
    defaults to {!Subject.solo}.
    @raise Invalid_argument when a rule is qualified with a role the
    DAG does not declare. *)

val ds : t -> Rule.effect
val cr : t -> Rule.effect
val rules : t -> Rule.t list

val subjects : t -> Subject.t
val roles : t -> string list
(** Role names in declaration (= bit) order. *)

val role_count : t -> int

val positive : t -> Rule.t list
(** The positive rule set [A]. *)

val negative : t -> Rule.t list
(** The negative rule set [D]. *)

val size : t -> int

val with_rules : t -> Rule.t list -> t
(** Same [ds]/[cr]/[subjects], different rules. *)

(** {1 Per-subject resolution} *)

val resolved_ds : t -> string -> Rule.effect
(** The default semantics a role resolves to: its own override, else
    the nearest ancestor's, else the policy global.
    @raise Invalid_argument on an unknown role. *)

val resolved_cr : t -> string -> Rule.effect
(** Like {!resolved_ds}, for the conflict resolution. *)

val for_subject : t -> string -> t
(** The single-subject policy one role sees: the applicable rules
    (qualifiers stripped, declaration order kept) under the role's
    resolved [(ds, cr)], carrying {!Subject.solo}.  Every downstream
    consumer — plan builder, optimizer, annotator — works unchanged on
    the projection.
    @raise Invalid_argument on an unknown role. *)

val applicability : t -> Rule.t -> Xmlac_util.Bitset.t
(** The bit indices of the roles a rule reaches.  The optimizer must
    check coverage inclusion on these before letting one rule subsume
    another across subjects. *)

val default_bits : t -> Xmlac_util.Bitset.t
(** The bitmap of roles whose resolved default semantics grants — what
    an unannotated node's bitmap falls back to. *)

(** {1 Reference semantics}

    Direct evaluation of Table 2 on a tree.  This is the executable
    specification the backends are tested against, not the production
    path.  The [?subject] parameter selects a role's view
    ({!for_subject}); omitted, the policy is read as the anonymous
    single subject — global [(ds, cr)] over every rule regardless of
    qualifiers, which coincides with the historical behaviour. *)

val accessible_ids : ?subject:string -> t -> Xmlac_xml.Tree.t -> int list
(** Ascending. *)

val annotate_reference : ?subject:string -> t -> Xmlac_xml.Tree.t -> unit
(** Stamps every node's sign slot with its accessibility — full
    annotation by the specification. *)

val pp : Format.formatter -> t -> unit
