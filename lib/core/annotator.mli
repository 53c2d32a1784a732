(** Full document annotation (Section 5.2, algorithm Annotate).

    Resets every node to the policy's default, evaluates the
    annotation plan, and stamps its answer with the opposite sign.
    After [annotate], the backend's effective signs materialize
    [\[\[P\]\](T)] exactly. *)

type stats = {
  reset_default : Rule.effect;  (** The default sign applied first. *)
  marked : int;  (** Nodes stamped with the non-default sign. *)
  total : int;  (** Nodes in the store at annotation time. *)
}

val annotate :
  ?schema:Xmlac_xml.Schema_graph.t -> ?rewrite:bool -> Backend.t -> Policy.t -> stats
(** Compiles the policy with {!Plan.of_policy}, runs the rewrite
    pipeline (on by default; [schema] enables the schema-aware
    passes), and annotates.  [~rewrite:false] evaluates the raw plan —
    the ablation baseline. *)

val annotate_with_plan : Backend.t -> Plan.t -> stats
(** Same, but with a pre-built (possibly rewritten) plan — the
    engine's cached-plan entry point. *)

val coverage : stats -> float
(** Fraction of nodes carrying the non-default sign, in [0, 1] — the
    paper's "doc coverage" axis of Figure 11. *)

(** {1 Multi-subject shared pass}

    One annotation pass materializes every role's accessibility as
    per-node role bitmaps: compile each role's projected policy
    ({!Policy.for_subject}), collapse answer-equivalent plans across
    roles ({!Plan.equiv}), evaluate each distinct plan once
    ({!Backend.t.eval_plans}), and fan each answer out to the bit of
    every role sharing it. *)

type subjects_stats = {
  roles : int;  (** Roles annotated (= policy role count). *)
  distinct_plans : int;  (** Plans actually evaluated after sharing. *)
  shared_plans : int;
      (** Role plans served by another role's evaluation
          ([roles - distinct_plans]). *)
  stamped : int;  (** Total per-role bit stamps applied. *)
  bits_total : int;  (** Nodes in the store at annotation time. *)
}

val same_projection : Policy.t -> Policy.t -> bool
(** Whether two single-subject projections ({!Policy.for_subject})
    have the same resolved [(ds, cr)] and the same rules in the same
    order (equal effects, structurally equal resources) — so they
    compile to the same plan. *)

val compile_subjects :
  ?schema:Xmlac_xml.Schema_graph.t -> ?rewrite:bool -> Policy.t -> Plan.t list
(** Each role's plan in bit order, compiled and rewritten exactly as
    the single-plan path would compile {!Policy.for_subject}. *)

val share :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Plan.t list ->
  (Plan.t * (int * bool) list) list
(** Groups a bit-ordered plan list by {!Plan.equiv}: each group is a
    representative plan plus the [(role bit, stamp value)] fan-out of
    every role whose plan it answers — [value] is [true] when that
    role's mark grants.  Group order is first appearance; members stay
    in bit order. *)

val annotate_subjects :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?rewrite:bool ->
  Backend.t ->
  Policy.t ->
  subjects_stats
(** Resets every bitmap to {!Policy.default_bits}, then runs the shared
    pass.  Afterwards the backend's effective bitmaps materialize every
    role's [\[\[P\]\](T)] exactly ({!Backend.accessible_ids_role}). *)
