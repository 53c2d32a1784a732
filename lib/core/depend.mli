(** The rule dependency graph (Section 5.3, algorithms Depend and
    Depend-Resolve of Figure 7).

    Two rules are neighbours when they have {e opposite} effects and
    their scopes are related; when a rule is triggered by an update,
    every rule reachable from it in this graph must be re-evaluated
    too (R3 pulls in R1 in the paper's example).

    Relatedness comes in two strengths:
    - [Paper]: neighbours have opposite effects and are related by
      containment either way or syntactic equality —
      [r ⊑ r' ∨ r' ⊑ r ∨ r = r'] — exactly the published algorithm;
    - [Overlap]: neighbours are rules of {e any} effect whose scopes
      overlap at the schema level.  Both relaxations are needed for
      completeness: opposite-effect overlapping rules change the
      conflict outcome, and same-effect overlapping rules may keep a
      node annotated after it leaves a triggered rule's scope.  This
      mode closes the gap the paper acknowledges and is what the
      re-annotation correctness property is proved against. *)

type mode = Paper | Overlap of Xmlac_xml.Schema_graph.t

type t

val build : mode:mode -> Policy.t -> t
(** Rules are identified by their position in [Policy.rules].  Each
    pair of distinct resources is decided once: by containment in
    [Paper] mode, in [Overlap sg] mode by meeting the two resources'
    own footprints under [sg], computed once per resource. *)

val mode : t -> mode
val policy : t -> Policy.t

val neighbours : t -> int -> int list
(** Direct neighbours of the rule at the given index. *)

val depends : t -> int -> int list
(** Transitive closure, excluding the rule itself — the [r.depends]
    list of Figure 7. *)

val expansion_footprint :
  t -> int -> Xmlac_xpath.Schema_match.footprint option
(** In [Overlap sg] mode, the footprint under [sg] of the rule's
    expansion ([Expand.expand ~schema:sg]), computed by {!build}. *)

val plan : ?schema:Xmlac_xml.Schema_graph.t -> t -> int list -> Plan.t
(** [Plan.rewrite ?schema (Plan.of_rules (policy t) rules)] for the
    rules at the indices [triggered] ({!Trigger.all}).  In [Overlap sg]
    mode with [schema] physically [sg] it is memoized by [triggered]:
    at most 64 plans, emptied when full, unsynchronized (writer only,
    like every repair step). *)

val pp : Format.formatter -> t -> unit
