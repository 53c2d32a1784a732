(** The Trigger algorithm (Section 5.3, Figure 8).

    Given an update [u] (an XPath expression locating the inserted or
    deleted nodes), a rule is {e triggered} when some member of its
    expansion ({!Xmlac_xpath.Expand}) is related to [u]; the
    dependency closure of the triggered rules is then added.  The
    relatedness test follows the dependency graph's mode:
    [x ⊑ u ∨ u ⊑ x ∨ x = u] in [Paper] mode, schema overlap in
    [Overlap] mode.

    In [Overlap] mode that is one merge per rule: the footprint of its
    expansion ({!Depend.expansion_footprint}) meets the updates'
    ({!Xmlac_xpath.Schema_match.footprint}), computed once per call.

    Schema-based expansion (the same schema graph as the [Overlap]
    mode, or none in pure [Paper] mode) rewrites descendant axes inside
    predicates into child-only chains, which is what lets
    [//patient\[.//experimental\]] react to a deletion of
    [//treatment]. *)

type result = {
  directly : int list;  (** Rule indices triggered by expansion vs update. *)
  via_depends : int list;  (** Additional indices from the dependency
                               closure. *)
  footprint : Xmlac_xpath.Schema_match.footprint option;
      (** The updates' footprint in [Overlap] mode, for the snapshot
          carry; [None] in [Paper] mode. *)
}

val all : result -> int list
(** Union, ascending. *)

val run :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Depend.t ->
  update:Xmlac_xpath.Ast.expr ->
  result
(** [schema] controls expansion in [Paper] mode only; relatedness
    follows the dependency graph's mode.  [Overlap sg] mode expands
    under [sg], once, in {!Depend.build}. *)

val run_all :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Depend.t ->
  updates:Xmlac_xpath.Ast.expr list ->
  result
(** Union of {!run} over several update expressions — used for insert
    updates, where the grafted root and its descendants are located by
    different paths. *)

val triggered_rules : Depend.t -> result -> Rule.t list
