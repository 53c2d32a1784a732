(** Schema-level analysis of XPath expressions.

    Matches expressions against the label paths realizable under a
    (non-recursive) DTD.  Because value constraints are ignored, every
    judgement here over-approximates instance-level matching; hence
    {!disjoint} is sound (a [true] answer guarantees empty
    intersection on every valid document), which is what the
    dependency-graph and trigger machinery needs. *)

val spine_matches_path : Ast.expr -> string list -> bool
(** Does the selection spine (qualifiers ignored) match the given
    root-element-anchored label path exactly (i.e., select the node at
    the path's end)? *)

val matched_root_paths :
  Xmlac_xml.Schema_graph.t -> Ast.expr -> string list list
(** Schema root paths whose end node the expression can select on some
    valid document, with qualifier paths checked for schema
    satisfiability (value constraints ignored). *)

val selected_types : Xmlac_xml.Schema_graph.t -> Ast.expr -> string list
(** End types of {!matched_root_paths}, deduplicated. *)

val satisfiable : Xmlac_xml.Schema_graph.t -> Ast.expr -> bool
(** Whether the expression can select anything on some valid
    document. *)

val overlap : Xmlac_xml.Schema_graph.t -> Ast.expr -> Ast.expr -> bool
(** Some schema root path is selectable by both expressions — the
    over-approximation of [p ∩ q ≠ ∅] written [p ◦◦ q] in the
    paper. *)

val disjoint : Xmlac_xml.Schema_graph.t -> Ast.expr -> Ast.expr -> bool
(** [not (overlap ...)]; sound. *)

(** {1 Footprints}

    The root paths an expression set can select, as one value, so that
    a test repeated against many partners costs one merge instead of
    one schema walk per pair: the [Overlap] dependency graph's edges,
    the trigger and the snapshot carry all test footprints. *)

type footprint
(** A set of indices into [Schema_graph.root_paths]. *)

val footprint : Xmlac_xml.Schema_graph.t -> Ast.expr list -> footprint
(** The root paths some member of the list can select — the union of
    their {!matched_root_paths}.  Two singleton footprints meet exactly
    when {!overlap} holds of their expressions.  Empty when no member
    is satisfiable under the schema. *)

val footprint_is_empty : footprint -> bool

val footprint_paths : footprint -> int array
(** The footprint's root paths, as ascending indices into
    [Schema_graph.root_paths]: the footprint's own array, not a copy,
    so read-only. *)

val footprints_meet : footprint -> footprint -> bool
(** Whether the two share a root path. *)
