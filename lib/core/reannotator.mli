(** Partial re-annotation after a document update (Section 5.3).

    The full pipeline: run {!Trigger} to find the rules whose scopes
    the update may change; evaluate each distinct triggered resource's
    scope {e before} and {e after} applying the update; take as the
    region R the stored nodes whose membership in some triggered scope
    moved — the union over triggered resources r of
    pre{_r} △ post{_r}; take the annotation plan {e restricted to
    the triggered rules} ({!Plan.of_rules}, rewritten — compiled once
    per triggered set and memoized in the graph, {!Depend.plan}) and
    evaluate it with {!Plan.eval} over the post-update scopes
    intersected with R; then touch only the region nodes whose
    effective sign disagrees with the plan's verdict.

    Each triggered resource goes through {!Backend.t.eval_ids} once per
    document state ({!Rule.memo_resource}), and its answer becomes a
    sorted-array id set ({!Plan.Ids.of_list}, one pass when it already
    ascends); the region (one merge per resource for pre △ post), the
    sign verdict and every role-bit verdict derive from those sets.

    Why R suffices, with an [Overlap]-mode dependency graph — the one
    {!Engine} builds:
    - a node's sign, and each of its role bits, is a function only of
      which rules' scopes hold it, together with ds/cr (Table 2);
    - the [Overlap] trigger is complete: no untriggered rule's scope
      changes under the update;
    - a stored node outside R is in exactly the triggered scopes it was
      in before, hence in exactly the same scopes overall, so its
      annotation — correct before the update — stays correct;
    - deleted nodes are filtered out of R;
    - an inserted node in no triggered scope is outside R and in no
      other scope either; it reads as the default, because grafts are
      unannotated ({!Xmlac_xml.Tree.graft}, {!Xmlac_shrex.Shred}).

    Every other node keeps its annotation untouched — that asymmetry is
    where the speedup over full annotation comes from.  With the
    [Overlap] graph the result provably coincides with annotating from
    scratch; the published [Paper] mode, kept as a named ablation,
    coincides on the paper's policy classes only (the property tests
    pin both claims down). *)

type stats = {
  triggered : int list;  (** Triggered rule indices (with dependencies). *)
  affected : int;
      (** |R|: the stored nodes whose membership in some triggered
          scope moved — the only nodes the repair reads or writes. *)
  deleted_roots : int;  (** Subtree roots removed by the update. *)
  marked : int;  (** Nodes stamped with the non-default sign. *)
  changed : int list;
      (** The ids whose sign was actually rewritten (both directions),
          in the order written — a subset of R, reported for callers
          and benches.  Snapshots do not need it: a snapshot reads
          each node's own record, and carries memos over the frozen
          tree's own change set ({!Snapshot}). *)
  bits_changed : int list;
      (** The ids whose role bitmap was rewritten, ascending — empty
          unless the repair was prepared with [~bits:true].  A subset
          of R. *)
}

type prepared
(** The pre-mutation half of a repair: the triggered rules and each
    distinct triggered resource's scope {e before} the update (one id
    set per resource, not their union: the region needs each
    resource's own pre{_r} to compare with its post{_r}).  Computing
    it is side-effect free.  Nothing keeps it across a crash:
    {!Engine.recover} discards the crashed attempt's writes, so the
    pre-update document exists again, and runs {!prepare} anew. *)

val prepare :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?bits:bool ->
  Backend.t ->
  Depend.t ->
  touched:Xmlac_xpath.Ast.expr list ->
  prepared
(** Runs the trigger and evaluates the pre-update scopes.  Must be
    called {e before} the mutation is applied to this backend.

    [~bits:true] (default [false]) asks {!finish} to repair the role
    bitmaps too, over the same triggered rules and region R as the
    signs.  Only an [Overlap] graph makes that repair coincide
    with the full shared pass ({!Annotator.annotate_subjects}). *)

val footprint : prepared -> Xmlac_xpath.Schema_match.footprint option
(** The update's footprint the trigger computed ([None] unless the
    graph is [Overlap]), which the engine hands to {!Snapshot.capture}. *)

val finish :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Backend.t ->
  Depend.t ->
  prepared ->
  deleted_roots:int ->
  stats
(** The post-mutation half: the post-update scopes, one memo of them
    for this document state, and from it the region R; then the
    restricted annotation plan ({!Depend.plan}) evaluated
    ({!Plan.eval}) over that memo
    with every scope intersected with R — intersection distributes
    over union, except and intersect, so this is the plan's whole
    answer restricted to R without the whole-document set algebra —
    and the sign writes; then, if prepared with [~bits:true], the
    bitmap repair — every role's projection of the triggered rules
    ({!Policy.for_subject}), evaluated over the same R-restricted memo,
    identical projections evaluated once, and exactly the role bits of
    R's nodes that disagree written in one {!Backend.t.set_bits_batch}.
    An empty R reads and writes nothing.  No plan goes through
    {!Backend.t.eval_plan}. *)

val reannotate :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Backend.t ->
  Depend.t ->
  update:Xmlac_xpath.Ast.expr ->
  stats
(** Applies the (delete) update through the backend and repairs the
    annotations.  [schema] controls trigger expansion, as in
    {!Trigger.run}. *)

val repair :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Backend.t ->
  Depend.t ->
  touched:Xmlac_xpath.Ast.expr list ->
  apply:(unit -> int) ->
  stats
(** The generic cycle behind {!reannotate}: [touched] lists the XPath
    expressions locating the nodes the mutation inserts or deletes,
    [apply] performs the mutation (returning the number of subtree
    roots it touched).  Used by {!Engine.insert} to repair annotations
    after grafting new subtrees. *)

val full_reannotate :
  Backend.t -> Policy.t -> update:Xmlac_xpath.Ast.expr -> Annotator.stats
(** The baseline the paper compares against: apply the update, then
    annotate the whole document from scratch. *)
