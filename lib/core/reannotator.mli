(** Partial re-annotation after a document update (Section 5.3).

    The full pipeline: run {!Trigger} to find the rules whose scopes
    the update may change; take the union of those rules' scopes both
    {e before} and {e after} applying the update (before: nodes that
    may fall out of scope; after: nodes that may enter it); rebuild the
    annotation plan {e restricted to the triggered rules}
    ({!Plan.of_rules}, rewritten, wrapped in a {!Plan.restrict} on the
    surviving affected region) and evaluate it through the backend;
    then touch only the affected nodes whose effective sign disagrees
    with the plan's verdict.

    Every other node keeps its annotation untouched — that asymmetry is
    where the speedup over full annotation comes from.  With an
    [Overlap]-mode dependency graph the result provably coincides with
    annotating from scratch; with the published [Paper] mode it
    coincides on the paper's policy classes (the property tests pin
    both claims down). *)

type stats = {
  triggered : int list;  (** Triggered rule indices (with dependencies). *)
  affected : int;  (** Affected nodes still live after the update. *)
  deleted_roots : int;  (** Subtree roots removed by the update. *)
  marked : int;  (** Nodes stamped with the non-default sign. *)
  changed : int list;
      (** The ids whose sign was actually rewritten (both directions) —
          a subset of the affected region, reported so downstream
          indexes ({!Cam.apply_changes} in the engine) can repair
          themselves incrementally instead of rebuilding. *)
  bits_changed : int list;
      (** The ids whose role bitmap was rewritten, ascending — empty
          unless the repair was prepared with [~bits].  Every one lies
          in the bitmap layer's affected region: the triggered rules'
          scopes before or after the update. *)
}

type prepared
(** The pre-mutation half of a repair: the triggered rules and the
    union of their scopes {e before} the update, for the sign layer
    and (when asked) the bitmap layer.  Computing it is side-effect
    free, so the engine stashes it in its open-epoch record — after a
    crash between the mutation and the repair, {!finish} can be re-run
    from the stashed value even though the pre-update document no
    longer exists ({!Engine.recover}'s roll-forward path). *)

val prepare :
  ?schema:Xmlac_xml.Schema_graph.t ->
  ?bits:Depend.t ->
  Backend.t ->
  Depend.t ->
  touched:Xmlac_xpath.Ast.expr list ->
  prepared
(** Runs the trigger and evaluates the pre-update scopes.  Must be
    called {e before} the mutation is applied to this backend.

    [~bits] asks {!finish} to repair the role bitmaps too, triggered
    through the given graph — which must be an [Overlap] graph over
    the same policy: unlike signs, bitmaps have no weaker mode to fall
    back on, and only that graph makes the repair coincide with the
    full shared pass ({!Annotator.annotate_subjects}).  When it is
    the sign layer's graph itself, the two layers share one trigger
    run and one affected region. *)

val finish :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Backend.t ->
  Depend.t ->
  prepared ->
  deleted_roots:int ->
  stats
(** The post-mutation half: post-update scopes, the restricted
    annotation plan, and the sign writes; then, if prepared with
    [~bits], the bitmap repair — every role's projection of the
    bitmap layer's triggered rules ({!Policy.for_subject}), restricted
    to its affected region, identical projections evaluated once, all
    in one {!Backend.t.eval_plans} batch, and exactly the role bits
    that disagree written in one {!Backend.t.set_bits_batch}.
    Idempotent given the same [prepared] and document state — recovery
    re-runs it after rolling back any partial sign and bitmap writes
    of a crashed attempt. *)

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
