(** Partial re-annotation after a document update (Section 5.3).

    The full pipeline: run {!Trigger} to find the rules whose scopes
    the update may change; take the union of those rules' scopes both
    {e before} and {e after} applying the update (before: nodes that
    may fall out of scope; after: nodes that may enter it); rebuild the
    annotation plan {e restricted to the triggered rules}
    ({!Plan.of_rules}, rewritten), evaluate it with {!Plan.eval} over
    the post-update scope sets and intersect the answer with the
    surviving affected region; then touch only the affected nodes
    whose effective sign disagrees with the plan's verdict.

    Each triggered resource goes through {!Backend.t.eval_ids} once per
    document state ({!Rule.memo_resource}); the region, the sign
    verdict and every role-bit verdict derive from those scope sets.

    Every other node keeps its annotation untouched — that asymmetry is
    where the speedup over full annotation comes from.  With an
    [Overlap]-mode dependency graph — the one {!Engine} builds — the
    result provably coincides with annotating from scratch; the
    published [Paper] mode, kept as a named ablation, coincides on the
    paper's policy classes only (the property tests pin both claims
    down). *)

type stats = {
  triggered : int list;  (** Triggered rule indices (with dependencies). *)
  affected : int;  (** Affected nodes still live after the update. *)
  deleted_roots : int;  (** Subtree roots removed by the update. *)
  marked : int;  (** Nodes stamped with the non-default sign. *)
  changed : int list;
      (** The ids whose sign was actually rewritten (both directions),
          in the order written — a subset of the affected region,
          reported for callers and benches.  The snapshots' CAMs do not
          need it: they repair themselves from the frozen tree's own
          change set ({!Snapshot}). *)
  bits_changed : int list;
      (** The ids whose role bitmap was rewritten, ascending — empty
          unless the repair was prepared with [~bits:true].  Every one
          lies in the affected region: the triggered rules' scopes
          before or after the update. *)
}

type prepared
(** The pre-mutation half of a repair: the triggered rules and the
    union of their scopes {e before} the update.  Computing it is
    side-effect free, so the engine stashes it in its open-epoch
    record — after a crash between the mutation and the repair,
    {!finish} can be re-run from the stashed value even though the
    pre-update document no longer exists ({!Engine.recover}'s
    roll-forward path). *)

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
    bitmaps too, over the same triggered rules and affected region as
    the signs.  Only an [Overlap] graph makes that repair coincide
    with the full shared pass ({!Annotator.annotate_subjects}). *)

val finish :
  ?schema:Xmlac_xml.Schema_graph.t ->
  Backend.t ->
  Depend.t ->
  prepared ->
  deleted_roots:int ->
  stats
(** The post-mutation half: the post-update scopes, one memo of them
    for this document state, the restricted annotation plan evaluated
    over that memo ({!Plan.eval}), and the sign writes; then, if
    prepared with [~bits:true], the bitmap repair — every role's
    projection of the triggered rules ({!Policy.for_subject}),
    evaluated over the same memo and intersected with the affected
    region, identical projections evaluated once, and exactly the role
    bits that disagree written in one {!Backend.t.set_bits_batch}.
    No plan goes through {!Backend.t.eval_plan}.  Idempotent
    given the same [prepared] and document state — recovery re-runs it
    after rolling back any partial sign and bitmap writes of a crashed
    attempt. *)

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
