(** The assembled system of Figure 3: optimizer + annotator +
    reannotator + requester over a native XML store.

    [create] keeps a private native copy ("MonetDB/XQuery") of the
    source document, optimizes the policy and precomputes the rule
    dependency graph — the complete [Overlap] one ({!Depend.mode}), so
    every repair of signs and role bitmaps coincides with annotating
    from scratch.  Snapshots, the rewrite lane and every reader use
    this one store.  The paper's comparison with the
    relational stores (Section 6) drives {!Annotator} and
    {!Reannotator} over {!Rel_backend} directly; the engine holds no
    relational copy.

    {2 One read path}

    The paper's requester (Section 4) reads the materialized sign of
    every selected node on every call.  The engine instead publishes
    every committed epoch as an immutable {!Snapshot.t} that freezes
    the document, and a native {!request} reads the current snapshot.
    A miss evaluates the query on the snapshot's pre/size index and
    checks each answer in rank space ({!Snapshot.accessible}): the
    answer's own record — its sign, or its role bit for a subject —
    else the default, with no walk up the tree.  The snapshot memoizes
    its decisions, so a query repeated between updates costs one hash
    lookup, and the next epoch's snapshot carries forward the
    decisions the epoch cannot have moved (the paper's Section 5.3
    re-annotation touches only those nodes).  Counters in
    {!Xmlac_util.Metrics} — memo hits/misses, answers checked, index
    and record-array builds — are surfaced by [xmlacctl explain
    --request] and the [exp_requester] bench.

    {2 Sign epochs and crash recovery}

    Every mutating operation — {!annotate}, {!update}, {!insert} — runs
    as an atomic {e sign epoch}: an undo journal records the previous
    sign of every node written ({!Backend.journaled}), and only a
    successful operation commits the epoch and advances {!sign_epoch}.
    The store's write paths are threaded through deterministic fault
    points ({!Xmlac_util.Fault.point}: [native.set_sign],
    [native.delete], [epoch.commit], …); when an armed point fires, the
    resulting {!Xmlac_util.Fault.Crash} escapes the operation and
    leaves the epoch open — a simulated kill.  {!recover} then plays
    the restart: roll the partial sign writes back through the
    journal, and either stop there (sign-only operations land on the
    pre-operation materialization) or finish the structural mutation
    and re-run the repair from the stashed {!Reannotator.prepared}
    state (structural operations land on the post-operation
    materialization).  Either way the recovered epoch is published as
    the current snapshot, and the epoch counter
    never runs backwards — an aborted epoch's number is consumed. *)

(** {2 Kept for the benchmark harness}

    [perfbench/] compiles against a wider surface than the engine
    needs: {!backend_kind}, {!all_backend_kinds}, {!wal}, {!epoch},
    {!cam}, the kind argument of {!backend}, {!request} and
    {!request_direct},
    and the per-kind lists {!annotate_all}, {!annotate_subjects_all},
    {!update} and {!insert} return.  They stay only for it and go once
    it stops reading them. *)

type backend_kind = Native
(** The one store an engine holds. *)

val all_backend_kinds : backend_kind list
(** [[Native]]. *)

type t

val create :
  ?optimize:bool ->
  dtd:Xmlac_xml.Dtd.t ->
  policy:Policy.t ->
  Xmlac_xml.Tree.t ->
  t
(** [optimize] (default [true]) runs redundancy elimination first.
    The source document is copied; the caller's tree is not
    touched. *)

val policy : t -> Policy.t
(** The (possibly optimized) policy in force. *)

val optimizer_report : t -> Optimizer.report option
val mapping : t -> Xmlac_shrex.Mapping.t
val schema_graph : t -> Xmlac_xml.Schema_graph.t
val depend : t -> Depend.t
(** The [Overlap] dependency graph both repairs trigger through. *)

val plan : t -> Plan.t
(** The cached annotation plan: {!Plan.of_policy} of the in-force
    policy, rewritten against the schema graph at [create] time.
    Every {!annotate} call evaluates this one plan. *)

val explain : ?with_doc:bool -> t -> Plan.explain
(** Instrumented compilation of the in-force policy: rewrite trace,
    both lowerings, and — unless [~with_doc:false] — per-scope node
    counts and the native answer size on the live document. *)

val backend : t -> backend_kind -> Backend.t
val document : t -> Xmlac_xml.Tree.t
(** The native store's live document. *)

val annotate : t -> Annotator.stats
(** Full annotation in one sign epoch. *)

val annotate_all : t -> (backend_kind * Annotator.stats) list
(** [[(Native, annotate t)]]. *)

val annotate_subjects : t -> Annotator.subjects_stats
(** The multi-subject shared pass ({!Annotator.annotate_subjects}):
    every role's accessibility materialized as per-node bitmaps in one
    annotation epoch.  Crash-safe like
    {!annotate}: a killed pass is rolled back through the bitmap
    journal, never leaving a partial bitmap visible. *)

val annotate_subjects_all : t -> (backend_kind * Annotator.subjects_stats) list
(** [[(Native, annotate_subjects t)]]. *)

val request :
  ?subject:string ->
  ?lane:Rewrite.lane ->
  t ->
  backend_kind ->
  string ->
  Requester.decision
(** All-or-nothing query answering.  Two enforcement lanes share the
    entry point:

    {ul
    {- {e materialized} — the paper's lane: the selected nodes'
       accessibility is read off the materialized signs (role bitmaps
       for a named [~subject]).}
    {- {e rewrite} — the request is compiled against the policy
       ({!Requester.request_rewritten}) and answered with zero sign or
       bitmap reads, so a store with no committed annotation epoch
       still answers the true policy decision.}}

    [~lane] (default {!Rewrite.Auto}) selects: [Auto] picks the
    materialized lane iff the layer the request would read — signs for
    the anonymous subject, role bitmaps for a named one — has a
    committed annotation epoch ({!resolve_lane} reports the choice and
    why).

    Requests are answered by {!Snapshot.request} on the
    {!current_snapshot}: the last committed epoch, never an open one.
    A miss checks each answer's frozen sign (its bitmap bit for
    [~subject]) in rank space ({!Snapshot.accessible}) and the
    snapshot memoizes the decision under
    the effective lane; hits and misses are counted as [cache.hits] /
    [cache.misses], and a miss crosses the [native.eval] fault point
    once.  Every evaluation is tallied as [lane.materialized] or
    [lane.rewrite].
    @raise Invalid_argument on a malformed query (naming the
    expression and error position) or an unknown role. *)

val resolve_lane :
  ?subject:string ->
  ?lane:Rewrite.lane ->
  t ->
  Rewrite.lane * string
(** {!Snapshot.resolve_lane} on the {!current_snapshot}: the lane
    {!request} would answer through, with the reason ("forced",
    "annotated store", "never-annotated store") — what [xmlacctl
    explain] prints.  It reads the annotation flags of the last
    published epoch, as {!request} does.  Never returns
    {!Rewrite.Auto}. *)

val request_direct :
  ?subject:string -> t -> backend_kind -> string -> Requester.decision
(** The paper's requester: per-node sign (or per-role bit) reads
    through the backend, no index, no memo.  The baseline the
    [exp_requester] bench and the equivalence property compare
    {!request} against.
    @raise Invalid_argument like {!request}. *)

val update : t -> string -> (backend_kind * Reannotator.stats) list
(** Applies a delete update (XPath string) and re-annotates partially —
    signs, and the role bitmaps once an {!annotate_subjects} epoch has
    materialized them, both over the nodes whose membership in some
    triggered scope moved ({!Reannotator.finish}), in one sign
    epoch.  The list holds the one
    [Native] entry. *)

val insert :
  t -> at:string -> fragment:Xmlac_xml.Tree.t ->
  (backend_kind * Reannotator.stats) list
(** Grafts a copy of [fragment] under every node selected by [at] and
    partially re-annotates, role bitmaps included, as {!update} does.
    The trigger treats the insertion points — [at/<fragment-root>] —
    as the update expression.  Nothing validates the
    fragment against the DTD; a graft whose nodes do not all sit at
    schema root paths ({!Xmlac_xml.Schema_graph.covers}) ends the
    carrying of memoized decisions across later structural epochs,
    whose schema test assumes the document lies on those paths.

    Aliasing contract: the engine takes ownership of [fragment]
    {e without copying it} — the grafts deep-copy out of it, and the
    retained reference exists only so a crash-recovery roll-forward
    can re-read it.  The caller must not mutate [fragment] after the
    call (re-using it as the source of further inserts is fine). *)

val accessible : t -> int list
(** The anonymous subject's accessible ids off the store's signs. *)

val accessible_subject : t -> string -> int list
(** One role's accessible ids off the store's effective bitmaps.
    @raise Invalid_argument on an unknown role. *)

(** {1 Read-path observability} *)

val metrics : t -> Xmlac_util.Metrics.t
(** Counters and stage timings shared by the engine, its snapshots and
    the serving layer: [cache.hits], [cache.misses],
    [lane.materialized], [lane.rewrite], [epoch.commits], the
    [snapshot.*] counters ([snapshot.answers_checked],
    [snapshot.index_builds] and [snapshot.record_builds] among them);
    stage [annotate.subjects]. *)

val cam : t -> Cam.t
(** {!Snapshot.cam} of the {!current_snapshot}: the anonymous map over
    the last committed epoch's signs, built afresh on each call.  No
    read consults it; it stays only for [perfbench/]. *)

val epoch : t -> int
(** {!sign_epoch} under its older name; stays only for
    [perfbench/]. *)

(** {1 Sign epochs and crash recovery} *)

val sign_epoch : t -> int
(** The last {e committed} sign epoch.  Starts at [0]; every committed
    mutating operation advances it by one, and {!recover} consumes the
    open epoch's number — the counter is strictly monotone and never
    reused. *)

val open_epoch : t -> int option
(** The uncommitted epoch a crash left behind, if any.  While it is
    set, every mutating entry point raises [Invalid_argument] — run
    {!recover} first. *)

val wal : t -> backend_kind -> Xmlac_reldb.Wal.t option
(** Always [None]: the native store is journaled in memory, not
    through a WAL.  Stays only for [perfbench/]. *)

(** {1 MVCC snapshots}

    Every committed {!sign_epoch} is published as an immutable
    {!Snapshot.t} the instant it commits — including epoch 0, the
    load-time materialization, published at {!create}.  Readers pin
    the current snapshot and answer from it without ever blocking on
    (or being corrupted by) the writer's next epoch; unpinned old
    snapshots are reclaimed.  Publication happens only {e between}
    epochs ([create], commit, {!recover}), so a pinned
    snapshot can never expose a partial epoch. *)

val snapshots : t -> Snapshot.registry
(** The engine's snapshot registry (stats, [Snapshot.pp_registry]). *)

val current_snapshot : t -> Snapshot.t
(** The snapshot of the last committed epoch.  Always exists —
    {!create} publishes epoch 0.  Unpinned: a reader that wants to
    hold it across commits must {!pin_snapshot} instead. *)

val pin_snapshot : t -> Snapshot.t
(** Pin and return the current snapshot; the caller owes exactly one
    {!unpin_snapshot}.  While pinned it survives any number of later
    commits and recoveries, byte-identically. *)

val unpin_snapshot : t -> Snapshot.t -> unit
(** Release one pin; a retired snapshot is reclaimed when its last
    pin goes.  @raise Invalid_argument when [snap] is not pinned. *)

type direction = [ `None | `Back | `Forward ]

type recovery = {
  recovered_epoch : int option;
      (** The epoch that was open, or [None] if nothing was in
          flight. *)
  direction : direction;
      (** [`Back]: a sign-only operation was rolled back to the
          pre-epoch materialization.  [`Forward]: a structural
          operation was re-applied and its repair re-run.  [`None]:
          there was nothing to do. *)
  signs_rolled_back : int;
      (** Journal entries replayed (partial writes undone). *)
}

val recover : t -> recovery
(** The simulated restart after a {!Xmlac_util.Fault.Crash}: clears
    the fault registry's kill state and every armed trigger
    ({!Xmlac_util.Fault.recover}), rolls partial sign writes back
    through the undo journal, and resolves the open epoch
    as described in the module preamble — backwards for {!annotate},
    forwards for {!update} / {!insert}.  Restores the annotation
    tracking, consumes the open epoch's number and publishes the
    recovered epoch, so reads are coherent with the recovered
    signs.
    Safe to call when nothing crashed (reports [`None]), and
    {e idempotent}: a second call after a completed recovery is a pure
    no-op — no epoch bump, no counter movement. *)

(** {1 Replication}

    The hooks [Xmlac_replicate] builds on.  A committed epoch's
    operation travels to replicas as an {!op} — a logical,
    deterministic description replayed through the replica's own
    engine entry points, so a shipped epoch inherits the full sign
    epoch machinery above: journaled writes and crash recovery that
    lands strictly pre- or post-epoch. *)

(** One mutating operation: the engine records the one an open epoch
    is attempting (recovery finishes or abandons it), and replication
    ships it. *)
type op =
  | Op_noop
      (** Consume one epoch number without touching any store — what
          the leader ships for an epoch its own crash recovery rolled
          back, keeping replicas aligned without replaying an
          operation that never took effect. *)
  | Op_annotate
  | Op_annotate_subjects
  | Op_update of string
  | Op_insert of { at : string; fragment : Xmlac_xml.Tree.t }
      (** The fragment is reconstructed from serialized XML on the
          wire; replicas graft it with the same universal ids because
          both sides run the deterministic insert path over identical
          documents. *)

val apply_replica : t -> op -> unit
(** Replay one shipped epoch through the normal (crash-safe) mutation
    path, bypassing the {!read_only} guard.  Crosses the
    ["repl.apply"] fault point first; a {!Xmlac_util.Fault.Crash}
    escaping mid-apply leaves an open epoch that {!recover} resolves
    into the pre- or post-epoch state, never a mix.
    @raise Invalid_argument while an epoch is open (recover first). *)

val read_only : t -> bool

val set_read_only : t -> bool -> unit
(** A read-only engine (a follower replica) refuses every direct
    mutating entry point with [Invalid_argument]; {!apply_replica}
    (and {!recover}) still work.  Promotion clears the flag. *)

val state_checksum : t -> int32
(** Deterministic digest of the enforcement-relevant materialization:
    the anonymous and every declared role's accessible id set,
    computed in one {!Backend.t.iter_live} pass with no string
    building.  Two engines with equal accessible sets digest equal.
    Engine-local epoch counters
    are excluded, so a replica whose own crash recoveries consumed
    extra epoch numbers still digests equal once its answers converge
    on the leader's — this is the divergence check shipped with every
    frame and re-verified by promotion. *)
