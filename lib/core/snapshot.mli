(** Immutable MVCC snapshots of committed sign epochs.

    The paper's materialized-accessibility design makes a read cheap
    but ties it to the mutable sign/bitmap store, so a mutation epoch
    blocks the read path.  This module breaks that coupling: every
    committed [sign_epoch] becomes an {e immutable versioned snapshot}
    — a frozen copy-on-write view of the document, a lazily built
    pre/size index of the view ({!Xmlac_xpath.Index}, which every read
    miss evaluates on), a lazily built array of the view's node records
    in the index's rank order (which a materialized miss reads each
    answer's sign or role bit from), and a private bounded memo of
    decisions, all keyed by the epoch that committed them.  The
    engine's own native reads go through the current snapshot too, so
    every reader shares one read path.  Readers {e pin} a snapshot (refcounted) and answer requests
    from it for as long as they like while the engine builds the next
    epoch against its own working set; a snapshot is {e reclaimed}
    (its references dropped, so the GC frees its private records) only
    once it is no longer current {e and} its pin count has returned to
    zero.

    {2 Structural sharing}

    {!capture} freezes the live tree in O(1) ({!Xmlac_xml.Tree.freeze})
    instead of deep-copying it: consecutive snapshots share every node
    record the intervening epoch did not touch, memoized decisions are
    {e carried forward} whenever the epoch provably cannot have moved
    them.  A non-structural
    epoch hands its predecessor's index on as well (see {!index}); a
    structural one leaves its first miss to build a new one, so no
    capture ever builds an index or a record array.  A decision carries
    when the epoch's change set holds none of its answers and, for a
    structural epoch, the paper's §5.3 schema
    test (the one the [Overlap] trigger applies to rules) shows the
    update missed the query.  Publish cost is therefore O(nodes
    changed in the epoch) plus one pass over the bounded memo, not
    O(document), and a thousand pinned epochs of a large document cost
    little more than one copy plus the sum of their change sets.  No
    registry bookkeeping tracks what is shared: the OCaml GC frees a
    record exactly when the last view holding it is dropped, so a
    crash in the publish or reclaim path can never corrupt a pinned
    neighbor.

    The MVCC invariants (DESIGN.md §10):

    {ul
    {- {e Readers never observe a partial epoch.}  A snapshot is
       captured only from a committed materialization — the engine
       publishes after [commit_op], never inside an open epoch — and
       nothing mutates it afterwards ([Tree] refuses writes on frozen
       views), so every decision a pinned reader computes is the
       decision the committed epoch would have given.}
    {- {e Reclaim only at refcount 0.}  [publish] retires the previous
       current snapshot instead of dropping it while pins remain;
       [unpin] reclaims a retired snapshot exactly when its last pin
       is released.}
    {- {e A pinned snapshot's view is immutable even while successor
       epochs mutate shared structure.}  The first write of each
       generation to a shared record path-copies it, so frozen views
       keep the records they froze.}}

    A snapshot is safe to share across OCaml domains: the document
    view is frozen at capture, the index and the record array are each
    published once through an atomic slot and read-only after, and the
    memo is guarded by a private mutex.
    Registry operations cross the fault points
    [snapshot.publish] (before the new snapshot is installed) and
    [snapshot.reclaim] (after an old snapshot is dropped), so the
    crash sweeps can kill the writer on both sides of a publish and
    verify pinned readers never notice. *)

type t
(** One immutable snapshot of a committed epoch. *)

val capture :
  ?annotated:bool ->
  ?bits_annotated:bool ->
  ?prev:t ->
  ?footprint:Xmlac_xml.Schema_graph.t * Xmlac_xpath.Ast.expr list ->
  ?cam:Cam.t ->
  epoch:int ->
  policy:Policy.t ->
  metrics:Xmlac_util.Metrics.t ->
  Xmlac_xml.Tree.t ->
  t
(** [capture ~epoch ~policy ~metrics doc] freezes the committed
    materialization: an O(1) {!Xmlac_xml.Tree.freeze} of [doc] (signs
    and bitmaps included — [doc] moves to its next generation and
    path-copies on its next writes).  [cam] is ignored; it stays
    only because [perfbench/] passes one.

    [prev] (normally the registry's current snapshot) enables
    carry-forward.  [footprint] is the structural epoch's update, as
    the trigger saw it: the schema and the expressions locating the
    nodes the epoch inserted or deleted (the grafted roots and their
    descendants for an insert, the deleted roots for a delete).  Only
    a caller that knows the document lies on the schema's paths
    ({!Xmlac_xml.Schema_graph.covers}) may pass it.  A memoized
    materialized-lane decision migrates into the new snapshot when

    {ul
    {- the epoch is non-structural, or its query's footprint (the root
       paths its {!Xmlac_xpath.Expand} members select) and the
       update's are both non-empty and share no path; and}
    {- the epoch's change set (the ids it wrote: every birth, deletion
       and sign or bitmap write) holds none of its answers — the check
       read nothing else ({!accessible}).}}

    A rewrite-lane decision migrates across non-structural epochs
    only; a structural epoch without [footprint] (recovery) carries no
    decision.  Carry is
    gated on provenance (same tree family, exactly the
    next generation, physically equal policy) and silently skipped
    otherwise.

    The index slot is handed on under provenance alone (same tree
    family, exactly the next generation) when the epoch is
    non-structural, counting [snapshot.index_shared]; policy
    equality does not matter, since the index holds no annotation.
    The record array is never handed on: the new view holds new
    records for every node the epoch wrote.

    [annotated] / [bits_annotated] (both default [true]) record
    whether the frozen signs / role bitmaps carried a committed
    annotation epoch at capture — {!request}'s auto lane routes a
    never-annotated frozen document through the rewrite lane instead
    of its default signs.  [metrics] receives the snapshot's
    lifetime counters ([snapshot.captures], [snapshot.cache.*],
    [snapshot.index_builds], [snapshot.index_shared],
    [snapshot.record_builds], and those {!request} counts).  Carry
    counts once per capture: [snapshot.cache.carried],
    [snapshot.cache.dropped.footprint] (the structural test failed, or
    a rewrite-lane entry met a structural epoch) and
    [snapshot.cache.dropped.written] (an answer was written).

    A capture of a fresh {!Xmlac_xml.Tree.copy} with no [prev] shares
    no record with any other snapshot and carries nothing: the
    full-copy baseline the tests and the snapshot bench compare
    against.
    @raise Invalid_argument when [doc] is itself a frozen view. *)

val epoch : t -> int
(** The committed [sign_epoch] this snapshot captures. *)

val document : t -> Xmlac_xml.Tree.t
(** The frozen document view.  Mutating it raises
    [Invalid_argument]. *)

val cam : t -> Cam.t
(** The anonymous subject's map over the frozen signs, built afresh by
    each call and kept nowhere: {!request} never reads one.  For
    inspection only (the CLI, the benches, the tests). *)

val index : t -> Xmlac_xpath.Index.t
(** The frozen view's pre/size index ({!Xmlac_xpath.Index}), which
    every {!request} miss evaluates on.  Built on first use, never by
    {!capture}: the first miss (or call) builds it and publishes it
    with a compare-and-set, so concurrent first misses on several
    domains all use one index (a loser's duplicate build is dropped)
    and [snapshot.index_builds] counts each index once.  A capture
    whose epoch is continuous with [prev] (same tree family, next
    generation) and non-structural takes over [prev]'s index slot,
    built or still empty, and counts [snapshot.index_shared]: a
    sign-only epoch moves no node, name or value. *)

val accessible : ?subject:string -> t -> int -> bool
(** [accessible ?subject t] is the check a materialized {!request}
    miss applies to each answer: whether the node at a rank of
    {!index} is accessible to [subject] (default: the anonymous
    subject).  It reads the node's own record — its sign, else the
    policy's default semantics; for a role, its bitmap bit, else the
    role's resolved default — with no walk up the tree, which is the
    value {!Cam.lookup} returns on a map of the same view.  The first
    call on a snapshot builds its rank-to-record array (one preorder
    walk of the view, publishing by compare-and-set like {!index} and
    counting [snapshot.record_builds]).  Each application crosses one
    {!Xmlac_util.Deadline.checkpoint}.
    @raise Invalid_argument on an unknown role. *)

val annotated : t -> bool
(** Whether the frozen signs carried a committed annotation epoch at
    capture. *)

val bits_annotated : t -> bool
(** Likewise for the frozen role bitmaps. *)

val pins : t -> int
(** Current pin count (readers holding this snapshot). *)

val memo_capacity : int
(** The bound on a snapshot's memo (256); the oldest entry is evicted
    first. *)

val cached_decisions : t -> int
(** Memoized decisions currently held (carried entries included). *)

val resolve_lane :
  ?subject:string -> ?lane:Rewrite.lane -> t -> Rewrite.lane * string
(** The lane {!request} would answer through, with the reason
    ("forced", "annotated store", "never-annotated store"), read off
    the annotation flags at capture.  Never returns
    {!Rewrite.Auto}. *)

val request :
  ?subject:string ->
  ?lane:Rewrite.lane ->
  ?live:bool ->
  t ->
  string ->
  Requester.decision
(** [request ?subject t query] answers the all-or-nothing request
    from the snapshot alone: evaluate [query] on the frozen document's
    {!index} (built by the first miss), check each answer with
    {!accessible}, and memoize the decision in the snapshot's memo
    (keyed by the effective lane).  The answers are the ones
    {!Xmlac_xpath.Eval.eval} gives on the frozen view.  Full fidelity
    at the snapshot's epoch and never touches the live stores, so it
    cannot block on (or be blocked by) the writer.  Crosses
    {!Xmlac_util.Deadline.checkpoint}s through
    [Requester.count_blocked] (or [Requester.decide] on the rewrite
    lane) and {!accessible}, so it honours a caller-installed
    budget.

    [~lane] (default {!Rewrite.Auto}) selects the enforcement lane as
    in {!Engine.request}: [Auto] picks the materialized lane iff the
    layer the request reads was annotated at capture
    ({!resolve_lane}); the rewrite lane compiles the request against
    the frozen policy and evaluates its scopes on the frozen view's
    index with no sign or bitmap read — how cold documents are served from pinned
    sessions.

    A miss counts [lane.materialized] or [lane.rewrite] (and
    [snapshot.answers_checked], the answers checked, on the
    materialized lane) and crosses one fault point before evaluating.
    A pinned read (the default) counts
    [snapshot.cache.hits] / [snapshot.cache.misses] and crosses
    [snapshot.read]; [~live:true] — {!Engine.request} on the native
    store — counts [cache.hits] / [cache.misses] and crosses
    [native.eval] instead.
    @raise Invalid_argument on an unparsable query or unknown role. *)

(** {1 Registry: publish / pin / reclaim}

    The engine owns one registry; it holds the {e current} snapshot
    (the latest committed epoch) plus any {e retired} ones still kept
    alive by pins. *)

type registry

val create_registry : metrics:Xmlac_util.Metrics.t -> unit -> registry
(** An empty registry; nothing is current until the first
    {!publish}. *)

val publish : registry -> t -> unit
(** Install [t] as the current snapshot.  The previous current is
    reclaimed immediately when unpinned, and retired (kept for its
    readers) otherwise.  Crosses [snapshot.publish] before the swap
    and [snapshot.reclaim] after a reclaim, both outside the registry
    lock. *)

val current : registry -> t option
val current_epoch : registry -> int option
(** Epoch of the current snapshot; [None] before the first publish. *)

val pin : registry -> t
(** Pin and return the current snapshot.  The caller owes exactly one
    {!unpin}.
    @raise Invalid_argument before the first {!publish}. *)

val unpin : registry -> t -> unit
(** Release one pin.  A retired snapshot whose pin count reaches zero
    is reclaimed on the spot (the invariant: reclaim only at refcount
    0, and only of non-current snapshots), crossing
    [snapshot.reclaim].
    @raise Invalid_argument when [t] is not pinned. *)

(** {1 Observability}

    Lifetime counters for [xmlacctl explain]/[serve] and the
    concurrent bench's reclaim-lag figure. *)

val live : registry -> int
(** Snapshots currently reachable: current (if any) plus retired. *)

val retired : registry -> int
(** Retired snapshots still pinned by readers. *)

val published : registry -> int
(** Lifetime publishes. *)

val reclaimed : registry -> int
(** Lifetime reclaims. *)

val max_retired : registry -> int
(** High-water mark of the retired list — the reclaim lag: how far
    readers have trailed the writer at worst. *)

val pp_registry : Format.formatter -> registry -> unit
(** Deterministic one-line summary (no addresses, no times) — safe
    for golden CLI transcripts. *)
