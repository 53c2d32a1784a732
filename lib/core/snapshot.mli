(** Immutable MVCC snapshots of committed sign epochs.

    The paper's materialized-accessibility design makes a read cheap
    but ties it to the mutable sign/bitmap store, so a mutation epoch
    blocks the read path.  This module breaks that coupling: every
    committed [sign_epoch] becomes an {e immutable versioned snapshot}
    — a frozen copy-on-write view of the document, a pre/size index of
    the view ({!Xmlac_xpath.Index}, which every read miss evaluates on;
    handed over by the writer or built by the first miss), a lazily
    built grant column by rank (each node's effective sign and role
    bits, which a materialized miss tests each answer against), a
    private bounded memo of queries (each query's answers, how many of
    them each subject may not access, and the decisions subjects asked
    for), and the state digest of what
    the view grants ({!digest}, carried from the previous snapshot
    over the epoch's change set), all keyed by the epoch that
    committed them.  The engine's own native reads go through the
    current snapshot too, so every reader shares one read path.
    Readers {e pin} a snapshot (refcounted) and answer requests
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
    epoch hands its predecessor's index on as well (see {!index}).  A
    structural one takes over the index the engine's writer patched
    after its structural write, when readers demanded the previous
    one ({!read_index}); otherwise its first miss builds one.  The
    first snapshot takes over the index the engine built at creation.
    No capture builds an index, and a capture walks
    no tree for its grant column: it carries the previous snapshot's
    when a reader built that (see {!capture}).  A query's memo carries,
    with every subject's decision in it, when the epoch's change set
    holds none of its answers and, for a structural epoch, the paper's
    §5.3 schema test (the one the [Overlap] trigger applies to rules)
    shows the update missed the query.  Publish cost is therefore O(nodes
    changed in the epoch) plus the memos the epoch invalidates, not
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
    view is frozen at capture, the index and the grant column are each
    published once through an atomic slot and read-only after, and the
    memo table is an immutable value in an atomic slot: a hit reads
    it without a lock, a miss replaces it under a private mutex, and a
    fill adds its decision to the memo's list by compare-and-set.
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
  ?footprint:Xmlac_xml.Schema_graph.t * Xmlac_xpath.Schema_match.footprint ->
  ?index:Xmlac_xpath.Index.t ->
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
    carry-forward.  [footprint] is the schema the document lies on,
    with the trigger's footprint under it of the structural epoch's
    update ({!Trigger.result}): of the expressions locating the nodes
    the epoch inserted or deleted (the grafted roots and their
    descendants for an insert, the deleted roots for a delete), or
    empty for an epoch that only wrote signs or bitmaps.  Only a
    caller that knows every node of the document has sat on the
    schema's paths ({!Xmlac_xml.Schema_graph.covers}) since the memos
    it carries were made may pass it, always with the same schema.  A
    materialized-lane memo migrates into the new snapshot, with its
    decisions, when

    {ul
    {- the epoch is non-structural, or its query's footprint (the root
       paths its {!Xmlac_xpath.Expand} members select) and the
       update's are both non-empty and share no path; and}
    {- the epoch's change set (the ids it wrote: every birth, deletion
       and sign or bitmap write) holds none of its answers — the check
       read nothing else ({!accessible}).}}

    A rewrite-lane memo migrates across non-structural epochs only; a
    structural epoch without [footprint] (recovery) carries no memo.
    A migrated memo is shared, not copied: a decision a reader of
    either snapshot adds to it later answers the readers of both, which
    is sound because a subject's decision is a function of the answers
    and their grants, and the carry rule leaves both unchanged.  Carry is
    gated on provenance (same tree family, exactly the
    next generation, physically equal policy) and silently skipped
    otherwise.

    The new snapshot starts from [prev]'s memo table as it is and
    removes only what it drops; a memo either snapshot's readers add
    later is its own.  With [footprint], each memo keeps a mask of its
    footprint's root paths, filled in by the first capture that tests
    it, and the carry tests every memo in one pass against two masks:
    the update's footprint (which also drops every rewrite-lane memo
    and every empty footprint), then the root paths of the written
    nodes (their label paths in [prev]'s view,
    {!Xmlac_xml.Schema_graph.path_index}), a memo there confirmed by a
    binary search of its answers for the written ids on its own paths.
    Without [footprint], or when a written node is off the schema,
    every memo's answers are searched for every written id; an epoch
    that wrote nothing hands the memo on untouched.

    [index], when it {!Xmlac_xpath.Index.describes} the captured view
    (same family, no structural write since it was built), becomes
    the new snapshot's index: its first miss builds nothing and
    [snapshot.index_builds] does not move.  An index that does not
    describe the view is ignored.  Otherwise the index slot is handed
    on under provenance alone (same tree family, exactly the next
    generation) when the epoch is non-structural, counting
    [snapshot.index_shared]; policy equality does not matter, since
    the index holds no annotation.  The grant column ({!accessible})
    is carried, never handed on: when memos carry, a reader built
    [prev]'s column, the new index is known and the epoch wrote at
    most a quarter of the view's nodes (the digest's rule), each rank
    takes [prev]'s grant of its node and each written node its grant
    in the view ({!grant_carry}), counting [snapshot.grant_carries].
    Otherwise the first check walks the view.

    [annotated] / [bits_annotated] (both default [true]) record
    whether the frozen signs / role bitmaps carried a committed
    annotation epoch at capture — {!request}'s auto lane routes a
    never-annotated frozen document through the rewrite lane instead
    of its default signs.  [metrics] receives the snapshot's
    lifetime counters ([snapshot.captures], [snapshot.cache.*],
    [snapshot.index_builds], [snapshot.index_shared],
    [snapshot.grant_builds], [snapshot.grant_carries],
    [snapshot.digest_folds] (see {!digest}),
    and those {!request} counts) and times
    every capture as the [snapshot.capture] stage.  Carry counts once
    per capture, in memos (one per query text and lane, whatever the
    number of subjects' decisions in it): [snapshot.cache.carried]
    (the memos the new snapshot holds), [snapshot.cache.examined] (the
    memos
    whose mask met the epoch's, plus every memo that the fallback
    without a footprint tests), [snapshot.cache.dropped.footprint] (the structural test
    failed, or a rewrite-lane memo met a structural epoch) and
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

(** {1 State digest}

    A 32-bit digest of what the view grants: the anonymous subject's
    accessible set and every declared role's.  It is a sum mod 2{^63}
    of one term per node, xor-folded to 32 bits (incremental hashing:
    Bellare & Micciancio, "A New Paradigm for Collision-Free Hashing:
    Incrementality at Reduced Cost", EUROCRYPT 1997).  A node's term
    is an allocation-free 63-bit mix of its id, whether the anonymous
    subject is granted it and which declared roles are (each read off
    the node's sign and bitmap, else the policy's defaults); a node
    granted to nobody adds 0, as an absent one does.  Equal accessible
    sets therefore give equal digests, and unequal ones collide only
    by accident.  Epoch numbers are not part of it.

    {!capture} carries the sum along a chain: when it carries memos
    (the view is [prev]'s next generation under the same policy), the
    new sum is [prev]'s plus, for each id the epoch wrote, the id's
    term in the view minus its term in [prev]'s view — O(changed ·
    log n).  Otherwise, and when the epoch wrote more than a quarter
    of the view's nodes, it folds the view once, counting
    [snapshot.digest_folds]. *)

val digest : ?live:Xmlac_xml.Tree.t -> t -> int32
(** [digest t] is the view's state digest, O(1).  [digest ~live t] is
    the digest of [live] under [t]'s policy: while [t] is [live]'s
    last {!Xmlac_xml.Tree.freeze} (same family, [live] one generation
    past the view, not itself frozen), [t]'s sum moved by the writes
    [live] has made since ({!Xmlac_xml.Tree.fold_changed}), so O(1)
    right after a capture; otherwise one fold of [live], counting
    [snapshot.digest_folds]. *)

val fold_digest : Policy.t -> Xmlac_xml.Tree.t -> int32
(** The full fold {!digest} carries: every node's term summed in one
    pass over the tree, under the policy.  The base case, and the
    oracle the tests and the micro bench hold {!digest} to.  Counts
    nothing. *)

val cam : t -> Cam.t
(** The anonymous subject's map over the frozen signs, built afresh by
    each call and kept nowhere: {!request} never reads one.  For
    inspection only (the CLI, the benches, the tests). *)

val index : t -> Xmlac_xpath.Index.t
(** The frozen view's pre/size index ({!Xmlac_xpath.Index}), which
    every {!request} miss evaluates on.  Either {!capture} was handed
    it ([?index]), or the first miss (or call) builds it and publishes
    it with a compare-and-set, so concurrent first misses on several
    domains all use one index (a loser's duplicate build is dropped)
    and [snapshot.index_builds] counts each read-side build once.  A
    capture whose epoch is continuous with [prev] (same tree family,
    next generation) and non-structural takes over [prev]'s index
    slot, built or still empty, and counts [snapshot.index_shared]: a
    sign-only epoch moves no node, name or value.  Every call marks
    the index as read (see {!read_index}). *)

val read_index : t -> Xmlac_xpath.Index.t option
(** The snapshot's index if a reader has evaluated on it — built it,
    or called {!index} on one {!capture} was handed — and [None]
    otherwise, without building anything.  The engine's demand test:
    its next structural repair hands the index it patched to the
    successor only when this is [Some] ({!Engine.update}). *)

val take_back_index : t -> Xmlac_xpath.Index.t -> bool
(** [take_back_index t i] empties [t]'s index slot and returns [true]
    when {!capture} was handed [i] and no reader has called {!index}
    on it since, so that nobody holds [i] through [t] (nor through the
    snapshots that share its slot); the slot's next reader builds an
    index.  The writer takes back, before patching, a buffer its
    readers never used. *)

val accessible : ?subject:string -> t -> int -> bool
(** [accessible ?subject t] is the check a materialized {!request}
    miss applies to each answer: whether the node at a rank of
    {!index} is accessible to [subject] (default: the anonymous
    subject), read off the node's own sign or bitmap bit, else the
    (role's resolved) default, with no walk up the tree: the value
    {!Cam.lookup} returns on a map of the same view.  One mask test of
    the grant column ({!grant_walk}), which {!capture} carried or the
    first call builds, counting [snapshot.grant_builds].  Each
    application crosses one {!Xmlac_util.Deadline.checkpoint}.
    @raise Invalid_argument on an unknown role. *)

val grant_walk : Policy.t -> Xmlac_xml.Tree.t -> int array array
(** [grant_walk policy doc] is [doc]'s grant column under [policy],
    walked as a first check walks it: [.(k).(r)] is word [k] of rank
    [r]'s grant, role [i] at bit [i] and the anonymous subject at bit
    [roles] (the declared role count).  Counts nothing. *)

val grant_carry : Policy.t -> from:Xmlac_xpath.Index.t -> Xmlac_xpath.Index.t ->
  int array array -> Xmlac_xml.Tree.t -> written:int list -> int array array
(** [grant_carry policy ~from idx g view ~written] is {!capture}'s
    carry: [g], over [from]'s ranks, moved to [idx]'s
    ({!Xmlac_xpath.Index.carry}), each id in [written] taking its grant
    in [view].  Equals [grant_walk policy view] when [g] was the walk
    of [from]'s state and [written] holds every id written since. *)

val annotated : t -> bool
(** Whether the frozen signs carried a committed annotation epoch at
    capture. *)

val bits_annotated : t -> bool
(** Likewise for the frozen role bitmaps. *)

val pins : t -> int
(** Current pin count (readers holding this snapshot). *)

val memo_capacity : int
(** The bound on a snapshot's memo (1,024), counted in queries: one
    memo per query text and lane, however many subjects it holds
    decisions for.  The oldest memo is evicted first. *)

val cached_decisions : t -> int
(** Memos currently held (carried ones included): queries per lane,
    the count {!memo_capacity} bounds, not the per-subject decisions
    inside them. *)

val memoized : t -> string -> bool
(** Whether the snapshot holds a memo of the query text on either
    lane.  Such a text parsed once already, so the serving layer skips
    its up-front parse. *)

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
  ?expr:Xmlac_xpath.Ast.expr ->
  t ->
  string ->
  Requester.decision
(** [request ?subject t query] answers the all-or-nothing request
    from the snapshot alone, through its memo: one memo per query text
    and effective lane, holding the decisions of the subjects that
    asked.  A request goes one of three ways:

    {ul
    {- {e hit}: the memo holds the subject's decision — one hash, one
       bucket and a scan of the memo's decisions, allocating nothing;}
    {- {e fill}: the query is memoized on the materialized lane but
       not for this subject — its decision is read off the memo's
       count of the answers the subject may not access, with no parse
       and no evaluation, and added to the memo;}
    {- {e miss}: the query has no memo on the lane — evaluate [query]
       on the frozen document's {!index} (built by the first miss),
       check each answer's grant ({!accessible}'s reading) for every
       subject at once, which gives the counts fills read, and
       memoize it, the oldest memo going first at {!memo_capacity}.
       A rewrite-lane memo holds one evaluation per subject, each
       compiled for it, so another subject's first request of it is a
       miss that adds to the memo rather than a new memo.}}

    The answers are the ones {!Xmlac_xpath.Eval.eval} gives on the
    frozen view.  Full fidelity at the snapshot's epoch and never
    touches the live stores, so it cannot block on (or be blocked by)
    the writer.  A miss crosses one {!Xmlac_util.Deadline.checkpoint}
    per answer (per granted answer through [Requester.decide] on the
    rewrite lane), so it honours a caller-installed budget.  [expr],
    when given, is [query] already parsed: a miss evaluates it instead
    of parsing the text.

    [~lane] (default {!Rewrite.Auto}) selects the enforcement lane as
    in {!Engine.request}: [Auto] picks the materialized lane iff the
    layer the request reads was annotated at capture
    ({!resolve_lane}); the rewrite lane compiles the request against
    the frozen policy and evaluates its scopes on the frozen view's
    index with no sign or bitmap read — how cold documents are served from pinned
    sessions.

    A miss counts [lane.materialized] or [lane.rewrite] (and
    [snapshot.answers_checked], the answers checked, on the
    materialized lane) and crosses one fault point before evaluating;
    a hit or a fill crosses none.  A pinned read (the default) counts
    [snapshot.cache.hits] / [snapshot.cache.misses], and a fill counts
    [snapshot.cache.fills] as well as a hit, so a miss always means an
    evaluation; a miss crosses [snapshot.read].  [~live:true] —
    {!Engine.request} on the native store — counts [cache.hits] /
    [cache.fills] / [cache.misses] and crosses [native.eval] instead.
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
