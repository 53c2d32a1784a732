(** Epoch-shipping replication: a leader engine streams committed sign
    epochs over a fault-injectable in-process transport to follower
    engines that apply them atomically and serve pinned snapshot
    reads.

    {2 The stream}

    Every committed leader epoch becomes one {!Frame}: the epoch's
    logical operation, a payload checksum and the leader's post-epoch
    state digest ({!Xmlac_core.Engine.state_checksum}).  Annotation
    epochs still travel as [A native] / [S native]: the store tag
    dates from engines that held several stores, and keeping it keeps
    the wire bytes unchanged.  Followers
    apply frames strictly in stream order through
    {!Xmlac_core.Engine.apply_replica}, so every applied epoch runs
    under the full sign-epoch machinery: journaled writes and a crash
    recovery that lands pre- or post-epoch, never a mix.  After each
    apply the follower recomputes the digest: a match counts under
    [repl.digest_verified], a mismatch marks the follower
    {e divergent} — it stops serving and refuses promotion.

    {2 Robustness}

    The transport is driven by the {!Xmlac_util.Fault} registry
    (points ["repl.ship"], ["repl.recv"], ["repl.apply"],
    ["repl.ack"]) plus seeded per-frame drop / duplicate / reorder /
    torn-frame draws and an explicit per-node partition switch.
    Followers detect gaps and request re-ship (bounded per node,
    jittered backoff, classified through the {!Xmlac_serve.Serve}
    taxonomy); reads are served from the follower's last published
    MVCC snapshot only while replication lag is at most
    [lag_threshold] epochs — beyond that (or on divergence, or while
    killed mid-apply) the node fails closed with a blanket denial,
    counted under {!Xmlac_util.Metrics.repl_stale_denials}.  After
    {!kill_leader}, {!promote} turns a fully-applied,
    digest-verified follower into a writable leader. *)

module Engine := Xmlac_core.Engine
module Serve := Xmlac_serve.Serve

type role = Leader | Follower | Deposed

val role_to_string : role -> string

type config = {
  lag_threshold : int;
      (** Serve follower reads while lag (committed - applied) is at
          most this many epochs; beyond it, blanket-deny. *)
  max_reship : int;
      (** Re-ship requests a follower may make without progress before
          it stops asking ([repl.reship_exhausted]). *)
  seed : int64;  (** Seeds transport chaos and backoff jitter. *)
  drop_p : float;  (** Per-frame drop probability. *)
  dup_p : float;  (** Per-frame duplicate probability. *)
  reorder_p : float;  (** Per-frame reorder (swap-newest-two) probability. *)
  torn_p : float;  (** Per-frame torn-payload probability. *)
  serve : Serve.config;
      (** Per-node serving-layer configuration.  Its [max_retries],
          backoff and [sleep] also budget every leader op and frame
          apply ({!Serve.retry}), with the jitter drawn from [seed]'s
          generator. *)
}

val default_config : config
(** [lag_threshold = 1], 8 re-ships, seed 1, all chaos probabilities
    0, and [serve] = {!Serve.default_config} with [max_retries = 3]. *)

type t

val create :
  ?config:config ->
  ?followers:int ->
  dtd:Xmlac_xml.Dtd.t ->
  policy:Xmlac_core.Policy.t ->
  Xmlac_xml.Tree.t ->
  t
(** A cluster over one document: node 0 is the leader, nodes
    [1..followers] (default 2) are read-only replicas built from the
    same inputs, so universal node ids line up across the cluster by
    construction.  Each node owns an {!Xmlac_core.Engine} and a
    {!Xmlac_serve.Serve} layer. *)

(** {1 Leader mutations}

    Each committed operation frames one stream epoch.  A failed
    leader op is settled by {!Engine.settle}: an epoch it reports
    committed (rolled forward, or faulted after its commit) frames the
    operation itself; an aborted one frames an [Op_noop], so replicas
    consume its number too, and the op is retried on a transient.
    Every frame re-pins the leader's serving view, as every applied
    frame re-pins a follower's, so no node keeps an old epoch
    pinned. *)

val apply : t -> Engine.op -> (unit, Serve.error) result
(** @raise Invalid_argument on [Op_noop] (noops are synthesized
    internally for aborted epochs, never submitted). *)

val update : t -> string -> (unit, Serve.error) result
val insert :
  t -> at:string -> fragment:Xmlac_xml.Tree.t -> (unit, Serve.error) result

val annotate_all : t -> (unit, Serve.error) result
(** One annotation epoch ([Op_annotate]). *)

val annotate_subjects_all : t -> (unit, Serve.error) result
(** One shared-pass bitmap epoch ([Op_annotate_subjects]). *)

(** {1 Shipping} *)

val ship : t -> unit
(** Send every framed epoch past each follower's send cursor through
    the chaos transport.  Crosses ["repl.ship"] per frame; a transient
    there is a lost send (re-ship covers), a crash escapes as a leader
    kill. *)

val pump : t -> unit
(** One replication round: heal crashed nodes, {!ship}, then let every
    follower drain its inbox — integrity-check (["repl.recv"]),
    dedup, reorder-buffer, apply in stream order (["repl.apply"]),
    acknowledge (["repl.ack"]), and request re-ship on any gap.  A
    {!Xmlac_util.Fault.Crash} escapes with the killed node's
    [inflight] marker set; the next {!heal} (or {!sync} round)
    resolves it through {!Engine.settle}. *)

val sync : ?rounds:int -> t -> bool
(** Pump until every reachable follower has applied the full stream or
    [rounds] (default 64) are exhausted; crashes inside a round are
    healed at the next.  Returns whether the cluster converged
    (partitioned and divergent nodes are excluded — they cannot). *)

val heal : t -> unit
(** Restart protocol for every live node: {!Engine.settle} restarts a
    node whose epoch is open, whose snapshot lags its commit, or while
    the fault registry holds a kill; then the node's in-flight frame,
    if a kill left one, is resolved by the settled outcome — applied
    if the epoch committed (digest-checked like any apply), re-shipped
    otherwise. *)

(** {1 Reads} *)

val read :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  node:int ->
  string ->
  (Serve.reply, Serve.error) result
(** Answer [query] from the node's last published MVCC snapshot under
    the node's serving layer (deadline, retries, taxonomy).  A
    follower over the lag threshold, divergent, or killed mid-apply
    fails closed: blanket denial served [Degraded], counted under
    {!Xmlac_util.Metrics.repl_stale_denials}.  A dead or deposed node
    returns a [Fatal] error. *)

val route :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  string ->
  int * (Serve.reply, Serve.error) result
(** Lag-aware routing: the least-lagged serving follower, else the
    live leader, else a fail-closed blanket denial (node [-1]). *)

(** {1 Failover} *)

val kill_leader : t -> unit
(** Mark the leader dead: it stops shipping and serving.  Its engine
    state is abandoned as a dead process's memory would be. *)

type promotion = { node : int; epoch : int; state_sum : int32 }

val promote : t -> int -> (promotion, string) result
(** Turn follower [node] into a writable leader: run the restart
    protocol ({!heal}), verify the node's state digest against its
    last verified epoch digest, and refuse on any divergence (or while
    the leader is still alive).  On success the stream is truncated to
    the promoted tail, surviving followers re-sync from the new
    leader, and followers that had applied {e past} the promoted tail
    are marked divergent (they hold epochs the new leader never
    committed and fail closed until rebuilt). *)

(** {1 Topology and observability} *)

val committed : t -> int
(** Highest framed stream epoch. *)

val leader_alive : t -> bool
val nodes : t -> int list
val node_role : t -> int -> role
val engine : t -> int -> Engine.t
val leader_engine : t -> Engine.t
val applied : t -> int -> int
val lag : t -> int -> int
val diverged : t -> int -> bool

val set_partitioned : t -> int -> bool -> unit
(** Partition (or reconnect) one follower: while set, every frame
    shipped to it is dropped. *)

val metrics : t -> Xmlac_util.Metrics.t
(** The cluster's replication counters ([repl.framed], [repl.shipped],
    [repl.reshipped], [repl.applied], [repl.rejected],
    [repl.gap_requests], [repl.divergences], [repl.digest_verified],
    {!Xmlac_util.Metrics.repl_stale_denials}, …). *)

type node_status = {
  id : int;
  role : role;
  applied_epoch : int;
  node_lag : int;
  node_diverged : bool;
  node_serving : bool;
}

val status : t -> node_status list

val pp_status : Format.formatter -> t -> unit
(** Deterministic, time-free — safe for golden CLI transcripts. *)
