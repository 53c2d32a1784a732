(** The resilient serving layer: every request and mutation reaches
    the {!Xmlac_core.Engine} through this module, which adds the four
    ingredients the bare engine deliberately omits —

    {ul
    {- {e deadlines}: each live call runs under a cooperative
       {!Xmlac_util.Deadline} budget (ticks for deterministic tests,
       seconds for wall-clock), checked at the evaluation checkpoints
       {!Xmlac_core.Snapshot.request} crosses — [Requester]'s
       decision loop and the rank-space check
       {!Xmlac_core.Snapshot.accessible};}
    {- {e typed errors}: raw exceptions never escape — every failure
       is classified ({!error_class}) and returned as data, so callers
       can tell a retryable blip from corrupt storage;}
    {- {e retries}: transient faults ({!Xmlac_util.Fault.Transient})
       are retried with jittered exponential backoff, bounded by
       [max_retries], by the one loop {!retry};}
    {- {e circuit breaking + fail-closed degradation}: the engine's
       store is guarded by one {!Breaker}; while it is open requests
       are answered
       {e deny-by-default} from the layer's pinned
       {!Xmlac_core.Snapshot} of the committed materialization, and
       mutations queue (bounded) or are rejected.  A degraded answer
       can only {e deny} more than the healthy path would — never
       grant more (the fail-closed invariant the soak tests replay
       under seeded fault schedules).}}

    Since the MVCC refactor the layer is also the concurrent front
    end's toolbox: {!snapshot_request} answers from {e any} pinned
    snapshot — the {!Session} read path — under the same deadline and
    retry machinery, without ever touching the live store or the
    breaker, so worker domains running pinned reads can never block
    on (or be corrupted by) the writer's next epoch.

    The layer also self-heals: every live request and mutation first lets
    {!Xmlac_core.Engine.settle} play the restart if a fault left
    residue (an open epoch, a poisoned fault registry, a snapshot
    behind its commit), and re-pins its view when that moved the
    engine's current snapshot.  The engine alone decides what an
    interrupted mutation became: one it reports [Committed] (rolled
    forward, or faulted after its commit) is reported as
    {!mutation_outcome.Recovered} — committed, just not on the first
    try — and never applied twice. *)

module Engine := Xmlac_core.Engine

(** {1 Error taxonomy} *)

type error_class =
  | Transient  (** Retryable: injected fault, queue full. *)
  | Timeout  (** Deadline budget exhausted mid-evaluation. *)
  | Corrupt  (** Storage integrity failure (checksum, torn record). *)
  | Fatal  (** Everything else: parse errors, crashes, bugs. *)

val error_class_to_string : error_class -> string

type error = {
  class_ : error_class;
  site : string;  (** Fault point, deadline label, or ["parse"]. *)
  attempts : int;  (** Live attempts made (0 = never reached engine). *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit

val error_of_exn : ?attempts:int -> exn -> error
(** Classify any exception into the taxonomy above — the same mapping
    the request and mutation paths use internally
    ({!Xmlac_util.Fault.Transient} → [Transient],
    {!Xmlac_util.Deadline.Expired} → [Timeout], checksum/torn/corrupt
    failures → [Corrupt], everything else → [Fatal]).  Exposed so
    other resilience layers (replication's ship/apply loops) retry and
    report with the identical taxonomy. *)

(** {1 Configuration} *)

type config = {
  deadline_ticks : int option;
      (** Checkpoint budget per live call; [None] = unbounded. *)
  deadline_seconds : float option;
      (** Wall-clock budget per live call; [None] = unbounded. *)
  max_retries : int;  (** Retries after the first attempt. *)
  backoff_base_s : float;  (** First retry's maximum backoff. *)
  backoff_max_s : float;  (** Backoff growth cap. *)
  sleep : float -> unit;
      (** Called with each jittered backoff delay.  Defaults to a
          no-op so tests and benches never actually wait. *)
  breaker : Breaker.config;
  queue_capacity : int;
      (** Mutations held while degraded; beyond this they are
          rejected with a [Transient] error. *)
  seed : int64;  (** Seeds the backoff jitter. *)
}

val default_config : config
(** No deadline, [max_retries = 2], base/cap 5ms/100ms, no-op sleep,
    {!Breaker.default_config}, [queue_capacity = 16], seed 1. *)

val backoff : config -> Xmlac_util.Prng.t -> int -> unit
(** [sleep]s one jittered delay before retry [n] (1-based): a single
    draw from the generator, uniform below
    [min backoff_max_s (backoff_base_s * 2^(n-1))]. *)

val retry :
  config ->
  rng:Xmlac_util.Prng.t ->
  metrics:Xmlac_util.Metrics.t ->
  counter:string ->
  (int -> ('a, error) result) ->
  ('a, error) result
(** The one retry loop of every serving and replication call: runs
    [attempt n] for [n = 1, 2, …] and retries an [Error] of class
    [Transient] while [n <= max_retries], counting each retry under
    [counter] and pausing one {!backoff} drawn from [rng] first.  Any
    other outcome is returned as it is: the caller keeps what belongs
    to it — the read paths their breaker feed and stale check, the
    epoch callers (this layer's mutations, [Replicate]'s leader ops
    and frame applies) the {!Xmlac_core.Engine.settle}
    outcome each attempt maps to [Ok] or [Error]. *)

type t

val create : ?config:config -> Engine.t -> t
(** Wraps an engine: one breaker over its store (named ["native"],
    metrics mirrored into the engine's registry), and pins the
    engine's current MVCC snapshot as the degradation view. *)

val engine : t -> Engine.t
val config : t -> config
val breaker : t -> Breaker.t

val snapshot : t -> Xmlac_core.Snapshot.t
(** The layer's pinned snapshot — the last committed epoch this layer
    saw.  Re-pinned on every committed mutation, successful recovery
    and {!refresh_snapshot}. *)

(** {1 Requests} *)

type served =
  | Live  (** Answered by the engine. *)
  | Degraded  (** Answered deny-by-default from the pinned snapshot. *)
  | Pinned
      (** Answered from a caller-pinned snapshot ({!snapshot_request})
          — the session read path; full fidelity at that snapshot's
          epoch. *)

type reply = {
  decision : Xmlac_core.Requester.decision;
  served : served;
  attempts : int;  (** Live attempts behind this reply. *)
}

val request :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  Engine.backend_kind ->
  string ->
  (reply, error) result
(** The resilient request path.  Parse errors and unknown [~subject]
    roles return a [Fatal] error (sites ["parse"], ["subject"];
    counted as [serve.parse_errors], [serve.unknown_roles]) without
    consulting the breaker — they say nothing about backend health.
    The kind argument stays only for [perfbench/]
    ({!Engine.backend_kind}).  Live, degraded and pinned
    ({!snapshot_request}) calls run one read function: under the
    configured deadline (site ["request.native"] live, ["snapshot"]
    otherwise), with transient retries ({!retry}); the modes differ
    only in the snapshot read, the stale check and whether the
    outcome feeds the breaker.  A closed/half-open breaker admits the
    call: it is answered [Live] by {!Engine.request}, and its outcome
    feeds the breaker.  An open breaker rejects it and the reply is
    served [Degraded] from the layer's pinned snapshot: the decision is
    {!Xmlac_core.Snapshot.request}'s (each answer checked in rank
    space) when the snapshot still matches the committed epoch, and a
    blanket denial when it does not — degradation never grants what
    the live path would deny.

    [~lane] (default [Auto]) selects the enforcement lane, live
    ({!Engine.request}) and degraded ({!Xmlac_core.Snapshot.request})
    alike: the auto lane answers a store with no committed annotation
    epoch through the query-rewrite lane, with zero sign or bitmap
    reads.  A failure at the [rewrite.compile] fault point happens
    before the store is touched, so — like a parse error — it never
    feeds the breaker.

    [~subject] answers for one role: live calls go through
    {!Engine.request}'s subject path, degraded calls through
    {!Xmlac_core.Snapshot.request}'s check of each answer's role bit
    on the snapshot — the fail-closed invariant holds per role
    (blanket denial on a stale snapshot included).  Stale blanket denials are counted under
    {!Xmlac_util.Metrics.stale_snapshot_denials}. *)

val snapshot_request :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  Xmlac_core.Snapshot.t ->
  string ->
  (reply, error) result
(** The session read path: answer [query] from [snap] — typically one
    the caller pinned with {!Engine.pin_snapshot} — through
    {!request}'s read function, served [Pinned]: the configured
    deadline (site ["snapshot"]) and transient retries at the
    [snapshot.read] fault point.  Never consults the
    engine, the live store or the breaker: full fidelity at the
    snapshot's epoch, zero blocking on the writer, and no staleness
    check — an old pinned snapshot {e is} the version the session
    asked to read.  Parse errors and unknown roles surface as [Fatal]
    errors like {!request}'s.  [~lane] selects the enforcement lane as
    in {!request}; the auto lane serves a snapshot captured before any
    annotation epoch through the query-rewrite lane on the frozen
    tree. *)

(** {1 Mutations} *)

type mutation =
  | Update of string  (** Delete update, XPath string. *)
  | Insert of { at : string; fragment : Xmlac_xml.Tree.t }

type mutation_outcome =
  | Applied of (Engine.backend_kind * Xmlac_core.Reannotator.stats) list
      (** Committed on the live path. *)
  | Recovered
      (** A fault interrupted the call, and the epoch committed anyway:
          recovery rolled it forward, or the fault came after the
          commit. *)
  | Queued of int
      (** Held for {!drain} while degraded; payload is the queue
          length after enqueue. *)

val mutate : t -> mutation -> (mutation_outcome, error) result
(** Applies the mutation through the engine.  While the breaker is
    open the mutation is queued (or rejected once [queue_capacity] is
    reached) — the degradation snapshot stays coherent with the
    committed epoch precisely because nothing commits while degraded.
    On the live path a failed attempt is settled by
    {!Xmlac_core.Engine.settle}: [Recovered] when the engine reports
    the epoch committed (rolled forward, or faulted after its commit),
    a retry when a transient left it aborted or untouched, an error
    otherwise.  A successful mutation refreshes the snapshot. *)

val update : t -> string -> (mutation_outcome, error) result
val insert :
  t -> at:string -> fragment:Xmlac_xml.Tree.t ->
  (mutation_outcome, error) result

val queued : t -> int

val drain : t -> (mutation * (mutation_outcome, error) result) list
(** Replays queued mutations in order once the breaker is not open.
    Stops early (leaving the rest queued) if the breaker re-opens
    mid-drain; a mutation that fails for its own reasons is reported
    and {e not} re-queued.  Returns the attempted mutations with
    their outcomes; empty while still degraded. *)

(** {1 Health} *)

type health = {
  breaker : Breaker.state;
  trips : int;  (** Lifetime trips of the breaker. *)
  open_epoch : int option;
  queued_mutations : int;
  snapshot_epoch : int;  (** Committed epoch the pinned snapshot captures. *)
  committed_epoch : int;
  degraded : bool;  (** The breaker is not closed. *)
  stale_snapshot_denials : int;
      (** Lifetime degraded requests blanket-denied because the pinned
          snapshot trailed the committed epoch
          ({!Xmlac_util.Metrics.stale_snapshot_denials}). *)
  pinned_snapshots : int;
      (** Snapshots alive in the engine's registry (current +
          retired-but-pinned). *)
}

val health : t -> health
val healthy : health -> bool
(** Breaker closed, no open epoch, queue empty. *)

val pp_health : Format.formatter -> health -> unit
(** Deterministic, time-free — safe for golden CLI transcripts. *)

val refresh_snapshot : t -> unit
(** Re-pin the engine's current snapshot as the degradation view
    (unpinning the previous one).  Call after mutating the engine
    behind the layer's back. *)
