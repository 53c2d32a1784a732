(** Lightweight named counters and per-stage timers.

    The requester fast lane (Section 4 of the paper, plus the CAM and
    snapshot-memo layers this implementation adds on top) is only
    trustworthy when it is observable: every memo hit, CAM lookup and
    fallback rebuild is counted here, and every pipeline stage can be
    timed on the wall clock ({!Timing.now}).  A registry is a plain value — the engine owns one per
    instance, benches and the CLI create their own — so counters never
    leak between two systems living in one process.

    All operations are O(1) hash-table updates; a counter that was
    never touched reads as zero.

    A registry is safe to share across OCaml domains: a private mutex
    guards the tables, so snapshot readers on worker domains can bump
    counters while the writer domain runs its stage timers.  Stage
    re-entrancy is tracked per registry (not per domain) — stage
    timers are meaningful on the single writer path, counters
    everywhere. *)

type t
(** A mutable registry of counters and stage timers. *)

val stale_snapshot_denials : string
(** The canonical counter name (["serve.stale_snapshot_denials"]) for
    degraded requests answered with a blanket denial because the
    pinned snapshot's epoch no longer matches the committed
    [sign_epoch].  Incremented by [Serve], surfaced by
    [xmlacctl explain --request] and [xmlacctl health]. *)

val repl_stale_denials : string
(** The canonical counter name (["repl.stale_denials"]) for follower
    reads blanket-denied fail-closed because replication lag exceeded
    the configured epoch threshold (or the follower was marked
    divergent).  Incremented by [Xmlac_replicate], surfaced by
    [xmlacctl replicate] / [health] / [explain --request]. *)

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
(** Add one to a named counter, creating it at zero first if needed. *)

val add : t -> string -> int -> unit
(** Add an arbitrary (non-negative) amount to a named counter. *)

val counter : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Stage timers} *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time m stage f] runs [f], accumulating its wall-clock time and a
    call count under [stage].  Re-entrant uses of the same stage nest
    without double counting the outer span (the inner span is part of
    the outer one and only the outer is recorded). *)

val timings : t -> (string * float * int) list
(** All stages as [(name, total_seconds, calls)], sorted by name. *)

(** {1 Reporting} *)

val hit_rate : t -> hits:string -> misses:string -> float
(** [hits / (hits + misses)], or 0 when both are zero. *)

val reset : t -> unit
(** Zero every counter and timer. *)

val pp : Format.formatter -> t -> unit
(** Tabular dump: counters first, then stages with mean time per
    call.  Stable order, so safe for golden-output tests when the
    timing columns are filtered out. *)
