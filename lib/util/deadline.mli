(** Cooperative per-call deadline budgets.

    The serving layer ({!Xmlac_serve.Serve}) promises every request a
    bounded worst case even when a backend misbehaves; since the
    evaluation pipeline is single-threaded, the only honest way to
    enforce that is cooperatively.  A caller installs a {e budget}
    around a unit of work with {!with_budget}; the hot loops of the
    request path ({!Xmlac_core.Requester.decide} per selected node,
    a snapshot read miss and {!Xmlac_core.Snapshot.accessible} per
    checked answer)
    call {!checkpoint}, which is a single mutable-cell read when no
    budget is installed and raises {!Expired} once the budget runs
    out.

    Two currencies, usable together:

    - {e ticks} — a count of checkpoint crossings.  Deterministic, so
      the tests and the seeded soak harness use it to force timeouts
      at exactly reproducible places.
    - {e seconds} — wall clock against {!Timing.now}, checked
      every few ticks to amortize the clock read.  What a real
      deployment sets.

    Budgets nest: an inner {!with_budget} shadows the outer one for
    its extent and the outer budget is restored on exit (normal or
    exceptional).  The installed budget is {e domain-local}
    ([Domain.DLS]): every worker domain in the serving pool carries
    its own ambient budget, so one reader's expiry never interrupts
    another's call — one domain, one active call. *)

exception Expired of string
(** Raised by {!checkpoint} once the active budget is exhausted,
    carrying the budget's label. *)

val with_budget :
  ?label:string -> ?ticks:int -> ?seconds:float -> (unit -> 'a) -> 'a
(** [with_budget ?ticks ?seconds f] runs [f] with a deadline budget
    installed.  With neither [ticks] nor [seconds], [f] runs with no
    budget at all (zero overhead, checkpoints are no-ops).  [label]
    (default ["deadline"]) names the budget in {!Expired}.
    @raise Invalid_argument when [ticks < 0] or [seconds < 0]. *)

val checkpoint : unit -> unit
(** The cooperative timeout check.  No-op without an active budget;
    otherwise consumes one tick and (periodically) compares the clock.
    @raise Expired when the budget is exhausted — and on every further
    checkpoint until the {!with_budget} extent unwinds. *)

val active : unit -> bool
(** Whether a budget is currently installed. *)

val remaining_ticks : unit -> int option
(** Ticks left in the active budget; [None] without an active budget
    or when the budget is wall-clock only. *)
