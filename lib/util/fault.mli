(** Deterministic fault injection.

    Crash-safety claims are only as good as the crashes they were
    tested against.  This module gives the whole system one
    seed-addressable registry of {e fault points}: a mutating code path
    calls {!point} with a stable name ("wal.append", "row.set_sign",
    "epoch.commit", ...), which is a no-op in production but — when the
    point is {e armed} — raises {!Crash} there, simulating the process
    dying mid-operation.  Tests and the [exp_recovery] bench arm points
    with counted triggers (die on the [n]-th hit, which reaches the
    middle of a multi-row sign write) or probabilistic ones (die with
    probability [p], PRNG-seeded so a failing run is replayable from
    its seed).

    After a crash fires, the registry is {e killed}: durable appends
    must refuse to proceed ({!killed} is checked by [Wal.log]) and
    every further {!point} call re-raises, so a test cannot silently
    write past its own kill.  [Engine.recover] — the simulated process
    restart — calls {!recover} to clear the flag and disarm all
    triggers before repairing the stores.

    Besides crashes the registry models {e recoverable} faults: a
    transient trigger ({!arm_transient}, {!arm_all_transient}) makes
    {!point} raise {!Transient} without killing the process — the I/O
    hiccup, lock timeout or dropped connection class of failure the
    serving layer ({!Xmlac_serve.Serve}) retries with backoff and
    feeds into its circuit breakers.  Counted transients are one-shot
    (the fault clears itself once fired), so a bounded retry
    deterministically succeeds; probabilistic transients persist until
    disarmed.

    The state is global (one "process", one crash), which is exactly
    the model being simulated; tests that arm faults must
    {!recover}/{!reset} between cases.  A private mutex makes every
    operation atomic across OCaml domains — a crash trigger fired on
    one domain is observed as a killed process by every other domain's
    next {!point} crossing — and {!point} raises outside the lock, so
    an armed fault never propagates with the lock held. *)

exception Crash of string
(** Raised by {!point}, carrying the fault point's name. *)

exception Transient of string
(** Raised by {!point} when a {e transient} trigger fires, carrying the
    fault point's name.  The registry is {e not} killed: the caller may
    retry the failed operation. *)

val seed_env_var : string
(** ["XMLAC_FAULT_SEED"] — read once at startup; when set, seeds the
    probabilistic triggers (the CI fault-matrix job sets it). *)

val env_seed : unit -> int64 option
(** The parsed value of {!seed_env_var}, if present and numeric. *)

val set_seed : int64 -> unit
(** Reseed the probabilistic-trigger PRNG; equal seeds give equal
    crash schedules for equal [point] call sequences. *)

type trigger =
  | After of int  (** Crash on the [n]-th hit of the point (1-based). *)
  | Prob of float  (** Crash each hit with probability [p]. *)

val arm : string -> trigger -> unit
(** Arm one named point.  Re-arming replaces the previous trigger. *)

val arm_all : prob:float -> unit
(** Arm {e every} point — including ones not yet registered — with a
    probabilistic trigger; individually armed points keep their own. *)

val arm_transient : string -> trigger -> unit
(** Arm one named point with a {e recoverable} trigger: when it fires,
    {!point} raises {!Transient} and the process survives.  A counted
    transient ([After n]) fires once and disarms itself; a
    probabilistic one fires independently on every hit.  Crash and
    transient arms on the same point coexist (the crash trigger is
    checked first). *)

val arm_all_transient : prob:float -> unit
(** Arm every point with a probabilistic transient trigger;
    individually armed transients keep their own. *)

val disarm : string -> unit
(** Clears both the crash and the transient arm of the point. *)

val disarm_all : unit -> unit
(** Also clears the {!arm_all} and {!arm_all_transient}
    probabilities. *)

val point : string -> unit
(** Registers the point's name and counts the hit.  Raises {!Crash}
    when the point's crash trigger fires, or — once {!killed} —
    immediately, naming the original crash site; raises {!Transient}
    when a transient trigger fires. *)

val killed : unit -> bool
(** A crash has fired and {!recover} has not yet run. *)

val crash_site : unit -> string option
(** Name of the point whose trigger fired, while {!killed}. *)

val recover : unit -> unit
(** The simulated restart: clears the killed flag and disarms every
    trigger (registry and hit counts survive, like a process
    restarting over the same binary). *)

val reset : unit -> unit
(** {!recover} plus zeroing all hit counters; point names stay
    registered so coverage enumeration survives. *)

val registered : unit -> string list
(** Every name ever passed to {!point}, sorted — the coverage
    enumeration the fault-matrix tests iterate over. *)

val hits : string -> int
(** Times the named point was passed (0 if never). *)

val transient_fires : unit -> int
(** Transient faults raised since the last {!reset} — the injected
    error count the resilience bench reports alongside its latency
    figures. *)
