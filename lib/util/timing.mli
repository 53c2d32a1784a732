(** Wall-clock measurement helpers for the benchmark harness.

    Every timing figure the repository reports — the Section 7
    reproductions in [bench/] (loading, response, annotation and
    re-annotation times of Figures 9-12), the [explain] stage trace,
    and the {!Metrics} stage timers — goes through [now]/[time] here,
    so the clock source and its resolution are decided in one place. *)

val now : unit -> float
(** Wall-clock time in seconds ([Unix.gettimeofday]) — the one clock
    behind every figure here, sequential or concurrent. *)

val percentile : float array -> p:float -> float
(** [percentile samples ~p] is the nearest-rank [p]-th percentile
    (0 <= [p] <= 100) of [samples], which is left unmodified.
    Raises [Invalid_argument] on an empty array. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with the elapsed wall
    time in seconds. *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-friendly duration: ns/us/ms/s with 3 significant digits. *)
