(** Circuit breaker: closed → open → half-open.

    The serve layer guards the engine's store with one breaker and
    feeds it the outcome of every {e live} call.  While enough recent
    calls fail (error rate over a sliding outcome window), the breaker
    {e trips} open and the store is taken out of the live path —
    requests are answered from the degradation snapshot instead, so a
    flapping store cannot drag every caller through its timeouts.
    After a cooldown the breaker admits probe calls (half-open); a run
    of consecutive successes closes it again, any probe failure
    re-opens it.

    Everything is counted in {e calls}, not wall time, so the state
    machine is deterministic under the seeded fault schedules the soak
    tests replay: liveness is the statement that after faults stop,
    the breaker is closed within [cooldown + probes] calls.

    State transitions and rejection counts are mirrored into a
    {!Xmlac_util.Metrics} registry under [breaker.<name>.*]
    ([trips], [rejected], [probes], [closes]). *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type config = {
  window : int;  (** Sliding outcome window size (calls). *)
  min_calls : int;
      (** Outcomes required in the window before the error rate is
          evaluated — a single early failure must not trip. *)
  threshold : float;
      (** Error rate (failures / outcomes in window) at or above which
          the breaker trips. *)
  cooldown : int;
      (** Calls rejected while open before probing begins. *)
  probes : int;
      (** Consecutive half-open successes required to close. *)
}

val default_config : config
(** [{ window = 16; min_calls = 4; threshold = 0.5; cooldown = 8;
      probes = 2 }]. *)

type t

val create : ?metrics:Xmlac_util.Metrics.t -> name:string -> config -> t
(** [name] keys the metrics counters ([breaker.<name>.trips], ...). *)

val config : t -> config
val state : t -> state

val admit : t -> [ `Admit | `Reject ]
(** Gate a call.  Closed and half-open admit; open rejects and counts
    the rejection toward the cooldown — once [cooldown] rejections
    have accumulated the breaker turns half-open and the {e next}
    call is admitted as a probe. *)

val record : t -> ok:bool -> unit
(** Feed the outcome of an admitted call.  Closed: pushes into the
    window and trips when the error rate reaches the threshold.
    Half-open: a success counts toward closing, a failure re-opens
    (fresh cooldown).  Recording against an open breaker is ignored
    (the call was not admitted). *)

val trips : t -> int
(** Lifetime closed/half-open → open transitions. *)

val pp : Format.formatter -> t -> unit
(** e.g. ["closed (trips 1)"] — stable, time-free, safe for golden
    CLI transcripts. *)
