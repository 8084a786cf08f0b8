(** The serve daemon: a crash-safe, long-running scheduling loop.

    Consumes continuous arrivals ({!Arrivals}), rolls decisions through
    either the greedy earliest-fit rule or a {!Psched_core.Schedulers}
    registry policy (batched, planning around live placements and
    outages via reservations), writes every transition ahead to the
    {!Wal}, snapshots periodically, and degrades gracefully under
    overload: bounded admission queue with a configurable shed policy,
    a rolling decision-latency watermark with hysteresis, and a
    per-round deadline feeding the {!Psched_fault.Recovery} circuit
    breaker (greedy rounds while open).

    Determinism contract: with the wall-clock governors disabled
    (deadline and watermark thresholds at infinity — the defaults) a
    run is a pure function of (config, arrivals, outages).  Recovering
    with {!recover} after a [kill -9] at any WAL offset and re-running
    yields bit-identical metrics, counters and subsequent WAL records;
    the property tests exercise every offset. *)

open Psched_obs
open Psched_sim
open Psched_fault

type mode =
  | Greedy  (** earliest-fit per job, the {!Psched_sim.Stream} rule *)
  | Registry of string  (** batch decisions through a registry policy *)

val mode_name : mode -> string

type config = private {
  m : int;
  mode : mode;
  batch : int;
  round_every : float;
      (** > 0: a scheduling cycle — decision rounds fire only on this
          virtual-time grid (ceiling of the clock), so backlog builds
          between rounds and the admission cap binds under overload.
          0 (default): decide as soon as the queue holds [batch] jobs. *)
  queue_cap : int;
  shed : Admission.policy;
  latency_window : int;
  latency_high : float;
  latency_low : float;
  deadline : float;
  backoff : Recovery.backoff;
  breaker : Recovery.breaker;
  wal : string option;
  wal_sync : bool;
  snapshot : string option;
  snapshot_every : int;
  horizon : float;
  keep_schedule : bool;
  obs : Obs.t;
  series : Series.t option;
      (** metrics time-series recorder sampled on the virtual clock
          ([psched-series/1]); timestamps never come from a wall clock,
          so a recorded series is as deterministic as the run *)
}

val config :
  ?mode:mode ->
  ?batch:int ->
  ?round_every:float ->
  ?queue_cap:int ->
  ?shed:Admission.policy ->
  ?latency_window:int ->
  ?latency_high:float ->
  ?latency_low:float ->
  ?deadline:float ->
  ?backoff:Recovery.backoff ->
  ?breaker:Recovery.breaker ->
  ?wal:string ->
  ?wal_sync:bool ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?horizon:float ->
  ?keep_schedule:bool ->
  ?obs:Obs.t ->
  ?series:Series.t ->
  m:int ->
  unit ->
  config
(** Defaults: greedy mode, per-arrival decisions ([batch = 1]),
    unbounded queue, reject shedding, wall governors off, WAL and
    snapshots off, infinite horizon.
    @raise Invalid_argument on non-positive [m], [batch] or
    [snapshot_every]. *)

(** {1 Recovery} *)

type recovery_info = {
  replayed : int;  (** WAL records applied on top of the snapshot *)
  torn : Wal.torn option;  (** dropped (and truncated) torn tail *)
  used_snapshot : bool;
  snapshot_ahead : bool;  (** snapshot.seq was past the WAL tail *)
  snapshot_error : string option;  (** why a present snapshot was unusable *)
}

val recover :
  ?snapshot:string -> wal:string -> m:int -> unit -> Snapshot.t * recovery_info
(** Rebuild the daemon state: load the snapshot if present and intact
    (else start from {!Snapshot.empty}), checksum the whole WAL and
    decode and replay only the records with [seq > snapshot.seq]
    ({!Wal.scan}), truncate any torn tail off the file.
    Idempotent — recovering twice yields the same state. *)

(** {1 Running} *)

type outcome = {
  state : Snapshot.t;  (** final state (also saved if [snapshot] set) *)
  metrics : Metrics.t;  (** over completed placements *)
  schedule : Schedule.t option;  (** iff [keep_schedule] *)
  profile : Profile.stats;
  goodput : float;  (** useful / (useful + wasted) proc-seconds *)
  decision_latencies : float array;  (** wall seconds, per round *)
  max_queue_depth : int;
  degraded_rounds : int;
  breaker_trips : int;
}

val schedule_of_wal : m:int -> Wal.entry list -> Schedule.t
(** Final surviving placements straight from the log (every [Decide]
    without a later [Kill]) — how [serve verify] rebuilds the schedule
    without trusting in-memory state. *)

val run :
  ?state:Snapshot.t ->
  ?outages:Outage.t list ->
  ?tick:(int -> unit) ->
  config ->
  Arrivals.t ->
  outcome
(** Run to completion (sources drained, queue decided, live work run
    out).  [state] resumes from a {!recover}ed state: the arrival and
    outage streams are fast-forwarded past what it already consumed and
    the WAL is opened in append mode.  [tick] is called once per event
    iteration (HTTP polling, throttling). *)
