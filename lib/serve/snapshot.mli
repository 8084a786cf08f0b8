(** Point-in-time snapshots of the serve daemon state.

    A snapshot plus the {!Wal} suffix with [seq > snapshot.seq]
    rebuilds the exact live state.  Recovery checksums the whole log
    but decodes only that suffix ({!Wal.scan}), and old WAL prefixes
    can be discarded.  The file is text, ends in a
    checksummed [end #...] trailer, and is written via
    write-then-rename, so a crash mid-save can never corrupt the
    previous snapshot — a torn file fails {!of_string} as a whole and
    recovery falls back to pure WAL replay. *)

open Psched_workload
open Psched_sim

type placement = { job : Job.t; start : float; procs : int; duration : float }

type counters = {
  admitted : int;
  decided : int;
  completed : int;
  shed : int;
  killed : int;
  deferred_jobs : int;
  timeouts : int;
  degraded_rounds : int;
}

val zero_counters : counters

type t = {
  m : int;  (** platform capacity *)
  seq : int;  (** last WAL sequence number reflected in this state *)
  clock : float;  (** virtual time of the last processed event *)
  arrivals : int;  (** arrivals consumed from the primary source *)
  outages_seen : int;  (** outages consumed from the fault stream *)
  queue : Job.t list;  (** admission queue, oldest first *)
  deferred : (float * Job.t) list;  (** (requeue release, job), ascending *)
  live : placement list;  (** decided, completion still in the future *)
  outages : (float * float * int) list;  (** active (start, duration, procs) *)
  acc : Metrics.Acc.state;  (** folded completed placements *)
  counters : counters;
  useful_work : float;  (** proc-seconds of completed placements *)
  wasted_work : float;  (** proc-seconds burned by killed placements *)
  capacity_lost : float;  (** proc-seconds removed by outages *)
  degraded : bool;  (** overload degradation latched on *)
  round_open : bool;
      (** a decision round is due at [clock] — set when replay ends on a
          [Decide] with queued jobs remaining, i.e. a crash mid-round *)
  attempts : (int * int) list;  (** job_id -> kill count, drives backoff *)
}

val empty : m:int -> t

val to_string : t -> string
(** The snapshot file's bytes.  Every line is written through the
    {!Wal} buffer writers, and the output is byte for byte the
    [%h]/token format ([Printf.sprintf "%h"] floats, [string_of_int]
    ints, {!Wal} job tokens), so snapshots written before still load.
    The body is hashed in place for the [end #] trailer, never copied
    for it. *)

val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Atomic write-then-rename of the {!to_string} bytes, written from
    the encoding buffer without an intermediate string. *)

val load : string -> (t, string) result
