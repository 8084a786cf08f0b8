(** Write-ahead log for the serve daemon.

    Every externally visible state transition of the daemon — a job
    admitted, a placement decided, a job shed, an outage applied, a
    placement killed — is one appended, checksum-protected line.
    Replaying the log (optionally on top of a {!Snapshot}) rebuilds the
    exact pre-crash state; {!Daemon.recover} proves this bit-identical.

    Line format: [<seq> <clock> <payload...> #<fnv1a64>].  Floats are
    encoded as hex floats ([%h]) so round-trips are exact.  The
    encoders write straight into a [Buffer.t], without [Printf] or
    token lists; their output is byte for byte the [%h]/token format
    ([Printf.sprintf "%h"], [string_of_int], tokens joined by single
    spaces), so every log written before still replays.  A torn
    final line (the normal result of [kill -9] racing a write) fails
    its checksum and is dropped; replay reports it as {!torn}. *)

open Psched_workload

type record =
  | Admit of { job : Job.t; arrival : bool }
      (** the job entered the admission queue; [arrival] distinguishes
          a fresh arrival (counts against the source fast-forward
          position) from a requeue after a kill or deferral *)
  | Decide of { job_id : int; start : float; procs : int; duration : float }
      (** a placement was reserved on the profile *)
  | Shed of { job : Job.t; reason : string; arrival : bool; requeue : float }
      (** the job was rejected ([reason = "reject"], [requeue] unused)
          or deferred ([reason = "defer"], re-enters at [requeue]) *)
  | Outage of { start : float; duration : float; procs : int }
      (** a fault-injector outage was applied to the profile *)
  | Kill of { job_id : int; wasted : float; requeue : float }
      (** the job's placement was cancelled by an outage; [wasted] is
          the processor-seconds already burned, [requeue] the release
          date it re-enters the queue with (includes backoff) *)

val record_name : record -> string
(** Lower-case tag: ["admit"], ["decide"], ["shed"], ["outage"],
    ["kill"]. *)

(** {1 Codec} *)

type entry = { seq : int; clock : float; record : record }

val encode : seq:int -> clock:float -> record -> string
(** One log line, without the trailing newline. *)

val decode : string -> (entry, string) result
(** Inverse of {!encode}; [Error] explains why the line is unusable
    (bad checksum, truncation, unknown record kind, or text after a
    line break). *)

val fnv1a64 : string -> string
(** The checksum used by the line format (16 lowercase hex digits). *)

val job_of_tokens : string list -> (Job.t * string list, string) result
(** Parse a job from a token list; returns the unconsumed tail. *)

(** {2 Writers}

    Shared with {!Snapshot}.  Each appends to the buffer; beyond the
    buffer's growth they allocate at most a small scratch per call. *)

val add_int : Buffer.t -> int -> unit
(** Exactly [string_of_int n]. *)

val add_hex : Buffer.t -> float -> unit
(** Exactly [Printf.sprintf "%h" f], for every float: signed zeros,
    subnormals, infinities and NaNs ([-nan] when the sign bit is set)
    included. *)

val add_job : Buffer.t -> Job.t -> unit
(** The job's space-separated token encoding, read back by
    {!job_of_tokens}. *)

val add_checksum : Buffer.t -> from:int -> string -> unit
(** [add_checksum b ~from sep] appends [sep], then the {!fnv1a64}
    digest of the bytes [b] held from [from] on before [sep]. *)

(** {1 Writer} *)

type writer

val create : ?sync:bool -> string -> writer
(** Truncate/create the log and write the [psched-wal/1] header.
    [sync] additionally fsyncs after every append, which makes each
    record durable against power loss; its cost per record is the
    benchmark's [wal.sync_append_us] (90–120 µs on a 2-vCPU VM's
    virtual disk).  The default only flushes, which is durable against
    process death. *)

val open_append : ?sync:bool -> string -> last_seq:int -> writer
(** Reopen an existing log for appending after recovery; [last_seq] is
    the sequence number of the last valid replayed record. *)

val append : writer -> clock:float -> record -> int
(** Append one record and flush; returns the record's sequence
    number.  Sequence numbers increase by exactly 1.  The line, the
    bytes of {!encode}, is built in a buffer the writer reuses for
    every record and handed to the channel as is. *)

val seq : writer -> int
val close : writer -> unit

(** {1 Replay} *)

type torn = { line : int; offset : int; reason : string }
(** [offset] is the byte position where the torn line starts; recovery
    truncates the file there before appending. *)

type scan = {
  entries : entry list;  (** the decoded records with [seq > after] *)
  torn : torn option;  (** the first unusable line, if any *)
  last_seq : int;  (** largest verified seq in the valid prefix (0 if none) *)
}

val scan_string : ?after:int -> string -> scan
(** One pass over the log text, line by line, in place.  Every line of
    the valid prefix is checked: trimmed, the blank-line rule, the
    magic header, the [" #"] framing and the checksum, which is
    computed over the line's byte range and compared digit by digit.
    Only lines whose leading seq exceeds [after] are tokenised and
    decoded; without [after] every line is.  The first unusable line
    ends the scan and is reported as [torn]; lines after it are
    intentionally not scavenged (the daemon never wrote past a failed
    append).

    Trust rule: a line whose framing and 64-bit checksum verify and
    whose seq is at most [after] is trusted without decoding its
    payload.  The writer only checksums lines it encoded, so a verified
    line with an unparseable payload cannot come from it; should one
    appear at or below [after], it is skipped rather than reported as
    [torn].  That is the only input on which the scan differs from
    decoding every line and then dropping those at or below [after]. *)

val scan : ?after:int -> string -> (scan, string) result
(** {!scan_string} on a file; [Error] is an I/O failure. *)

val replay : string -> (entry list * torn option, string) result
(** The whole valid prefix of a log file, every record decoded:
    {!scan} with nothing skipped.  [Error] is an I/O failure. *)
