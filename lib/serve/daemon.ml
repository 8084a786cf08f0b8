open Psched_obs
open Psched_workload
open Psched_platform
open Psched_sim
open Psched_fault
open Psched_core

(* The serve daemon: an event loop over continuous arrivals, rolling
   decisions through a scheduling policy against a single availability
   Profile, with every externally visible transition written ahead to
   the {!Wal}.

   Determinism contract: with wall-clock-driven features disabled
   (deadline = infinity, watermark thresholds = infinity — the
   defaults), the entire run is a pure function of (config, arrivals,
   outages).  Killing the process after any WAL record and resuming
   from {!recover} produces the same subsequent records, the same final
   metrics and the same counters, bit for bit — the crash-recovery
   property test exercises exactly this at every WAL offset. *)

type mode = Greedy | Registry of string

let mode_name = function Greedy -> "greedy" | Registry name -> name

type config = {
  m : int;
  mode : mode;
  batch : int;  (* decide once the queue holds this many (>= 1) *)
  round_every : float;  (* > 0: decide only on this virtual-time grid *)
  queue_cap : int;  (* admission bound; 0 = unbounded *)
  shed : Admission.policy;
  latency_window : int;
  latency_high : float;  (* watermark thresholds, wall seconds *)
  latency_low : float;
  deadline : float;  (* per-round wall deadline; infinity = off *)
  backoff : Recovery.backoff;
  breaker : Recovery.breaker;
  wal : string option;
  wal_sync : bool;
  snapshot : string option;
  snapshot_every : int;  (* WAL records between snapshots *)
  horizon : float;  (* ignore arrivals released after this *)
  keep_schedule : bool;
  obs : Obs.t;
  series : Series.t option;  (* metrics time-series recorder *)
}

let config ?(mode = Greedy) ?(batch = 1) ?(round_every = 0.0) ?(queue_cap = 0)
    ?(shed = Admission.Reject)
    ?(latency_window = 256) ?(latency_high = infinity) ?(latency_low = infinity)
    ?(deadline = infinity) ?(backoff = Recovery.backoff ()) ?(breaker = Recovery.breaker ())
    ?wal ?(wal_sync = false) ?snapshot ?(snapshot_every = 256) ?(horizon = infinity)
    ?(keep_schedule = false) ?(obs = Obs.null) ?series ~m () =
  if m < 1 then invalid_arg "Daemon.config: m must be >= 1";
  if batch < 1 then invalid_arg "Daemon.config: batch must be >= 1";
  if not (round_every >= 0.0) then invalid_arg "Daemon.config: round_every must be >= 0";
  if queue_cap < 0 then invalid_arg "Daemon.config: negative queue_cap";
  if snapshot_every < 1 then invalid_arg "Daemon.config: snapshot_every must be >= 1";
  (match shed with
  | Admission.Defer { delay } when not (delay > 0.0) ->
    invalid_arg "Daemon.config: defer delay must be > 0"
  | _ -> ());
  {
    m;
    mode;
    batch;
    round_every;
    queue_cap;
    shed;
    latency_window;
    latency_high;
    latency_low;
    deadline;
    backoff;
    breaker;
    wal;
    wal_sync;
    snapshot;
    snapshot_every;
    horizon;
    keep_schedule;
    obs;
    series;
  }

(* ------------------------------------------------------------- runtime *)

(* Mutable mirror of Snapshot.t, plus the derived structures (profile,
   materialised Acc) that are rebuilt rather than persisted. *)
type rt = {
  m : int;
  mutable clock : float;
  mutable arrivals : int;
  mutable outages_seen : int;
  mutable queue : Job.t list;  (* admission order, oldest first *)
  mutable queue_len : int;
  mutable deferred : (float * Job.t) list;  (* ascending re-entry time *)
  mutable live : Snapshot.placement list;
  mutable active_outages : (float * float * int) list;
  acc : Metrics.Acc.t;
  mutable counters : Snapshot.counters;
  mutable useful_work : float;
  mutable wasted_work : float;
  mutable capacity_lost : float;
  mutable degraded : bool;
  mutable round_open : bool;  (* a decision round is in flight / due now *)
  mutable attempts : (int * int) list;
  mutable entries : Schedule.entry list;  (* reversed, if keep_schedule *)
  mutable seq : int;  (* last WAL seq applied/written *)
}

let rt_of_state (st : Snapshot.t) =
  {
    m = st.m;
    clock = st.clock;
    arrivals = st.arrivals;
    outages_seen = st.outages_seen;
    queue = st.queue;
    queue_len = List.length st.queue;
    deferred = st.deferred;
    live = st.live;
    active_outages = st.outages;
    acc = Metrics.Acc.import st.acc;
    counters = st.counters;
    useful_work = st.useful_work;
    wasted_work = st.wasted_work;
    capacity_lost = st.capacity_lost;
    degraded = st.degraded;
    round_open = st.round_open;
    attempts = st.attempts;
    entries = [];
    seq = st.seq;
  }

let state_of_rt rt : Snapshot.t =
  {
    m = rt.m;
    seq = rt.seq;
    clock = rt.clock;
    arrivals = rt.arrivals;
    outages_seen = rt.outages_seen;
    queue = rt.queue;
    deferred = rt.deferred;
    live = rt.live;
    outages = rt.active_outages;
    acc = Metrics.Acc.export rt.acc;
    counters = rt.counters;
    useful_work = rt.useful_work;
    wasted_work = rt.wasted_work;
    capacity_lost = rt.capacity_lost;
    degraded = rt.degraded;
    round_open = rt.round_open;
    attempts = rt.attempts;
  }

let completion (p : Snapshot.placement) = p.start +. p.duration

(* Rebuild the availability profile from the live state.  The step
   function is a sum of window deltas, so reserve order does not change
   it; compacting to the clock reproduces the origin the uninterrupted
   run would have (it compacts at every event).  find_start depends
   only on the function right of the origin, hence bit-identical
   placements after recovery. *)
let rebuild_profile rt =
  let profile = Profile.create rt.m in
  List.iter
    (fun (p : Snapshot.placement) ->
      if p.duration > 0.0 then
        Profile.reserve profile ~start:p.start ~duration:p.duration ~procs:p.procs)
    rt.live;
  List.iter
    (fun (start, duration, procs) ->
      if procs > 0 then Profile.reserve profile ~start ~duration ~procs)
    rt.active_outages;
  ignore (Profile.compact profile ~before:(Float.max 0.0 rt.clock));
  profile

(* Fold completed placements into the accumulator and drop expired
   outages.  The (completion, job_id) sort makes the fold order a
   global property of the placement set, independent of which event
   steps the folds happened at — the keystone of replay identity. *)
let fold_completions ?(obs = Obs.null) ~keep rt upto =
  let done_, rest =
    List.partition (fun p -> completion p <= upto) rt.live
  in
  let done_ =
    List.sort
      (fun (a : Snapshot.placement) b ->
        compare (completion a, a.job.Job.id) (completion b, b.job.Job.id))
      done_
  in
  List.iter
    (fun (p : Snapshot.placement) ->
      Metrics.Acc.add rt.acc ~job:p.job ~start:p.start ~procs:p.procs ~duration:p.duration;
      rt.useful_work <- rt.useful_work +. (float_of_int p.procs *. p.duration);
      rt.counters <- { rt.counters with completed = rt.counters.completed + 1 };
      Obs.event obs "serve.complete"
        ~payload:[ ("job", Event.Int p.job.Job.id); ("finish", Event.Float (completion p)) ];
      if keep then
        rt.entries <-
          { Schedule.job_id = p.job.Job.id; start = p.start; duration = p.duration;
            procs = p.procs; cluster = 0 }
          :: rt.entries)
    done_;
  rt.live <- rest;
  rt.active_outages <-
    List.filter (fun (s, d, _) -> s +. d > upto) rt.active_outages

(* ------------------------------------------------------------- replay *)

type recovery_info = {
  replayed : int;  (** WAL records applied on top of the snapshot *)
  torn : Wal.torn option;  (** dropped torn tail, if any *)
  used_snapshot : bool;
  snapshot_ahead : bool;  (** snapshot.seq was past the WAL tail *)
  snapshot_error : string option;  (** why the snapshot was unusable *)
}

let insert_deferred rt at job =
  (* Ascending by (time, job id): stable, deterministic re-entry order. *)
  let rec ins = function
    | [] -> [ (at, job) ]
    | (t, j) :: tl when (t, j.Job.id) <= (at, job.Job.id) -> (t, j) :: ins tl
    | tl -> (at, job) :: tl
  in
  rt.deferred <- ins rt.deferred

let remove_deferred rt id =
  match List.partition (fun (_, j) -> j.Job.id = id) rt.deferred with
  | (_, job) :: _, rest ->
    rt.deferred <- rest;
    Some job
  | [], _ -> None

let apply_record rt ~keep (e : Wal.entry) =
  if e.clock > rt.clock then begin
    fold_completions ~keep rt e.clock;
    rt.clock <- e.clock
  end;
  rt.seq <- e.seq;
  (* Rounds are logged as consecutive [Decide]s at one clock; replay
     ending on a [Decide] with queued jobs left means the crash hit
     mid-round, and the resumed run must finish that round at the same
     instant.  Every other record kind closes the round. *)
  (match e.record with Wal.Decide _ -> () | _ -> rt.round_open <- false);
  match e.record with
  | Wal.Admit { job; arrival } ->
    if arrival then rt.arrivals <- rt.arrivals + 1
    else ignore (remove_deferred rt job.Job.id);
    rt.queue <- rt.queue @ [ job ];
    rt.queue_len <- rt.queue_len + 1;
    rt.counters <- { rt.counters with admitted = rt.counters.admitted + 1 }
  | Wal.Shed { job; reason; arrival; requeue } ->
    if arrival then rt.arrivals <- rt.arrivals + 1
    else ignore (remove_deferred rt job.Job.id);
    if reason = "defer" then begin
      rt.counters <- { rt.counters with deferred_jobs = rt.counters.deferred_jobs + 1 };
      insert_deferred rt requeue job
    end
    else rt.counters <- { rt.counters with shed = rt.counters.shed + 1 }
  | Wal.Decide { job_id; start; procs; duration } -> (
    match List.partition (fun j -> j.Job.id = job_id) rt.queue with
    | job :: _, rest ->
      rt.queue <- rest;
      rt.queue_len <- rt.queue_len - 1;
      rt.live <- { Snapshot.job; start; procs; duration } :: rt.live;
      rt.counters <- { rt.counters with decided = rt.counters.decided + 1 };
      rt.round_open <- rt.queue_len > 0
    | [], _ -> () (* corrupt log; the check rules flag this, replay stays total *))
  | Wal.Outage { start; duration; procs } ->
    rt.outages_seen <- rt.outages_seen + 1;
    if procs > 0 then begin
      rt.active_outages <- rt.active_outages @ [ (start, duration, procs) ];
      rt.capacity_lost <- rt.capacity_lost +. (float_of_int procs *. duration)
    end
  | Wal.Kill { job_id; wasted; requeue } -> (
    match List.partition (fun (p : Snapshot.placement) -> p.job.Job.id = job_id) rt.live with
    | p :: _, rest ->
      rt.live <- rest;
      rt.wasted_work <- rt.wasted_work +. wasted;
      rt.counters <- { rt.counters with killed = rt.counters.killed + 1 };
      let attempt = 1 + (try List.assoc job_id rt.attempts with Not_found -> 0) in
      rt.attempts <- (job_id, attempt) :: List.remove_assoc job_id rt.attempts;
      insert_deferred rt requeue p.job
    | [], _ -> ())

let recover ?snapshot ~wal ~m () =
  let base, used_snapshot, snapshot_error =
    match snapshot with
    | None -> (Snapshot.empty ~m, false, None)
    | Some path -> (
      if not (Sys.file_exists path) then (Snapshot.empty ~m, false, None)
      else
        match Snapshot.load path with
        | Ok st -> (st, true, None)
        | Error e -> (Snapshot.empty ~m, false, Some e))
  in
  (* The whole log is checksummed, but only the suffix past the
     snapshot is decoded. *)
  let { Wal.entries = suffix; torn; last_seq } =
    match Wal.scan ~after:base.Snapshot.seq wal with
    | Ok s -> s
    | Error _ (* no readable log *) -> { Wal.entries = []; torn = None; last_seq = 0 }
  in
  (* Drop the torn tail on disk so the continuation appends right after
     the last valid record — the resumed WAL stays byte-identical to an
     uninterrupted run's. *)
  (match torn with Some { offset; _ } -> Unix.truncate wal offset | None -> ());
  let snapshot_ahead = used_snapshot && base.Snapshot.seq > last_seq in
  let rt = rt_of_state base in
  List.iter (apply_record rt ~keep:false) suffix;
  ( state_of_rt rt,
    { replayed = List.length suffix; torn; used_snapshot; snapshot_ahead; snapshot_error } )

(* ------------------------------------------------------------- outcome *)

type outcome = {
  state : Snapshot.t;
  metrics : Metrics.t;
  schedule : Schedule.t option;
  profile : Profile.stats;
  goodput : float;
  decision_latencies : float array;  (* wall seconds, per round *)
  max_queue_depth : int;
  degraded_rounds : int;
  breaker_trips : int;
}

(* Final surviving placements straight from the log: every Decide not
   later Killed.  This is how `serve verify` rebuilds the schedule
   without trusting in-memory state. *)
let schedule_of_wal ~m entries =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (e : Wal.entry) ->
      match e.record with
      | Wal.Decide { job_id; start; procs; duration } ->
        Hashtbl.replace tbl job_id
          { Schedule.job_id; start; duration; procs; cluster = 0 }
      | Wal.Kill { job_id; _ } -> Hashtbl.remove tbl job_id
      | _ -> ())
    entries;
  let placed = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
  Schedule.make ~m
    (List.sort (fun (a : Schedule.entry) b -> compare (a.start, a.job_id) (b.start, b.job_id))
       placed)

(* ---------------------------------------------------------------- run *)

let min_free_over profile ~start ~stop =
  let bps = Profile.breakpoints profile in
  let m = Profile.capacity profile in
  let rec scan acc = function
    | [] -> acc
    | [ (t, f) ] -> if t < stop then min acc f else acc
    | (t0, f0) :: ((t1, _) :: _ as rest) ->
      let acc = if t1 > start && t0 < stop then min acc f0 else acc in
      if t0 >= stop then acc else scan acc rest
  in
  match bps with
  | [] -> m
  | (t0, _) :: _ ->
    let acc = if t0 > start then min m (Profile.free_at profile start) else m in
    scan acc bps

(* Busy windows of the profile as advance reservations, so a registry
   policy plans around existing placements and outages.  Returns None
   when the final plateau is not fully free (cannot be expressed as a
   finite reservation set). *)
let busy_reservations profile =
  let m = Profile.capacity profile in
  let rec windows acc i = function
    | [] -> Some (List.rev acc)
    | [ (_, f) ] -> if f < m then None else Some (List.rev acc)
    | (t0, f0) :: ((t1, _) :: _ as rest) ->
      let acc =
        if f0 < m && t1 > t0 then
          Reservation.make ~id:(1_000_000 + i) ~start:(Float.max 0.0 t0)
            ~duration:(t1 -. t0) ~procs:(m - f0)
          :: acc
        else acc
      in
      windows acc (i + 1) rest
  in
  windows [] 0 (Profile.breakpoints profile)

let with_release (j : Job.t) release =
  Job.make ~weight:j.Job.weight ~release ?due:j.Job.due ~community:j.Job.community ~id:j.Job.id
    j.Job.shape

(* Decision latencies kept in ascending order for the series
   quantiles: one binary-search insert per round, so a series sample
   reads p50 and p99 by index instead of copying and sorting the whole
   history. *)
module Sorted_floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let insert s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (max 64 (2 * s.n)) 0.0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    (* After the last element that compares <= x. *)
    let lo = ref 0 and hi = ref s.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Float.compare s.a.(mid) x <= 0 then lo := mid + 1 else hi := mid
    done;
    Array.blit s.a !lo s.a (!lo + 1) (s.n - !lo);
    s.a.(!lo) <- x;
    s.n <- s.n + 1

  let percentile s q =
    if s.n = 0 then 0.0 else s.a.(min (s.n - 1) (int_of_float (q *. float_of_int s.n)))
end

let run ?state ?(outages = []) ?(tick = fun _ -> ()) (cfg : config) arrivals =
  let obs = cfg.obs in
  let resuming = state <> None in
  let rt = rt_of_state (match state with Some st -> st | None -> Snapshot.empty ~m:cfg.m) in
  if rt.m <> cfg.m then invalid_arg "Daemon.run: state capacity differs from config";
  Obs.set_clock obs (fun () -> rt.clock);
  let profile = ref (rebuild_profile rt) in
  let wal =
    match cfg.wal with
    | None -> None
    | Some path ->
      if resuming then Some (Wal.open_append ~sync:cfg.wal_sync path ~last_seq:rt.seq)
      else Some (Wal.create ~sync:cfg.wal_sync path)
  in
  let breaker_st = Recovery.breaker_state cfg.breaker in
  let watermark =
    Admission.Watermark.create ~window:cfg.latency_window ~high:cfg.latency_high
      ~low:cfg.latency_low ()
  in
  let latencies = ref [] and sorted_latencies = Sorted_floats.create () in
  let max_queue_depth = ref rt.queue_len in
  let degraded_rounds = ref 0 in
  let last_trips = ref (Recovery.trips breaker_st) in
  let ticks = ref 0 in
  (* Time-series probe: a pure read of the runtime at a grid instant.
     The timestamps come from the virtual clock, so a recorded series
     is as deterministic as the run itself (det-series lint rule). *)
  let sample () =
    match cfg.series with
    | None -> ()
    | Some s ->
      Series.tick s ~now:rt.clock (fun ~t ->
          let busy =
            List.fold_left
              (fun acc (p : Snapshot.placement) ->
                if p.start <= rt.clock && completion p > rt.clock then acc + p.procs else acc)
              0 rt.live
          in
          let total = rt.useful_work +. rt.wasted_work in
          {
            Series.t;
            queue_depth = rt.queue_len;
            running = List.length rt.live;
            deferred = List.length rt.deferred;
            utilisation = float_of_int busy /. float_of_int rt.m;
            goodput = (if total > 0.0 then rt.useful_work /. total else 1.0);
            shed = rt.counters.shed + rt.counters.deferred_jobs;
            killed = rt.counters.killed;
            lat_p50 = Sorted_floats.percentile sorted_latencies 0.50;
            lat_p99 = Sorted_floats.percentile sorted_latencies 0.99;
          })
  in
  (* Fast-forward the deterministic sources past what the recovered
     state already consumed. *)
  Arrivals.skip arrivals rt.arrivals;
  let outage_stream = ref (List.filteri (fun i _ -> i >= rt.outages_seen) (Outage.by_start outages)) in
  let log record =
    match wal with
    | None -> ()
    | Some w ->
      let seq = Wal.append w ~clock:rt.clock record in
      rt.seq <- seq;
      (match cfg.snapshot with
      | Some path when seq mod cfg.snapshot_every = 0 -> Snapshot.save path (state_of_rt rt)
      | _ -> ())
  in
  let gauges () =
    if Obs.enabled obs then begin
      Obs.Gauge.set obs "serve.queue_depth" (float_of_int rt.queue_len);
      Obs.Gauge.set obs "serve.deferred" (float_of_int (List.length rt.deferred));
      Obs.Gauge.set obs "serve.live" (float_of_int (List.length rt.live));
      Obs.Gauge.set obs "serve.degraded" (if rt.degraded then 1.0 else 0.0)
    end
  in
  let advance_to t =
    if t > rt.clock then begin
      fold_completions ~obs ~keep:cfg.keep_schedule rt t;
      rt.clock <- t;
      ignore (Profile.compact !profile ~before:(Float.max 0.0 t))
    end
  in
  (* ---- admission ---- *)
  let admit ~arrival job =
    let verdict =
      (* Requeued work (kills) was already admitted once and bypasses
         the cap; fresh arrivals and deferral re-entries compete. *)
      Admission.decide cfg.shed ~queue_len:rt.queue_len ~cap:cfg.queue_cap ~clock:rt.clock
    in
    match verdict with
    | Admission.Accept ->
      rt.queue <- rt.queue @ [ job ];
      rt.queue_len <- rt.queue_len + 1;
      max_queue_depth := max !max_queue_depth rt.queue_len;
      rt.counters <- { rt.counters with admitted = rt.counters.admitted + 1 };
      log (Wal.Admit { job; arrival });
      Obs.event obs "serve.admit"
        ~payload:
          [ ("job", Event.Int job.Job.id); ("community", Event.Int job.Job.community) ]
    | Admission.Shed_reject ->
      rt.counters <- { rt.counters with shed = rt.counters.shed + 1 };
      log (Wal.Shed { job; reason = "reject"; arrival; requeue = 0.0 });
      Obs.event obs "serve.shed"
        ~payload:
          [ ("job", Event.Int job.Job.id); ("reason", Event.Str "reject");
            ("community", Event.Int job.Job.community) ];
      Obs.Counter.incr obs "serve.shed.reject"
    | Admission.Shed_defer requeue ->
      rt.counters <- { rt.counters with deferred_jobs = rt.counters.deferred_jobs + 1 };
      insert_deferred rt requeue job;
      log (Wal.Shed { job; reason = "defer"; arrival; requeue });
      Obs.event obs "serve.shed"
        ~payload:
          [ ("job", Event.Int job.Job.id); ("reason", Event.Str "defer");
            ("community", Event.Int job.Job.community) ];
      Obs.Counter.incr obs "serve.shed.defer"
    | Admission.Shed_degrade ->
      rt.queue <- rt.queue @ [ job ];
      rt.queue_len <- rt.queue_len + 1;
      max_queue_depth := max !max_queue_depth rt.queue_len;
      rt.counters <- { rt.counters with admitted = rt.counters.admitted + 1 };
      if not rt.degraded then begin
        rt.degraded <- true;
        Obs.event obs "serve.degrade" ~payload:[ ("reason", Event.Str "queue_full") ]
      end;
      log (Wal.Admit { job; arrival })
  in
  (* ---- one decision placement ---- *)
  (* Jobs stay in the queue until their [Decide] hits the log, so a
     crash (or a periodic snapshot) mid-round never loses the undecided
     remainder of the batch: replay rebuilds the queue from the Admits
     minus the logged Decides. *)
  let dequeue id =
    let rec drop = function
      | [] -> []
      | (j : Job.t) :: rest -> if j.Job.id = id then rest else j :: drop rest
    in
    rt.queue <- drop rt.queue;
    rt.queue_len <- rt.queue_len - 1
  in
  let place_one (job : Job.t) =
    let procs = min rt.m (Job.max_procs job) in
    let duration = Job.time_on job procs in
    let earliest = Float.max rt.clock job.Job.release in
    let start = Profile.find_start !profile ~earliest ~duration ~procs in
    if duration > 0.0 then Profile.reserve !profile ~start ~duration ~procs;
    rt.live <- { Snapshot.job; start; procs; duration } :: rt.live;
    rt.counters <- { rt.counters with decided = rt.counters.decided + 1 };
    dequeue job.Job.id;
    rt.round_open <- rt.queue_len > 0;
    log (Wal.Decide { job_id = job.Job.id; start; procs; duration });
    Obs.event obs "serve.decide"
      ~payload:
        [ ("job", Event.Int job.Job.id); ("start", Event.Float start);
          ("procs", Event.Int procs) ]
  in
  let greedy_round jobs = List.iter place_one jobs in
  (* Batch the queue through a registry policy, planning around the
     current profile via reservations.  Any typed error, infeasible
     placement or missing job falls back to the greedy round — the
     daemon never wedges on a policy that cannot handle its input. *)
  let registry_round name jobs =
    match busy_reservations !profile with
    | None -> greedy_round jobs
    | Some reservations -> (
      let rebased = List.map (fun j -> with_release j (Float.max rt.clock j.Job.release)) jobs in
      let ctx = Scheduler_intf.ctx ~m:rt.m ~reservations ~obs () in
      match Schedulers.run name ctx rebased with
      | Error _ -> greedy_round jobs
      | Ok outcome -> (
        let by_id = Hashtbl.create 16 in
        List.iter (fun (j : Job.t) -> Hashtbl.replace by_id j.Job.id j) jobs;
        let entries =
          List.sort
            (fun (a : Schedule.entry) b -> compare (a.start, a.job_id) (b.start, b.job_id))
            outcome.Scheduler_intf.schedule.Schedule.entries
        in
        (* Validate the whole batch on a copy before committing. *)
        let trial = Profile.copy !profile in
        let ok =
          List.for_all
            (fun (e : Schedule.entry) ->
              Hashtbl.mem by_id e.job_id && e.start >= rt.clock
              &&
              try
                if e.duration > 0.0 then
                  Profile.reserve trial ~start:e.start ~duration:e.duration ~procs:e.procs;
                true
              with Invalid_argument _ -> false)
            entries
        in
        if not ok then greedy_round jobs
        else begin
          profile := trial;
          List.iter
            (fun (e : Schedule.entry) ->
              let job = Hashtbl.find by_id e.job_id in
              Hashtbl.remove by_id e.job_id;
              rt.live <-
                { Snapshot.job; start = e.start; procs = e.procs; duration = e.duration }
                :: rt.live;
              rt.counters <- { rt.counters with decided = rt.counters.decided + 1 };
              dequeue e.job_id;
              rt.round_open <- rt.queue_len > 0;
              log
                (Wal.Decide
                   { job_id = e.job_id; start = e.start; procs = e.procs;
                     duration = e.duration });
              Obs.event obs "serve.decide"
                ~payload:[ ("job", Event.Int e.job_id); ("start", Event.Float e.start) ])
            entries;
          (* Jobs the policy left unplaced still must run. *)
          let leftovers = List.filter (fun (j : Job.t) -> Hashtbl.mem by_id j.Job.id) jobs in
          greedy_round leftovers
        end))
  in
  let decision_round () =
    if rt.queue_len > 0 then begin
      (* [jobs] aliases the queue; each placement dequeues as its
         [Decide] is logged (see place_one), so the queue always holds
         exactly the undecided jobs — crash- and snapshot-consistent. *)
      let jobs = rt.queue in
      let forced_greedy =
        rt.degraded || Recovery.blocked breaker_st rt.clock
      in
      (* Decision latency on the observability wall clock: callers that
         care about microsecond percentiles install Unix.gettimeofday
         (bin does); the default Sys.time keeps the library itself free
         of direct wall-clock reads (DESIGN.md section 16). *)
      let wall = Obs.wall_clock obs in
      let t0 = wall () in
      Obs.span obs "serve.decide" (fun () ->
          match cfg.mode with
          | Greedy -> greedy_round jobs
          | Registry name -> if forced_greedy then greedy_round jobs else registry_round name jobs);
      let lat = wall () -. t0 in
      latencies := lat :: !latencies;
      Sorted_floats.insert sorted_latencies lat;
      Obs.Hist.observe obs "serve.decision_latency" lat;
      if forced_greedy && cfg.mode <> Greedy then begin
        incr degraded_rounds;
        rt.counters <- { rt.counters with degraded_rounds = rt.counters.degraded_rounds + 1 }
      end;
      (* Wall-latency governors: the rolling watermark latches degraded
         mode; the per-round deadline feeds the breaker so repeated
         overruns force greedy rounds for a cool-off period. *)
      if Float.is_finite cfg.latency_high then begin
        let engaged = Admission.Watermark.observe watermark lat in
        if engaged && not rt.degraded then begin
          rt.degraded <- true;
          Obs.event obs "serve.degrade" ~payload:[ ("reason", Event.Str "latency") ]
        end
        else if (not engaged) && rt.degraded then rt.degraded <- false
      end;
      if Float.is_finite cfg.deadline && lat > cfg.deadline then begin
        rt.counters <- { rt.counters with timeouts = rt.counters.timeouts + 1 };
        Recovery.record_kill breaker_st rt.clock;
        Obs.serve_deadline obs ~latency:lat ~deadline:cfg.deadline;
        Obs.event obs "serve.degrade" ~payload:[ ("reason", Event.Str "deadline") ];
        let trips = Recovery.trips breaker_st in
        if trips > !last_trips then begin
          last_trips := trips;
          Obs.serve_breaker obs ~trips
        end
      end;
      (* Queue-pressure hysteresis for the Degrade shed policy. *)
      if rt.degraded && (not (Float.is_finite cfg.latency_high)) && cfg.queue_cap > 0
         && rt.queue_len <= cfg.queue_cap / 2
      then rt.degraded <- false
    end
  in
  (* ---- outage application ---- *)
  let apply_outage (o : Outage.t) =
    advance_to o.Outage.start;
    rt.outages_seen <- rt.outages_seen + 1;
    let stop = o.Outage.start +. o.Outage.duration in
    (* Kill youngest-started overlapping placements until the outage
       width fits in free capacity; anything still missing is clipped
       (at most m machines can be down). *)
    let overlapping (p : Snapshot.placement) = p.start < stop && completion p > o.Outage.start in
    let rec free_up () =
      let avail = min_free_over !profile ~start:o.Outage.start ~stop in
      if avail >= o.Outage.procs then avail
      else begin
        match
          List.filter overlapping rt.live
          |> List.sort (fun (a : Snapshot.placement) b ->
                 compare (b.start, b.job.Job.id) (a.start, a.job.Job.id))
        with
        | [] -> avail
        | victim :: _ ->
          Profile.release_window !profile ~start:(Float.max (victim.start) (Profile.origin !profile))
            ~stop:(completion victim) ~procs:victim.procs;
          rt.live <- List.filter (fun p -> p != victim) rt.live;
          let wasted =
            if victim.start < rt.clock then
              float_of_int victim.procs *. (rt.clock -. victim.start)
            else 0.0
          in
          rt.wasted_work <- rt.wasted_work +. wasted;
          rt.counters <- { rt.counters with killed = rt.counters.killed + 1 };
          let id = victim.job.Job.id in
          let attempt = 1 + (try List.assoc id rt.attempts with Not_found -> 0) in
          rt.attempts <- (id, attempt) :: List.remove_assoc id rt.attempts;
          let requeue = rt.clock +. Recovery.delay cfg.backoff ~attempt in
          insert_deferred rt requeue victim.job;
          log (Wal.Kill { job_id = id; wasted; requeue });
          Obs.event obs "fault.kill"
            ~payload:[ ("job", Event.Int id); ("attempt", Event.Int attempt) ];
          free_up ()
      end
    in
    let avail = free_up () in
    let procs = min o.Outage.procs avail in
    if procs > 0 then begin
      Profile.reserve !profile ~start:o.Outage.start ~duration:o.Outage.duration ~procs;
      rt.active_outages <- rt.active_outages @ [ (o.Outage.start, o.Outage.duration, procs) ];
      rt.capacity_lost <- rt.capacity_lost +. (float_of_int procs *. o.Outage.duration)
    end;
    log (Wal.Outage { start = o.Outage.start; duration = o.Outage.duration; procs });
    Obs.event obs "outage.down"
      ~payload:[ ("procs", Event.Int procs); ("duration", Event.Float o.Outage.duration) ]
  in
  (* ---- event loop ---- *)
  let pending_arrival = ref None in
  let arrivals_done = ref false in
  let peek_arrival () =
    match !pending_arrival with
    | Some _ as j -> j
    | None ->
      if !arrivals_done then None
      else begin
        (match Arrivals.next arrivals with
        | Some j when j.Job.release <= cfg.horizon -> pending_arrival := Some j
        | Some _ | None -> arrivals_done := true);
        !pending_arrival
      end
  in
  let live_horizon () =
    List.fold_left (fun acc p -> Float.max acc (completion p)) rt.clock rt.live
  in
  let rec loop () =
    incr ticks;
    tick !ticks;
    gauges ();
    sample ();
    let arr = peek_arrival () in
    (* Work conservation: once arrivals are exhausted and no deferred
       job can re-enter at the current instant, a partially filled
       batch is decided instead of waiting forever (otherwise a full
       queue under Defer shedding would re-defer the same jobs without
       ever deciding any — a livelock). *)
    (if arr = None && rt.queue_len > 0 then
       match rt.deferred with
       | [] -> decision_round ()
       | (t, _) :: _ -> if t > rt.clock then decision_round ());
    let next_deferred = match rt.deferred with [] -> None | (t, _) :: _ -> Some t in
    let next_outage =
      match !outage_stream with
      | [] -> None
      | o :: _ ->
        (* Outages keep applying while there is live or pending work to
           disturb, then the stream is abandoned. *)
        if arr <> None || rt.deferred <> [] || rt.queue <> [] || o.Outage.start <= live_horizon ()
        then Some o.Outage.start
        else None
    in
    (* Timer-driven rounds: with [round_every > 0] the queue is decided
       only at the next grid point (ceiling of the clock), so backlog
       genuinely builds between scheduling cycles and the admission cap
       has teeth under overload.  Stateless — the grid is a pure
       function of the clock — so crash replay re-derives it exactly. *)
    let next_round =
      if cfg.round_every <= 0.0 || rt.queue_len = 0 then None
      else
        let g = Float.floor (rt.clock /. cfg.round_every) *. cfg.round_every in
        Some (if g >= rt.clock then g else g +. cfg.round_every)
    in
    (* Earliest event wins; ties break outage -> deferred -> arrival ->
       round so capacity loss and same-instant admissions are visible to
       the decision round. *)
    let best =
      List.fold_left
        (fun best (t, k) ->
          match (t, best) with
          | None, _ -> best
          | Some t, None -> Some (t, k)
          | Some t, Some (bt, bk) -> if (t, k) < (bt, bk) then Some (t, k) else Some (bt, bk))
        None
        [ (next_outage, 0); (next_deferred, 1);
          ((match arr with Some j -> Some j.Job.release | None -> None), 2);
          (next_round, 3) ]
    in
    let round_on_batch () =
      if cfg.round_every <= 0.0 && rt.queue_len >= cfg.batch then decision_round ()
    in
    match best with
    | None ->
      (* Sources drained and queue decided: run the live work out. *)
      let horizon = live_horizon () in
      fold_completions ~obs ~keep:cfg.keep_schedule rt infinity;
      rt.clock <- horizon
    | Some (_, 0) ->
      (match !outage_stream with
      | o :: rest ->
        outage_stream := rest;
        apply_outage o
      | [] -> ());
      round_on_batch ();
      loop ()
    | Some (t, 1) ->
      advance_to t;
      (match rt.deferred with
      | (_, job) :: rest ->
        rt.deferred <- rest;
        admit ~arrival:false job
      | [] -> ());
      round_on_batch ();
      loop ()
    | Some (t, 2) ->
      advance_to t;
      (match !pending_arrival with
      | Some job ->
        pending_arrival := None;
        rt.arrivals <- rt.arrivals + 1;
        admit ~arrival:true job
      | None -> ());
      round_on_batch ();
      loop ()
    | Some (t, _) ->
      advance_to t;
      decision_round ();
      loop ()
  in
  (* A recovered state can be mid-round — the crash hit between the
     Decides of one batch (round_open), or after the admit that filled
     the batch but before its first Decide (queue_len >= batch).  Either
     way the round is due at the recorded clock, before any new event. *)
  if rt.queue_len > 0
     && (rt.round_open || (cfg.round_every <= 0.0 && rt.queue_len >= cfg.batch))
  then decision_round ();
  Obs.span obs "serve.loop" loop;
  sample ();
  (match wal with Some w -> Wal.close w | None -> ());
  (match cfg.snapshot with
  | Some path -> Snapshot.save path (state_of_rt rt)
  | None -> ());
  let metrics = Metrics.Acc.result rt.acc in
  let total = rt.useful_work +. rt.wasted_work in
  {
    state = state_of_rt rt;
    metrics;
    schedule =
      (if cfg.keep_schedule then Some (Schedule.make ~m:rt.m (List.rev rt.entries)) else None);
    profile = Profile.stats !profile;
    goodput = (if total > 0.0 then rt.useful_work /. total else 1.0);
    decision_latencies = Array.of_list (List.rev !latencies);
    max_queue_depth = !max_queue_depth;
    degraded_rounds = !degraded_rounds;
    breaker_trips = Recovery.trips breaker_st;
  }
