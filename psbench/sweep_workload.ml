(* The policy sweep: the paper's own use.  Registry policies over one
   moldable Poisson instance, the multi-resource policies over a
   memory-bound application-class community, and the streaming engine
   over a rigid Poisson stream.  No serve layer runs here. *)

open Psched_workload
module Rng = Psched_util.Rng
module Obs = Psched_obs.Obs
module R = Psched_platform.Resource
module Sim = Psched_sim
module Core = Psched_core
module Fault = Psched_fault

let m = 256
let moldable_policies = [ "easy"; "conservative"; "mrt"; "bicriteria"; "smart" ]
let mr_policies = [ "easy-mr"; "list-mr" ]
let policies = moldable_policies @ mr_policies

(* Off-line policies see the instance with its release dates stripped. *)
let offline = [ "mrt"; "smart" ]

let engine_spans =
  [ "easy.backfill"; "easy.query"; "easy-mr.backfill"; "mrt.knapsack"; "mrt.search"; "smart.shelves" ]

let moldable_jobs = 400
let stream_jobs = 10_000
let mr_corehours = 8000.0
let on_time_limit = 7200.0

type inputs = {
  moldable : Job.t list;
  zeroed : Job.t list;  (* [moldable] released at 0, for the off-line policies *)
  community : Job.t list;
  cap : R.t;
  stream : Job.t list;
  outages : Fault.Outage.t list;
}

let generate ~seed =
  let rng = Rng.create seed in
  let moldable =
    let jobs = Workload_gen.moldable_uniform rng ~n:moldable_jobs ~m ~tmin:10.0 ~tmax:1000.0 in
    let work = List.fold_left (fun acc j -> acc +. Job.min_work j) 0.0 jobs in
    (* ~90% offered load on the jobs' minimal work. *)
    let rate = 0.9 *. float_of_int m *. float_of_int moldable_jobs /. work in
    Workload_gen.with_poisson_arrivals rng ~rate jobs
  in
  let zeroed = List.map (fun (j : Job.t) -> { j with Job.release = 0.0 }) moldable in
  let cap = R.cap ~cores:m ~memory:(m * 2048) ~bandwidth:1024 () in
  let community =
    let jobs = App_class.generate rng ~classes:(App_class.mem_bound cap) ~cap ~corehours:mr_corehours in
    (* Pitched at ~60% of the bottleneck resource, memory: contended,
       with waits short of a runaway queue. *)
    let mem_seconds =
      List.fold_left
        (fun acc (j : Job.t) -> acc +. (Job.seq_time j *. float_of_int (Job.min_request j).R.memory))
        0.0 jobs
    in
    let busy = Float.max (mr_corehours *. 3600.0 /. float_of_int m) (mem_seconds /. float_of_int cap.R.memory) in
    Workload_gen.with_poisson_arrivals rng ~rate:(float_of_int (List.length jobs) *. 0.6 /. busy) jobs
  in
  let stream =
    let width = 16 in
    let gap = float_of_int (1 + width) /. 2.0 *. 505.0 /. (0.9 *. float_of_int m) in
    let release = ref 0.0 in
    List.init stream_jobs (fun id ->
        let procs = 1 + Rng.int rng width in
        let time = Rng.uniform rng 10.0 1000.0 in
        release := !release +. Rng.exp_mean rng gap;
        Job.rigid ~release:!release ~id ~procs ~time ())
  in
  let horizon = List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.release) 0.0 moldable in
  let outages =
    Fault.Generator.poisson rng ~horizon ~rate:(20.0 /. horizon) ~mean_duration:600.0
      ~width:(Fault.Generator.Uniform 32) ()
  in
  { moldable; zeroed; community; cap; stream; outages }

(* The jobs and capacity each policy is run and validated against. *)
let instance inputs policy =
  if List.mem policy mr_policies then (inputs.community, Some inputs.cap)
  else if List.mem policy offline then (inputs.zeroed, None)
  else (inputs.moldable, None)

type pass = {
  schedules : (string * Sim.Schedule.t) list;
  latencies : (string * float) list;  (* per Schedulers.run call *)
  stream : Sim.Stream.result;
  stream_s : float;
  recover_s : float;
  injected : Fault.Injector.outcome;
  jobs : int;  (* scheduled, over every call *)
}

(* [obs] is the engines' handle and the benchmark's own spans go on it
   too, so a traced pass gets one span tree. *)
let sweep ?(obs = Obs.null) inputs =
  let runs =
    List.map
      (fun policy ->
        let jobs, cap = instance inputs policy in
        let ctx = Core.Scheduler_intf.ctx ?cap ~obs ~m () in
        let dt, result =
          Measure.time (fun () ->
              Measure.span obs ("schedulers." ^ policy) (fun () ->
                  Core.Schedulers.run policy ctx jobs))
        in
        match result with
        | Ok o -> (policy, dt, o.Core.Scheduler_intf.schedule)
        | Error e ->
          Measure.check (Core.Scheduler_intf.error_to_string e) false;
          (policy, dt, Sim.Schedule.make ~m []))
      policies
  in
  let stream_s, stream =
    Measure.time (fun () ->
        Measure.span obs "stream.run" (fun () ->
            Sim.Stream.run ~m (Sim.Stream.of_list inputs.stream)))
  in
  (* Recovery on the off-line side: the EASY allocation replayed under
     seeded outages, killed work restarting from scratch. *)
  let easy = List.find_map (fun (p, _, s) -> if p = "easy" then Some s else None) runs in
  let by_id = Hashtbl.create moldable_jobs in
  List.iter (fun (j : Job.t) -> Hashtbl.replace by_id j.Job.id j) inputs.moldable;
  let allocated =
    List.map (fun (e : Sim.Schedule.entry) -> (Hashtbl.find by_id e.job_id, e.procs))
      (Option.get easy).Sim.Schedule.entries
  in
  let recover_s, injected =
    Measure.time (fun () ->
        Measure.span obs "injector.run" (fun () ->
            Fault.Injector.run
              { Fault.Injector.m; outages = inputs.outages; policy = Fault.Recovery.Restart;
                backoff = None }
              allocated))
  in
  {
    schedules = List.map (fun (p, _, s) -> (p, s)) runs;
    latencies = List.map (fun (p, dt, _) -> (p, dt)) runs;
    stream;
    stream_s;
    recover_s;
    injected;
    jobs =
      stream.Sim.Stream.jobs
      + List.fold_left (fun acc (_, _, s) -> acc + List.length s.Sim.Schedule.entries) 0 runs;
  }

(* ------------------------------------------------------------ checks *)

let check_schedules ?(obs = Obs.null) inputs p =
  List.iter
    (fun (policy, sched) ->
      let jobs, cap = instance inputs policy in
      let violations =
        Measure.span obs "validate.check" (fun () -> Sim.Validate.check ?cap ~jobs sched)
      in
      Measure.check (policy ^ " schedule validates") (violations = []))
    p.schedules;
  Measure.check "every job completes under restart recovery"
    (p.injected.Fault.Injector.lost = 0
    && p.injected.Fault.Injector.completed = List.length inputs.moldable);
  (* The streaming engine's incremental metrics against a full
     recomputation over its materialised schedule. *)
  let kept = Sim.Stream.run ~keep_schedule:true ~m (Sim.Stream.of_list inputs.stream) in
  match kept.Sim.Stream.schedule with
  | None -> Measure.check "stream kept its schedule" false
  | Some sched ->
    Measure.check "stream schedule validates"
      (Measure.span obs "validate.check" (fun () ->
           Sim.Validate.check ~jobs:inputs.stream sched)
      = []);
    Measure.check "stream Metrics.Acc equals Metrics.compute"
      (Sim.Metrics.compute ~jobs:inputs.stream sched = kept.Sim.Stream.metrics);
    Measure.check "stream metrics repeat with the schedule kept"
      (kept.Sim.Stream.metrics = p.stream.Sim.Stream.metrics)

(* start - release of every placement by the given policies. *)
let waits inputs p policies =
  List.concat_map
    (fun policy ->
      let jobs, _ = instance inputs policy in
      let release = Hashtbl.create (List.length jobs) in
      List.iter (fun (j : Job.t) -> Hashtbl.replace release j.Job.id j.Job.release) jobs;
      List.map
        (fun (e : Sim.Schedule.entry) -> e.start -. Hashtbl.find release e.job_id)
        (List.assoc policy p.schedules).Sim.Schedule.entries)
    policies

(* The policies that honour release dates.  [on_time_ratio] covers all of
   them; [wait_p99_s] only those on the moldable instance, because a few
   multi-hour memory-bound jobs make the community's wait tail swing by
   ~15% from seed to seed. *)
let online = [ "easy"; "conservative"; "bicriteria" ]

type waited = { moldable_waits : float list; on_time : int; placements : int }

let waited inputs p =
  let all = waits inputs p (online @ mr_policies) in
  {
    moldable_waits = waits inputs p online;
    on_time = List.length (List.filter (fun w -> w <= on_time_limit) all);
    placements = List.length all;
  }

(* What must repeat exactly when an instance runs again.  Compared
   structurally, so a pass allocates nothing for the check that the next
   timed pass would pay for. *)
let fingerprint p =
  ( p.schedules,
    p.stream.Sim.Stream.metrics,
    p.stream.Sim.Stream.profile.Sim.Profile.peak_segments,
    p.injected.Fault.Injector.schedule )

(* ---------------------------------------------------------- end to end *)

(* A run sweeps [instances] independent input sets, each seeded from
   [--seed], so one run averages over several draws of the input. *)
let instances = 16

(* At least 9 set-up samples a run, each generating every input twice
   (~0.3 s). *)
let setup_reps = 9
let setup_batch = 2

let setup ~seed =
  let seeds = Measure.instance_seeds ~seed instances in
  Measure.setup ~batch:setup_batch (fun () ->
      Array.of_list (List.map (fun seed -> generate ~seed) seeds))

(* Passes rotate through the instances for [seconds], and go on until
   every instance has run, one has run twice, and the pooled registry
   calls put at least ten beyond the p99.  The heap is compacted once
   per rotation, outside the timed calls: on OCaml 5.1 the passes'
   direct major-heap allocations barely pace the major GC, so without it
   the heap grows by ~1.5 MB a pass and [peak_rss_mb] would measure the
   run's length. *)
let min_calls = 1000

let until ~seconds inputs f =
  let deadline = Measure.wall () +. seconds in
  let k = Array.length inputs in
  let min_passes = (min_calls + List.length policies - 1) / List.length policies in
  let rec go i acc =
    if i > k && i >= min_passes && Measure.wall () >= deadline then List.rev acc
    else begin
      if i mod k = 0 then Gc.compact ();
      go (i + 1) ((i mod k, f (i mod k) inputs.(i mod k)) :: acc)
    end
  in
  go 0 []

(* What a pass leaves behind once checked: the timings. *)
type timing = { call_s : float list; busy_s : float; placed : int; recover : float }

let timing p =
  {
    call_s = List.map snd p.latencies;
    busy_s = List.fold_left (fun acc (_, t) -> acc +. t) p.stream_s p.latencies;
    placed = p.jobs;
    recover = p.recover_s;
  }

let throughput ts =
  float_of_int (List.fold_left (fun acc t -> acc + t.placed) 0 ts)
  /. List.fold_left (fun acc t -> acc +. t.busy_s) 0.0 ts

(* The failed operations of a pass: jobs the injector lost. *)
let failures p = p.injected.Fault.Injector.lost

let end_to_end ~seed ~seconds =
  let setup = setup ~seed in
  let inputs = setup.Measure.inputs in
  let k = Array.length inputs in
  let fingerprints = Array.make k None and waiteds = Array.make k None in
  let failed = ref 0 in
  let passes =
    until ~seconds inputs (fun i inp ->
        let p = sweep inp in
        let fp = fingerprint p in
        (match fingerprints.(i) with
        | None ->
          fingerprints.(i) <- Some fp;
          check_schedules inp p;
          waiteds.(i) <- Some (waited inp p)
        | Some first ->
          Measure.check "policy schedules, stream metrics and injector schedule repeat"
            (fp = first));
        failed := !failed + failures p;
        Measure.resample_setup setup ~every:(seconds /. float_of_int setup_reps);
        timing p)
  in
  let setup_s, setups = Measure.setup_s setup ~reps:setup_reps in
  let timings = List.map snd passes in
  (* One digest of every instance's outputs, to compare across processes. *)
  Printf.printf "output digest %s\n"
    (Psched_serve.Wal.fnv1a64 (Marshal.to_string fingerprints [ Marshal.No_sharing ]));
  let lat = List.concat_map (fun t -> t.call_s) timings in
  let waiteds = Array.to_list (Array.map Option.get waiteds) in
  let waits = List.concat_map (fun w -> w.moldable_waits) waiteds in
  let on_time = List.fold_left (fun acc w -> acc + w.on_time) 0 waiteds in
  let placements = List.fold_left (fun acc w -> acc + w.placements) 0 waiteds in
  let n = List.length timings in
  Printf.printf "%d instances; %d passes of %d calls each; %d of %d placements late\n" k n
    (List.length (List.hd timings).call_s) (placements - on_time) placements;
  ( [
      Measure.metric ~samples:setups "setup_s" "s" setup_s;
      Measure.metric ~samples:n "jobs_per_s" "1/s" (throughput timings);
      Measure.metric ~samples:(List.length lat) "decide_p50_us" "us" (1e6 *. Measure.quantile 0.50 lat);
      Measure.metric ~samples:(List.length lat) "decide_p99_us" "us" (1e6 *. Measure.quantile 0.99 lat);
      Measure.metric ~samples:n "recover_s" "s"
        (List.fold_left (fun acc t -> acc +. t.recover) 0.0 timings /. float_of_int n);
      Measure.metric ~samples:placements "on_time_ratio" "ratio"
        (float_of_int on_time /. float_of_int placements);
      Measure.metric ~samples:(List.length waits) "wait_p99_s" "s" (Measure.quantile 0.99 waits);
      Measure.metric "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
    ],
    List.fold_left (fun acc t -> acc + t.placed) 0 timings,
    !failed )

(* ------------------------------------------------------------- traced *)

let traced ~workload ~seed ~seconds ~dir =
  let inputs = (setup ~seed).Measure.inputs in
  (* Passes with tracing off, for the overhead comparison. *)
  let g0 = Measure.gc_mark () in
  let failed = ref 0 in
  let counted p =
    failed := !failed + failures p;
    timing p
  in
  let plain = List.map snd (until ~seconds:(seconds /. 2.0) inputs (fun _ inp -> counted (sweep inp))) in
  let minor_words, major_collections = Measure.gc_since g0 in
  (* One handle for every traced pass.  Each registry call summarises the
     handle's ring, so the ring holds only 16 events; spans are counted
     apart from it. *)
  let obs = Obs.create ~ring_capacity:16 () in
  let spans = Measure.record_spans obs ~workload in
  let first = ref None in
  let traced =
    List.map snd
      (until ~seconds:(seconds /. 2.0) inputs (fun i inp ->
           let p = sweep ~obs inp in
           if i = 0 && Option.is_none !first then begin
             check_schedules ~obs inp p;
             first := Some p
           end;
           counted p))
  in
  let first = Option.get !first in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Measure.write_spans spans (Filename.concat dir "spans.jsonl");
  let per_pass = float_of_int (List.length traced) in
  Printf.printf "%d traced passes\n" (List.length traced);
  Measure.print_spans ~title:"spans of the traced passes (benchmark and engines)" obs;
  let total label = let _, t, _ = Measure.span_stat obs label in t in
  let jps_plain = throughput plain in
  let jps_traced = throughput traced in
  let stats = first.stream.Sim.Stream.profile in
  let plain_jobs = List.fold_left (fun acc t -> acc + t.placed) 0 plain in
  let metrics =
    List.map (fun p -> ("schedulers." ^ p ^ "_s", total ("schedulers." ^ p) /. per_pass)) policies
    @ List.concat_map
        (fun l ->
          let calls, _, self = Measure.span_stat obs l in
          [ (l ^ ".self_s", self /. per_pass); (l ^ ".calls", float_of_int calls /. per_pass) ])
        engine_spans
    @ [
        ("stream.s", total "stream.run" /. per_pass);
        ("stream.peak_segments", float_of_int stats.Sim.Profile.peak_segments);
        ("profile.peak_segments", float_of_int stats.Sim.Profile.peak_segments);
        ("profile.compactions", float_of_int stats.Sim.Profile.compactions);
        ("validate.s", total "validate.check");
        ("gc.minor_words_per_job", minor_words /. float_of_int plain_jobs);
        ("gc.major_collections",
          float_of_int major_collections /. float_of_int (List.length plain));
        ("obs.null_jobs_per_s", jps_plain);
        ("obs.traced_jobs_per_s", jps_traced);
        ("obs.trace_overhead", 1.0 -. (jps_traced /. jps_plain));
      ]
  in
  (metrics, plain_jobs + List.fold_left (fun acc t -> acc + t.placed) 0 traced, !failed)
