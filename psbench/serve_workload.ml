(* The serve workloads: Poisson arrivals through the full daemon
   pipeline (admission, greedy decisions on a cycle, WAL, snapshots,
   series), then crash recovery from the run's WAL and snapshot. *)

open Psched_serve
module Obs = Psched_obs.Obs
module Series = Psched_obs.Series
module Job = Psched_workload.Job
module Validate = Psched_sim.Validate

type params = {
  m : int;
  count : int;  (* jobs offered per run *)
  load : float;  (* multiple of the ~90% steady offered load *)
  queue_cap : int option;  (* None: one cycle of capacity *)
  instances : int;  (* independent arrival streams per run *)
}

let steady = { m = 128; count = 100_000; load = 1.0; queue_cap = None; instances = 1 }
let storm = { m = 128; count = 5_000; load = 2.0; queue_cap = Some 5000; instances = 8 }

let cycle = 3600.0
let on_time_limit = 2.0 *. cycle
let snapshot_every = 64
let tmin = 10.0
let tmax = 1000.0
let procs_max p = max 1 (p.m / 4)
let mean_work p = float_of_int (1 + procs_max p) /. 2.0 *. ((tmin +. tmax) /. 2.0)
let rate p = p.load *. 0.9 *. float_of_int p.m /. mean_work p

(* The admission cap the serve bench defaults to: just under one cycle
   of machine capacity. *)
let cap p =
  match p.queue_cap with
  | Some c -> c
  | None -> max 4 (int_of_float (0.94 *. float_of_int p.m *. cycle /. mean_work p))

let generate p ~seed =
  let src =
    Arrivals.poisson ~procs_max:(procs_max p) ~tmin ~tmax ~m:p.m ~rate:(rate p) ~seed
      ~count:p.count ()
  in
  let rec drain acc = match Arrivals.next src with Some j -> drain (j :: acc) | None -> acc in
  List.rev (drain [])

(* The pipeline stages a run keeps; the ablations drop one each.
   Snapshots ride on the WAL: the daemon saves them every
   [snapshot_every] records it appends. *)
type variant = { wal : bool; snapshots : bool; series : bool }

let full = { wal = true; snapshots = true; series = true }

type files = { wal_path : string; snap_path : string; scratch : string }

let files ~dir =
  {
    wal_path = Filename.concat dir "serve.wal";
    snap_path = Filename.concat dir "serve.snap";
    scratch = Filename.concat dir "scratch.wal";
  }

type run = {
  outcome : Daemon.outcome;
  wall : float;
  iterations : int;
  series_taken : int;
  minor_words : float;
  major_collections : int;
}

(* The daemon reads decision latency off [obs]'s clock; the disabled
   [Obs.null] reads the process CPU clock, so the end-to-end pass runs on
   it and observes nothing beyond that. *)
let run_daemon p f ~obs ~variant jobs =
  Measure.remove_if_exists f.wal_path;
  Measure.remove_if_exists f.snap_path;
  let series = if variant.series then Some (Series.create ~interval:cycle ()) else None in
  let cfg =
    Daemon.config ~m:p.m ~round_every:cycle ~queue_cap:(cap p) ~shed:Admission.Reject
      ?wal:(if variant.wal then Some f.wal_path else None)
      ?snapshot:(if variant.wal && variant.snapshots then Some f.snap_path else None)
      ~snapshot_every ?series ~obs ()
  in
  let arrivals = Arrivals.of_list jobs in
  let iterations = ref 0 in
  Gc.compact ();
  let g0 = Measure.gc_mark () in
  let wall, outcome =
    Measure.time (fun () ->
        Measure.span obs "daemon.run" (fun () ->
            Daemon.run ~tick:(fun i -> iterations := i) cfg arrivals))
  in
  let minor_words, major_collections = Measure.gc_since g0 in
  {
    outcome;
    wall;
    iterations = !iterations;
    series_taken = (match series with Some s -> Series.taken s | None -> 0);
    minor_words;
    major_collections;
  }

let counters (r : run) = r.outcome.Daemon.state.Snapshot.counters
let finalised r = (counters r).Snapshot.decided + (counters r).Snapshot.shed
let jobs_per_s r = float_of_int (finalised r) /. r.wall

(* ------------------------------------------------------------ checks *)

(* What the WAL says happened, checked against the offered jobs. *)
type wal_view = {
  entries : Wal.entry list;
  sheds : int;
  waits : float list;  (* start - release of every placed job *)
  on_time : int;  (* offered jobs started within [on_time_limit] *)
}

let check_wal ?(obs = Obs.null) p f jobs =
  let entries, torn =
    Measure.span obs "wal.replay" (fun () ->
        match Wal.replay f.wal_path with
        | Ok r -> r
        | Error e ->
          Measure.check ("WAL replay: " ^ e) false;
          ([], None))
  in
  Measure.check "WAL has no torn tail" (torn = None);
  let offered = List.length jobs in
  let release = Hashtbl.create offered in
  List.iter (fun (j : Job.t) -> Hashtbl.replace release j.Job.id j.Job.release) jobs;
  let admitted = ref [] and sheds = ref 0 and decides = ref 0 and others = ref 0 in
  let waits = ref [] and on_time = ref 0 in
  List.iter
    (fun (e : Wal.entry) ->
      match e.Wal.record with
      | Wal.Admit { job; _ } -> admitted := job :: !admitted
      | Wal.Shed _ -> incr sheds
      | Wal.Decide { job_id; start; _ } ->
        incr decides;
        let wait = start -. Hashtbl.find release job_id in
        waits := wait :: !waits;
        if wait <= on_time_limit then incr on_time
      | Wal.Outage _ | Wal.Kill _ -> incr others)
    entries;
  let admits = List.length !admitted in
  Measure.check "WAL balances: admits + sheds = offered" (admits + !sheds = offered);
  Measure.check "WAL balances: decides = admits" (!decides = admits);
  Measure.check "WAL holds no outage or kill records" (!others = 0);
  let violations =
    Measure.span obs "validate.check" (fun () ->
        Validate.check ~jobs:!admitted (Daemon.schedule_of_wal ~m:p.m entries))
  in
  Measure.check "serve schedule validates" (violations = []);
  { entries; sheds = !sheds; waits = !waits; on_time = !on_time }

let recover ?(obs = Obs.null) p f =
  Measure.span obs "daemon.recover" (fun () ->
      Daemon.recover ~snapshot:f.snap_path ~wal:f.wal_path ~m:p.m ())

(* Determinism: what a seeded run wrote must repeat exactly when the
   same instance runs again. *)
let fingerprint f (r : run) =
  ( Wal.fnv1a64 (Measure.read_file f.wal_path),
    Wal.fnv1a64 (Snapshot.to_string r.outcome.Daemon.state),
    r.outcome.Daemon.profile.Psched_sim.Profile.peak_segments )

let check_recovery (r : run) (recovered, (info : Daemon.recovery_info)) =
  Measure.check "recovery used the snapshot" info.Daemon.used_snapshot;
  Measure.check "recovery is bit-identical"
    (String.equal (Snapshot.to_string recovered) (Snapshot.to_string r.outcome.Daemon.state))

(* ---------------------------------------------------------- end to end *)

(* At least 9 set-up samples a run, each generating at least 200k jobs
   (~0.15 s). *)
let setup_reps = 9
let setup_batch p = max 1 (200_000 / (p.count * p.instances))

let setup p ~seed ~dir =
  Measure.setup ~batch:(setup_batch p) (fun () ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let f = files ~dir in
      List.iter Measure.remove_if_exists [ f.wal_path; f.snap_path; f.scratch ];
      Array.of_list
        (List.map (fun seed -> generate p ~seed) (Measure.instance_seeds ~seed p.instances)))

(* Repetitions rotate through the instances for [seconds], and go on
   until every instance has run, one has run twice (the determinism
   check), and the pooled decision rounds put at least ten beyond the
   p99. *)
let min_rounds = 1000

(* What a repetition leaves behind once checked; the daemon's final
   state is dropped, so the heap does not grow with the run's length. *)
type rep = {
  instance : int;
  wall : float;
  finalised : int;
  latencies : float array;
  recover_s : float;
}

let end_to_end p ~seed ~seconds ~dir =
  let setup = setup p ~seed ~dir in
  let inputs = setup.Measure.inputs in
  let k = Array.length inputs in
  let f = files ~dir in
  let fingerprints = Array.make k None and views = Array.make k None in
  let deadline = Measure.wall () +. seconds in
  let rec loop i rounds acc =
    if i > k && Measure.wall () >= deadline && rounds >= min_rounds then List.rev acc
    else begin
      let instance = i mod k in
      let jobs = inputs.(instance) in
      let r = run_daemon p f ~obs:Obs.null ~variant:full jobs in
      Gc.compact ();
      let recover_s, recovered = Measure.time (fun () -> recover p f) in
      check_recovery r recovered;
      let fp = fingerprint f r in
      (match fingerprints.(instance) with
      | None -> fingerprints.(instance) <- Some fp
      | Some first -> Measure.check "WAL, final state and peak segments repeat" (fp = first));
      if views.(instance) = None then
        views.(instance) <- Some { (check_wal p f jobs) with entries = [] };
      Measure.resample_setup setup ~every:(seconds /. float_of_int setup_reps);
      loop (i + 1)
        (rounds + Array.length r.outcome.Daemon.decision_latencies)
        ({ instance; wall = r.wall; finalised = finalised r;
           latencies = r.outcome.Daemon.decision_latencies; recover_s }
        :: acc)
    end
  in
  let reps = loop 0 0 [] in
  let setup_s, setups = Measure.setup_s setup ~reps:setup_reps in
  let views = Array.map Option.get views in
  (* One digest of every instance's outputs, to compare across processes. *)
  Printf.printf "output digest %s\n" (Wal.fnv1a64 (Marshal.to_string fingerprints []));
  let offered i = List.length inputs.(i) in
  let total_offered = Array.fold_left (fun acc jobs -> acc + List.length jobs) 0 inputs in
  let lat =
    List.concat_map (fun x -> Array.to_list x.latencies) reps
  in
  let unfinished = List.fold_left (fun acc x -> acc + offered x.instance - x.finalised) 0 reps in
  Measure.check "every offered job was placed or shed" (unfinished = 0);
  let waits = List.concat_map (fun v -> v.waits) (Array.to_list views) in
  let on_time = Array.fold_left (fun acc v -> acc + v.on_time) 0 views in
  let n = List.length reps in
  let sum = List.fold_left ( +. ) 0.0 in
  let metrics =
    [
      Measure.metric ~samples:setups "setup_s" "s" setup_s;
      Measure.metric ~samples:n "jobs_per_s" "1/s"
        (float_of_int (List.fold_left (fun acc x -> acc + x.finalised) 0 reps)
        /. sum (List.map (fun x -> x.wall) reps));
      Measure.metric ~samples:(List.length lat) "decide_p50_us" "us"
        (1e6 *. Measure.quantile 0.50 lat);
      Measure.metric ~samples:(List.length lat) "decide_p99_us" "us"
        (1e6 *. Measure.quantile 0.99 lat);
      Measure.metric ~samples:n "recover_s" "s"
        (sum (List.map (fun x -> x.recover_s) reps) /. float_of_int n);
      Measure.metric ~samples:total_offered "on_time_ratio" "ratio"
        (float_of_int on_time /. float_of_int total_offered);
      Measure.metric ~samples:(List.length waits) "wait_p99_s" "s" (Measure.quantile 0.99 waits);
      Measure.metric "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
    ]
  in
  Printf.printf "run walls (s): %s\n"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%d:%.3f" x.instance x.wall) reps));
  let shed = Array.fold_left (fun acc v -> acc + v.sheds) 0 views in
  let pct x = 100.0 *. float_of_int x /. float_of_int total_offered in
  Printf.printf
    "%d instances, %d jobs offered; %d runs; shed %d (%.2f%%), missed 2 cycles %d (%.2f%%)\n" k
    total_offered n shed (pct shed) (total_offered - on_time) (pct (total_offered - on_time));
  (metrics, List.fold_left (fun acc x -> acc + offered x.instance) 0 reps, unfinished)

(* ------------------------------------------------------------- traced *)

(* Replays the run's own records through a fresh writer: per-record cost
   of [Wal.append] (flush only, and flush + fsync) and of [Wal.encode]
   alone.  The appends are timed on the wall clock, since an fsync waits
   on the disk rather than the CPU; each replay stops after [budget]
   wall seconds. *)
let replay_wal ~obs f entries ~sync ~budget =
  Measure.span obs (if sync then "wal.replay_sync_append" else "wal.replay_append") (fun () ->
      let w = Wal.create ~sync f.scratch in
      let t0 = Measure.wall () in
      let rec go n = function
        | (e : Wal.entry) :: rest when Measure.wall () -. t0 < budget ->
          ignore (Wal.append w ~clock:e.Wal.clock e.Wal.record);
          go (n + 1) rest
        | _ -> n
      in
      let n = go 0 entries in
      let dt = Measure.wall () -. t0 in
      Wal.close w;
      Measure.remove_if_exists f.scratch;
      1e6 *. dt /. float_of_int (max 1 n))

let encode_us ~obs entries =
  Measure.span obs "wal.encode" (fun () ->
      let dt, () =
        Measure.time (fun () ->
            List.iter
              (fun (e : Wal.entry) ->
                ignore (Wal.encode ~seq:e.Wal.seq ~clock:e.Wal.clock e.Wal.record))
              entries)
      in
      1e6 *. dt /. float_of_int (max 1 (List.length entries)))

(* Mid-run states for the snapshot replay: the daemon's own snapshots
   are overwritten as it goes, so recover the states it saved at a few
   points from WAL prefixes, then time [Snapshot.save] on each. *)
let snapshot_replay ~obs p f entries =
  let text = Measure.read_file f.wal_path in
  let n = List.length entries in
  let prefix_state k =
    (* Byte offset just past the (k+1)-th newline: the header, then k
       records. *)
    let rec cut pos left =
      if left = 0 then pos else cut (String.index_from text pos '\n' + 1) (left - 1)
    in
    Out_channel.with_open_bin f.scratch (fun oc ->
        output_string oc (String.sub text 0 (cut 0 (k + 1))));
    let st, _ = Daemon.recover ~wal:f.scratch ~m:p.m () in
    Measure.remove_if_exists f.scratch;
    st
  in
  Measure.span obs "snapshot.replay" (fun () ->
      let states =
        List.map
          (fun q -> prefix_state (snapshot_every * (q * n / (4 * snapshot_every))))
          [ 1; 2; 3 ]
      in
      let path = f.snap_path ^ ".replay" in
      let saves =
        List.concat_map
          (fun st ->
            List.init 5 (fun _ ->
                let dt, () = Measure.time (fun () -> Snapshot.save path st) in
                dt))
          states
      in
      let bytes =
        List.fold_left (fun acc st -> acc + String.length (Snapshot.to_string st)) 0 states
      in
      Measure.remove_if_exists path;
      (1e3 *. Measure.median saves, float_of_int bytes /. float_of_int (List.length states)))

let traced p ~workload ~seed ~seconds ~dir =
  let jobs = (setup p ~seed ~dir).Measure.inputs.(0) in
  let seed = List.hd (Measure.instance_seeds ~seed p.instances) in
  let f = files ~dir in
  (* Ablations through the daemon's own config fields, in rotation
     until the time is up. *)
  let variants =
    [
      ("full", full, fun () -> Obs.null);
      ("series-off", { full with series = false }, fun () -> Obs.null);
      ("snapshots-off", { full with snapshots = false }, fun () -> Obs.null);
      ("wal-off", { full with wal = false; snapshots = false }, fun () -> Obs.null);
      ("obs-ring16", full, fun () -> Obs.create ~ring_capacity:16 ());
    ]
  in
  let walls = Hashtbl.create 8 in
  let deadline = Measure.wall () +. seconds in
  let rec rotate i =
    let name, variant, obs = List.nth variants (i mod List.length variants) in
    let r = run_daemon p f ~obs:(obs ()) ~variant jobs in
    Hashtbl.replace walls name (r :: Option.value ~default:[] (Hashtbl.find_opt walls name));
    if i + 1 < List.length variants || Measure.wall () < deadline then rotate (i + 1)
  in
  rotate 0;
  let med name = Measure.median (List.map (fun (r : run) -> r.wall) (Hashtbl.find walls name)) in
  let jps name = Measure.median (List.map jobs_per_s (Hashtbl.find walls name)) in
  let t_full = med "full" in
  let e2e = Hashtbl.find walls "full" in
  (* The traced pass: the full pipeline on an enabled handle, with the
     benchmark's spans around every layer call on the same handle. *)
  let obs = Obs.create () in
  let spans = Measure.record_spans obs ~workload in
  let gen_s =
    Measure.median
      (List.init 3 (fun _ ->
           fst
             (Measure.time (fun () ->
                  Measure.span obs "arrivals.drain" (fun () -> ignore (generate p ~seed))))))
  in
  let r = run_daemon p f ~obs ~variant:full jobs in
  let recovered = recover ~obs p f in
  check_recovery r recovered;
  let info = snd recovered in
  let load_s, _ =
    Measure.time (fun () -> Measure.span obs "snapshot.load" (fun () -> Snapshot.load f.snap_path))
  in
  let view = check_wal ~obs p f jobs in
  let records = List.length view.entries in
  let append_us = replay_wal ~obs f view.entries ~sync:false ~budget:1.0 in
  let sync_append_us = replay_wal ~obs f view.entries ~sync:true ~budget:0.5 in
  let encode_us = encode_us ~obs view.entries in
  let save_ms, snap_bytes = snapshot_replay ~obs p f view.entries in
  let total label = let _, t, _ = Measure.span_stat obs label in t in
  let self label = let _, _, s = Measure.span_stat obs label in s in
  let offered = List.length jobs in
  let c = counters r in
  let stats = r.outcome.Daemon.profile in
  Measure.write_spans spans (Filename.concat dir "spans.jsonl");
  Measure.print_spans ~title:"spans of the traced pass (benchmark and daemon)" obs;
  Printf.printf "ablation medians (s): %s\n"
    (String.concat ", " (List.map (fun (n, _, _) -> Printf.sprintf "%s %.3f" n (med n)) variants));
  let share a b = (a -. b) /. t_full in
  let metrics =
    [
      ("arrivals.gen_s", gen_s);
      ("admission.shed", float_of_int c.Snapshot.shed);
      ("admission.max_queue", float_of_int r.outcome.Daemon.max_queue_depth);
      ("daemon.rounds", float_of_int (Array.length r.outcome.Daemon.decision_latencies));
      ("daemon.iterations", float_of_int r.iterations);
      ("daemon.decide_s", total "serve.decide");
      ("daemon.loop_self_s", self "serve.loop");
      ("wal.records", float_of_int records);
      ("wal.bytes_per_job", float_of_int (Measure.file_size f.wal_path) /. float_of_int offered);
      ("wal.share", share (med "snapshots-off") (med "wal-off"));
      ("wal.append_us", append_us);
      ("wal.sync_append_us", sync_append_us);
      ("wal.encode_us", encode_us);
      ("snapshot.saves", float_of_int ((records / snapshot_every) + 1));
      ("snapshot.bytes", snap_bytes);
      ("snapshot.save_ms", save_ms);
      ("snapshot.share", share t_full (med "snapshots-off"));
      ("series.samples", float_of_int r.series_taken);
      ("series.share", share t_full (med "series-off"));
      ("recover.replay_s", total "wal.replay");
      ("recover.snapshot_load_s", load_s);
      ("recover.records_parsed", float_of_int records);
      ("recover.records_applied", float_of_int info.Daemon.replayed);
      ("profile.peak_segments", float_of_int stats.Psched_sim.Profile.peak_segments);
      ("profile.compactions", float_of_int stats.Psched_sim.Profile.compactions);
      ("validate.s", total "validate.check");
      ("gc.minor_words_per_job",
        Measure.median (List.map (fun r -> r.minor_words /. float_of_int offered) e2e));
      ("gc.major_collections",
        Measure.median (List.map (fun r -> float_of_int r.major_collections) e2e));
      ("obs.null_jobs_per_s", jps "full");
      ("obs.ring16_jobs_per_s", jps "obs-ring16");
      ("obs.traced_jobs_per_s", jobs_per_s r);
      ("obs.trace_overhead", 1.0 -. (jobs_per_s r /. jps "full"));
    ]
  in
  let runs = r :: List.concat_map snd (List.of_seq (Hashtbl.to_seq walls)) in
  let unfinished = List.fold_left (fun acc r -> acc + offered - finalised r) 0 runs in
  Measure.check "every offered job was placed or shed" (unfinished = 0);
  (metrics, offered * List.length runs, unfinished)
