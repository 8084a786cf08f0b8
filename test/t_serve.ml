(* Tests for the serve daemon: WAL codec and torn-tail handling,
   snapshots, recovery edge cases, admission control and shedding,
   outage kills, overload degradation, the /metrics endpoint, and the
   headline crash-recovery property — kill the daemon after any WAL
   record, recover, resume, and get the bit-identical outcome. *)

open Psched_workload
module Wal = Psched_serve.Wal
module Snapshot = Psched_serve.Snapshot
module Arrivals = Psched_serve.Arrivals
module Admission = Psched_serve.Admission
module Daemon = Psched_serve.Daemon
module Http = Psched_serve.Http
module Metrics = Psched_sim.Metrics
module Outage = Psched_fault.Outage
module Recovery = Psched_fault.Recovery
module Obs = Psched_obs.Obs

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("psched-test-" ^ name)

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm path = if Sys.file_exists path then Sys.remove path

(* --- WAL codec -------------------------------------------------------- *)

let sample_jobs =
  [
    Job.rigid ~weight:2.5 ~release:1.25 ~community:3 ~id:1 ~procs:4 ~time:10.5 ();
    Job.make ~weight:1.0 ~release:0.1 ~due:99.75 ~id:2
      (Job.Moldable { min_procs = 2; times = [| 10.0; 6.0; 4.5; 4.0 |] });
    Job.make ~id:3 (Job.Divisible { work = 123.456 });
    Job.make ~weight:3.0 ~id:4 (Job.Multiparam { count = 50; unit_time = 0.75 });
  ]

let sample_records =
  List.map (fun j -> Wal.Admit { job = j; arrival = true }) sample_jobs
  @ [
      Wal.Admit { job = List.hd sample_jobs; arrival = false };
      Wal.Decide { job_id = 1; start = 3.0625; procs = 4; duration = 10.5 };
      Wal.Shed { job = List.nth sample_jobs 1; reason = "reject"; arrival = true; requeue = 0.0 };
      Wal.Shed { job = List.nth sample_jobs 2; reason = "defer"; arrival = false; requeue = 17.5 };
      Wal.Outage { start = 5.5; duration = 2.25; procs = 3 };
      Wal.Kill { job_id = 1; wasted = 12.5; requeue = 8.125 };
    ]

let test_wal_roundtrip () =
  List.iteri
    (fun i record ->
      let clock = 0.5 +. (float_of_int i *. 1.75) in
      let line = Wal.encode ~seq:(i + 1) ~clock record in
      match Wal.decode line with
      | Error e -> Alcotest.failf "record %d failed to decode: %s" i e
      | Ok entry ->
        Alcotest.(check int) "seq" (i + 1) entry.Wal.seq;
        Alcotest.(check bool) "clock is bit-identical" true (entry.Wal.clock = clock);
        Alcotest.(check bool)
          (Printf.sprintf "record %d round-trips" i)
          true
          (compare entry.Wal.record record = 0))
    sample_records

(* A job as the writer encodes it, split back into its tokens. *)
let written_tokens job =
  let b = Buffer.create 64 in
  Wal.add_job b job;
  String.split_on_char ' ' (Buffer.contents b)

let test_wal_job_roundtrip_qcheck =
  T_helpers.qtest ~count:300 "wal job codec round-trips" (T_helpers.arb_instance `Mixed)
    (fun (_, jobs) ->
      List.for_all
        (fun job ->
          match Wal.job_of_tokens (written_tokens job) with
          | Ok (job', []) -> compare job job' = 0
          | Ok (_, _ :: _) -> QCheck.Test.fail_report "unconsumed tokens"
          | Error e -> QCheck.Test.fail_reportf "codec error: %s" e)
        jobs)

let test_wal_resource_vector_roundtrip () =
  let module R = Psched_platform.Resource in
  (* A job carrying a non-zero demand vector survives the codec... *)
  let res = R.make ~memory:4096 ~bandwidth:250 () in
  let job = Job.rigid ~res ~release:2.5 ~id:9 ~procs:8 ~time:100.0 () in
  (match Wal.job_of_tokens (written_tokens job) with
  | Ok (job', []) ->
    Alcotest.(check bool) "vector survives" true (compare job job' = 0);
    Alcotest.(check int) "memory" 4096 job'.Job.res.R.memory
  | Ok (_, _ :: _) -> Alcotest.fail "unconsumed tokens"
  | Error e -> Alcotest.failf "codec error: %s" e);
  (* ...and a processors-only job emits no V group at all, so lines
     written by older daemons parse unchanged. *)
  let plain = Job.rigid ~id:1 ~procs:2 ~time:5.0 () in
  Alcotest.(check bool) "no V group for zero vectors" false
    (List.mem "V" (written_tokens plain));
  match Wal.job_of_tokens (written_tokens plain) with
  | Ok (job', []) -> Alcotest.(check bool) "zero vector" true (R.equal job'.Job.res R.zero)
  | _ -> Alcotest.fail "plain job must round-trip"

let test_wal_checksum_rejects_flip () =
  let line = Wal.encode ~seq:1 ~clock:2.0 (List.hd sample_records) in
  let flipped = Bytes.of_string line in
  Bytes.set flipped 3 (if Bytes.get flipped 3 = '0' then '1' else '0');
  (match Wal.decode (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip must fail the checksum");
  match Wal.decode (String.sub line 0 (String.length line - 4)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated line must fail the checksum"

let test_wal_writer_replay () =
  let path = tmp "writer.wal" in
  let w = Wal.create path in
  List.iteri (fun i r -> ignore (Wal.append w ~clock:(float_of_int i) r)) sample_records;
  Wal.close w;
  match Wal.replay path with
  | Error e -> Alcotest.fail e
  | Ok (entries, torn) ->
    Alcotest.(check bool) "no torn tail" true (torn = None);
    Alcotest.(check int) "all records back" (List.length sample_records) (List.length entries);
    List.iteri
      (fun i (e : Wal.entry) ->
        Alcotest.(check int) "seq dense" (i + 1) e.Wal.seq;
        Alcotest.(check bool) "payload" true (compare e.Wal.record (List.nth sample_records i) = 0))
      entries;
    rm path

let test_wal_torn_tail () =
  let path = tmp "torn.wal" in
  let w = Wal.create path in
  List.iteri (fun i r -> ignore (Wal.append w ~clock:(float_of_int i) r)) sample_records;
  Wal.close w;
  let intact = read_file path in
  (* A half-written final record: valid prefix + garbage, no newline. *)
  write_file path (intact ^ "11 0x1.8p3 admit a J 9");
  (match Wal.replay path with
  | Error e -> Alcotest.fail e
  | Ok (entries, torn) ->
    Alcotest.(check int) "valid prefix kept" (List.length sample_records) (List.length entries);
    (match torn with
    | None -> Alcotest.fail "torn tail must be reported"
    | Some t -> Alcotest.(check int) "torn at the appended line" (List.length sample_records + 2) t.Wal.line));
  rm path

(* --- pinned formats ----------------------------------------------------- *)

let test_fnv1a64_vectors () =
  List.iter
    (fun (input, digest) ->
      Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" input) digest (Wal.fnv1a64 input))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

(* A job with every optional field (due date, resource vector, moldable
   times) inside a deferral, and a placement: the exact bytes a WAL
   holds, so a change to the codec or the checksum cannot pass
   unnoticed. *)
let test_wal_golden_lines () =
  let res = Psched_platform.Resource.make ~memory:4096 ~bandwidth:250 () in
  let job =
    Job.make ~weight:1.0 ~release:0.1 ~due:99.75 ~res ~id:2
      (Job.Moldable { min_procs = 2; times = [| 10.0; 6.0; 4.5; 4.0 |] })
  in
  Alcotest.(check string) "shed line"
    "17 0x1.88p+1 shed defer r 0x1.18p+4 J 2 0x1p+0 0x1.999999999999ap-4 0x1.8fp+6 0 V 4096 250 M 2 4 0x1.4p+3 0x1.8p+2 0x1.2p+2 0x1p+2 #0d3d0ebd2a94fbb4"
    (Wal.encode ~seq:17 ~clock:3.0625
       (Wal.Shed { job; reason = "defer"; arrival = false; requeue = 17.5 }));
  Alcotest.(check string) "decide line"
    "18 0x1.88p+1 decide 1 0x1.88p+1 4 0x1.5p+3 #f2d7886f45279feb"
    (Wal.encode ~seq:18 ~clock:3.0625
       (Wal.Decide { job_id = 1; start = 3.0625; procs = 4; duration = 10.5 }))

(* --- snapshots -------------------------------------------------------- *)

let nonempty_state () =
  let acc = Metrics.Acc.create ~m:8 in
  Metrics.Acc.add acc ~job:(List.hd sample_jobs) ~start:2.0 ~procs:4 ~duration:10.5;
  {
    (Snapshot.empty ~m:8) with
    Snapshot.seq = 42;
    clock = 17.375;
    arrivals = 7;
    outages_seen = 2;
    queue = [ List.nth sample_jobs 1 ];
    deferred = [ (19.5, List.nth sample_jobs 2) ];
    live = [ { Snapshot.job = List.hd sample_jobs; start = 16.0; procs = 4; duration = 10.5 } ];
    outages = [ (15.0, 4.0, 2) ];
    acc = Metrics.Acc.export acc;
    counters = { Snapshot.zero_counters with admitted = 7; decided = 5; killed = 1 };
    useful_work = 123.5;
    wasted_work = 6.25;
    capacity_lost = 8.0;
    degraded = true;
    attempts = [ (1, 2); (3, 1) ];
  }

let test_snapshot_roundtrip () =
  let st = nonempty_state () in
  match Snapshot.of_string (Snapshot.to_string st) with
  | Error e -> Alcotest.fail e
  | Ok st' -> Alcotest.(check bool) "bit-identical state" true (compare st st' = 0)

let test_snapshot_golden () =
  Alcotest.(check string) "snapshot bytes"
    (String.concat "\n"
       [
         "psched-snapshot/1";
         "m 8";
         "seq 42";
         "clock 0x1.16p+4";
         "arrivals 7";
         "outages_seen 2";
         "counters 7 5 0 0 1 0 0 0";
         "acc 8 1 0x1.9p+3 0x1.9p+3 0x1.f4p+4 0x1.68p+3 0x1.68p+3 0x1.1249249249249p+0 0x1.1249249249249p+0 0 0x0p+0 0x0p+0 0x1.5p+5";
         "work 0x1.eep+6 0x1.9p+2 0x1p+3";
         "degraded 1 0";
         "attempt 1 2";
         "attempt 3 1";
         "q J 2 0x1p+0 0x1.999999999999ap-4 0x1.8fp+6 0 M 2 4 0x1.4p+3 0x1.8p+2 0x1.2p+2 0x1p+2";
         "d 0x1.38p+4 J 3 0x1p+0 0x0p+0 - 0 D 0x1.edd2f1a9fbe77p+6";
         "l 0x1p+4 4 0x1.5p+3 J 1 0x1.4p+1 0x1.4p+0 - 3 R 4 0x1.5p+3";
         "o 0x1.ep+3 0x1p+2 2";
         "end #7a748c7d0be186c0";
         "";
       ])
    (Snapshot.to_string (nonempty_state ()))

let test_snapshot_rejects_torn () =
  let st = nonempty_state () in
  let text = Snapshot.to_string st in
  (match Snapshot.of_string (String.sub text 0 (String.length text / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "half a snapshot must not load");
  let flipped = Bytes.of_string text in
  Bytes.set flipped 40 'Z';
  match Snapshot.of_string (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted snapshot must not load"

(* --- recovery edge cases ---------------------------------------------- *)

let test_recover_missing_and_empty_wal () =
  let path = tmp "absent.wal" in
  rm path;
  let st, info = Daemon.recover ~wal:path ~m:4 () in
  Alcotest.(check int) "fresh state" 0 st.Snapshot.seq;
  Alcotest.(check int) "nothing replayed" 0 info.Daemon.replayed;
  Alcotest.(check bool) "no snapshot" false info.Daemon.used_snapshot;
  (* Header-only file: a daemon killed right after Wal.create. *)
  write_file path "psched-wal/1\n";
  let st, info = Daemon.recover ~wal:path ~m:4 () in
  Alcotest.(check int) "still fresh" 0 st.Snapshot.seq;
  Alcotest.(check bool) "no torn tail" true (info.Daemon.torn = None);
  rm path

let test_recover_truncates_torn_tail () =
  let path = tmp "recover-torn.wal" in
  let w = Wal.create path in
  ignore (Wal.append w ~clock:1.0 (List.hd sample_records));
  ignore (Wal.append w ~clock:2.0 (List.nth sample_records 1));
  Wal.close w;
  let intact = read_file path in
  write_file path (intact ^ "3 0x1p1 adm");
  let st, info = Daemon.recover ~wal:path ~m:8 () in
  Alcotest.(check bool) "torn reported" true (info.Daemon.torn <> None);
  Alcotest.(check int) "two records survive" 2 st.Snapshot.seq;
  Alcotest.(check string) "file truncated back to the valid prefix" intact (read_file path);
  (* Double replay idempotence: recovering again finds a clean log and
     the same state. *)
  let st', info' = Daemon.recover ~wal:path ~m:8 () in
  Alcotest.(check bool) "second recovery clean" true (info'.Daemon.torn = None);
  Alcotest.(check bool) "idempotent" true (compare st st' = 0);
  rm path

let test_recover_snapshot_ahead_of_wal () =
  let wal = tmp "ahead.wal" in
  let snap = tmp "ahead.snapshot" in
  let w = Wal.create wal in
  ignore (Wal.append w ~clock:1.0 (List.hd sample_records));
  Wal.close w;
  let st = { (nonempty_state ()) with Snapshot.m = 8 } in
  Snapshot.save snap st;
  let recovered, info = Daemon.recover ~snapshot:snap ~wal ~m:8 () in
  Alcotest.(check bool) "snapshot used" true info.Daemon.used_snapshot;
  Alcotest.(check bool) "snapshot ahead detected" true info.Daemon.snapshot_ahead;
  Alcotest.(check int) "no stale records replayed" 0 info.Daemon.replayed;
  Alcotest.(check bool) "snapshot state wins" true (compare recovered st = 0);
  rm wal;
  rm snap

let test_recover_corrupt_snapshot_falls_back () =
  let wal = tmp "fallback.wal" in
  let snap = tmp "fallback.snapshot" in
  let w = Wal.create wal in
  ignore (Wal.append w ~clock:1.0 (List.hd sample_records));
  Wal.close w;
  write_file snap "psched-snapshot/1\ngarbage\n";
  let st, info = Daemon.recover ~snapshot:snap ~wal ~m:8 () in
  Alcotest.(check bool) "snapshot rejected" true (info.Daemon.snapshot_error <> None);
  Alcotest.(check bool) "fell back to WAL replay" true (not info.Daemon.used_snapshot);
  Alcotest.(check int) "wal replayed" 1 st.Snapshot.seq;
  rm wal;
  rm snap

(* --- daemon: basic runs ----------------------------------------------- *)

let poisson_arrivals ?(count = 30) ?(seed = 42) ?(m = 8) () =
  Arrivals.poisson ~m ~rate:0.5 ~seed ~count ()

let test_daemon_matches_stream () =
  (* Greedy serve with no admission pressure is the Stream engine with
     different bookkeeping: same placements, same metrics. *)
  let m = 8 in
  let jobs =
    let src = poisson_arrivals ~m () in
    let rec drain acc = match Arrivals.next src with Some j -> drain (j :: acc) | None -> List.rev acc in
    drain []
  in
  let stream = Psched_sim.Stream.run ~m (Psched_sim.Stream.of_list jobs) in
  let cfg = Daemon.config ~m ~keep_schedule:true () in
  let out = Daemon.run cfg (Arrivals.of_list jobs) in
  Alcotest.(check int) "all admitted" (List.length jobs) out.Daemon.state.Snapshot.counters.Snapshot.admitted;
  Alcotest.(check int) "all completed" (List.length jobs) out.Daemon.state.Snapshot.counters.Snapshot.completed;
  T_helpers.check_float "same makespan" stream.Psched_sim.Stream.metrics.Metrics.makespan
    out.Daemon.metrics.Metrics.makespan;
  T_helpers.check_float "same mean flow" stream.Psched_sim.Stream.metrics.Metrics.mean_flow
    out.Daemon.metrics.Metrics.mean_flow;
  T_helpers.check_float "goodput 1 without faults" 1.0 out.Daemon.goodput

let test_daemon_registry_mode () =
  let m = 8 in
  let cfg = Daemon.config ~m ~mode:(Daemon.Registry "easy") ~batch:4 () in
  let out = Daemon.run cfg (poisson_arrivals ~m ()) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "all decided" 30 c.Snapshot.decided;
  Alcotest.(check int) "all completed" 30 c.Snapshot.completed;
  Alcotest.(check int) "nothing shed" 0 c.Snapshot.shed

let test_daemon_shed_reject () =
  let m = 4 in
  (* batch larger than the arrival count: the queue only drains at the
     end, so a cap of 5 must reject everything past the first 5. *)
  let cfg = Daemon.config ~m ~batch:1000 ~queue_cap:5 ~shed:Admission.Reject () in
  let out = Daemon.run cfg (poisson_arrivals ~m ~count:20 ()) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "queue cap admits" 5 c.Snapshot.admitted;
  Alcotest.(check int) "rest shed" 15 c.Snapshot.shed;
  Alcotest.(check int) "admitted all complete" 5 c.Snapshot.completed;
  Alcotest.(check int) "queue depth bounded" 5 out.Daemon.max_queue_depth

let test_daemon_shed_defer () =
  let m = 4 in
  let cfg =
    Daemon.config ~m ~batch:1000 ~queue_cap:5
      ~shed:(Admission.Defer { delay = 5.0 }) ()
  in
  let out = Daemon.run cfg (poisson_arrivals ~m ~count:20 ()) in
  let c = out.Daemon.state.Snapshot.counters in
  (* Nothing is lost under Defer: every job is eventually admitted and
     completed, paying delay instead of work. *)
  Alcotest.(check int) "everything eventually completes" 20 c.Snapshot.completed;
  Alcotest.(check bool) "deferrals happened" true (c.Snapshot.deferred_jobs > 0);
  Alcotest.(check int) "nothing rejected" 0 c.Snapshot.shed;
  Alcotest.(check int) "queue depth bounded" 5 out.Daemon.max_queue_depth

let test_daemon_shed_degrade () =
  let m = 4 in
  let cfg = Daemon.config ~m ~batch:1000 ~queue_cap:5 ~shed:Admission.Degrade () in
  let out = Daemon.run cfg (poisson_arrivals ~m ~count:20 ()) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "everything admitted" 20 c.Snapshot.admitted;
  Alcotest.(check int) "everything completes" 20 c.Snapshot.completed;
  (* Degrade admits past the cap (the queue reaches all 20 jobs) and the
     latch releases once the queue drains back under cap/2. *)
  Alcotest.(check int) "cap breached under degrade" 20 out.Daemon.max_queue_depth;
  Alcotest.(check bool) "latch released after drain" false out.Daemon.state.Snapshot.degraded

let test_daemon_outage_kill_and_goodput () =
  let m = 4 in
  let job = Job.rigid ~id:1 ~procs:4 ~time:10.0 () in
  let outages = [ Outage.make ~start:5.0 ~procs:4 ~duration:2.0 () ] in
  let backoff = Recovery.backoff ~base:1.0 ~factor:2.0 ~max_delay:10.0 () in
  let cfg = Daemon.config ~m ~backoff () in
  let out = Daemon.run ~outages cfg (Arrivals.of_list [ job ]) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "killed once" 1 c.Snapshot.killed;
  Alcotest.(check int) "completed after restart" 1 c.Snapshot.completed;
  (* 5s of 4 procs burned before the kill; 40 proc-seconds useful. *)
  T_helpers.check_float "wasted work" 20.0 out.Daemon.state.Snapshot.wasted_work;
  T_helpers.check_float "goodput" (40.0 /. 60.0) out.Daemon.goodput;
  (* Killed at t=5, first backoff is 1s: requeued at 6, restarted once
     the outage window [5,7) ends. *)
  T_helpers.check_float "makespan includes the restart" 17.0 out.Daemon.metrics.Metrics.makespan

let test_daemon_deadline_breaker () =
  let m = 8 in
  (* A negative deadline makes every registry round overrun it; after
     [threshold] overruns the breaker opens and rounds fall back to
     greedy.  Everything still completes. *)
  let breaker = Recovery.breaker ~threshold:2 ~window:1e9 ~cooloff:1e9 () in
  let cfg =
    Daemon.config ~m ~mode:(Daemon.Registry "easy") ~deadline:(-1.0) ~breaker ()
  in
  let out = Daemon.run cfg (poisson_arrivals ~m ~count:20 ()) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "all complete despite timeouts" 20 c.Snapshot.completed;
  Alcotest.(check bool) "timeouts recorded" true (c.Snapshot.timeouts >= 2);
  Alcotest.(check bool) "breaker tripped" true (out.Daemon.breaker_trips >= 1);
  Alcotest.(check bool) "greedy fallback rounds" true (out.Daemon.degraded_rounds > 0)

(* --- the crash-recovery property -------------------------------------- *)

let crash_config ?snapshot ?snapshot_every ~wal m =
  Daemon.config ~m
    ~backoff:(Recovery.backoff ~base:2.0 ~factor:2.0 ~max_delay:30.0 ())
    ~queue_cap:6 ~shed:(Admission.Defer { delay = 3.0 }) ~batch:2 ~wal ?snapshot
    ?snapshot_every ()

let crash_outages =
  [
    Outage.make ~start:8.0 ~procs:3 ~duration:4.0 ();
    Outage.make ~start:20.0 ~procs:6 ~duration:3.0 ();
    Outage.make ~start:33.0 ~procs:2 ~duration:10.0 ();
  ]

(* The log text holding the header and the first [k] records of
   [lines], followed by [tail]. *)
let wal_prefix lines k tail =
  String.concat "\n" (List.filteri (fun i _ -> i <= k) lines) ^ "\n" ^ tail

(* Kill the daemon after every WAL record, recover, resume, and demand
   the uninterrupted run's outcome.  With [snapshot_every], a crash
   after record k also finds the snapshot the daemon would have left
   on disk: the state at the last multiple of [snapshot_every] at or
   below k, rebuilt by recovering that WAL prefix (none below the first
   multiple).  [config ~wal ~snapshot] builds the daemon's config. *)
let assert_crash_sweep ?snapshot_every ~tag ~m ~config ~arrivals ~outages ~min_records () =
  let full_wal = tmp (tag ^ "-full.wal") in
  let snap = Option.map (fun _ -> tmp (tag ^ ".snapshot")) snapshot_every in
  let full = Daemon.run ~outages (config ~wal:full_wal ~snapshot:snap) (arrivals ()) in
  let full_text = read_file full_wal in
  (* Recover from [wal] (and [snap]), resume, and demand the
     uninterrupted run's metrics, counters, work and WAL bytes. *)
  let resume_matches label wal =
    let state, info = Daemon.recover ?snapshot:snap ~wal ~m () in
    let resumed = Daemon.run ~state ~outages (config ~wal ~snapshot:snap) (arrivals ()) in
    if compare resumed.Daemon.metrics full.Daemon.metrics <> 0 then
      Alcotest.fail (label "metrics differ");
    if compare resumed.Daemon.state.Snapshot.counters full.Daemon.state.Snapshot.counters <> 0
    then Alcotest.fail (label "counters differ");
    if
      compare
        ( resumed.Daemon.state.Snapshot.useful_work,
          resumed.Daemon.state.Snapshot.wasted_work,
          resumed.Daemon.state.Snapshot.capacity_lost )
        ( full.Daemon.state.Snapshot.useful_work,
          full.Daemon.state.Snapshot.wasted_work,
          full.Daemon.state.Snapshot.capacity_lost )
      <> 0
    then Alcotest.fail (label "work accounting differs");
    if read_file wal <> full_text then Alcotest.fail (label "WAL bytes differ");
    info
  in
  (* The daemon's own last snapshot, next to its finished log. *)
  if snap <> None then begin
    let info = resume_matches (Printf.sprintf "%s: %s after the run's end" tag) full_wal in
    Alcotest.(check bool) (tag ^ ": own snapshot used") true info.Daemon.used_snapshot
  end;
  let lines = String.split_on_char '\n' full_text |> List.filter (fun l -> l <> "") in
  let records = List.length lines - 1 (* minus the magic header *) in
  Alcotest.(check bool) (tag ^ ": log is non-trivial") true (records > min_records);
  let part_wal = tmp (tag ^ "-part.wal") in
  for k = 0 to records do
    let base = match snapshot_every with Some every -> k / every * every | None -> 0 in
    (* Disk state after the k-th record was flushed, with and without a
       torn (k+1)-th line — then kill -9, recover, resume. *)
    List.iteri
      (fun variant torn_tail ->
        Option.iter
          (fun path ->
            rm path;
            if base > 0 then begin
              write_file part_wal (wal_prefix lines base "");
              Snapshot.save path (fst (Daemon.recover ~wal:part_wal ~m ()))
            end)
          snap;
        write_file part_wal (wal_prefix lines k torn_tail);
        let label what = Printf.sprintf "%s: %s after crash at record %d.%d" tag what k variant in
        let info = resume_matches label part_wal in
        if info.Daemon.used_snapshot <> (base > 0) then Alcotest.fail (label "snapshot use wrong");
        if info.Daemon.replayed <> k - base then Alcotest.fail (label "replayed count wrong"))
      [ ""; "999 0x1.8p4 decide 7 0x1p0" ]
  done;
  rm full_wal;
  rm part_wal;
  Option.iter rm snap

let test_crash_recovery_bit_identical () =
  let m = 8 in
  assert_crash_sweep ~tag:"crash" ~m
    ~config:(fun ~wal ~snapshot:_ -> crash_config ~wal m)
    ~arrivals:(fun () -> poisson_arrivals ~m ~count:25 ~seed:7 ())
    ~outages:crash_outages ~min_records:50 ()

let test_timer_crash_recovery_bit_identical () =
  (* Same property under timer-driven rounds: multi-job rounds fire on
     the virtual-time grid, so crashes land between the Decides of a
     grid round and the grid itself must be re-derived on replay. *)
  let m = 8 in
  let config ~wal ~snapshot:_ =
    Daemon.config ~m ~round_every:10.0 ~queue_cap:4
      ~shed:(Admission.Defer { delay = 7.0 })
      ~backoff:(Recovery.backoff ~base:2.0 ~factor:2.0 ~max_delay:30.0 ())
      ~wal ()
  in
  assert_crash_sweep ~tag:"timer-crash" ~m ~config
    ~arrivals:(fun () -> poisson_arrivals ~m ~count:15 ~seed:5 ())
    ~outages:crash_outages ~min_records:30 ()

let test_crash_recovery_with_snapshot () =
  (* Same property with periodic snapshots on: recovery goes through
     Snapshot.load + decoding only the WAL suffix past the snapshot. *)
  let m = 8 and snapshot_every = 16 in
  assert_crash_sweep ~snapshot_every ~tag:"snap-crash" ~m
    ~config:(fun ~wal ~snapshot -> crash_config ~wal ?snapshot ~snapshot_every m)
    ~arrivals:(fun () -> poisson_arrivals ~m ~count:25 ~seed:7 ())
    ~outages:crash_outages ~min_records:50 ()

(* --- the scanner against the decode-everything oracle ------------------ *)

(* The WAL replay the scanner replaced, kept as the reference: split
   the whole text, decode every line, stop at the first bad one. *)
let wal_magic = "psched-wal/1"

let reference_fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* The line decoder the scanner replaced.  Its framing (last '#', the
   " #" separator, trimming, digest comparison, reasons) is copied here
   so the scanner's framing is checked against it; the payload
   tokeniser, which the scanner shares unchanged, is reached through
   [Wal.decode] on the body re-framed canonically. *)
let reference_decode line =
  match String.rindex_opt line '#' with
  | None -> Error "no checksum"
  | Some i when i < 1 || line.[i - 1] <> ' ' -> Error "no checksum separator"
  | Some i ->
    let body = String.sub line 0 (i - 1) in
    let sum = String.sub line (i + 1) (String.length line - i - 1) in
    if String.trim sum <> reference_fnv1a64 body then Error "checksum mismatch"
    else Wal.decode (body ^ " #" ^ reference_fnv1a64 body)

let reference_replay_string text =
  let lines = String.split_on_char '\n' text in
  (* Valid prefix semantics: the first undecodable line ends the log
     (everything after a torn record is unreachable — the daemon never
     wrote past a failed append), so later lines are not scavenged.
     [offset] is the byte position of the torn line: recovery truncates
     the file there so the continuation appends after the last valid
     record, leaving no garbage in the middle. *)
  let rec go lineno offset acc = function
    | [] -> (List.rev acc, None)
    | line :: rest ->
      let next_offset = offset + String.length line + 1 in
      let trimmed = String.trim line in
      if trimmed = "" then
        (* A trailing blank line is normal (final newline); blank lines
           between records mean truncation. *)
        if List.for_all (fun l -> String.trim l = "") rest then (List.rev acc, None)
        else (List.rev acc, Some { Wal.line = lineno; offset; reason = "blank line inside the log" })
      else if lineno = 1 && trimmed = wal_magic then go (lineno + 1) next_offset acc rest
      else begin
        match reference_decode trimmed with
        | Ok entry -> go (lineno + 1) next_offset (entry :: acc) rest
        | Error reason -> (List.rev acc, Some { Wal.line = lineno; offset; reason })
      end
  in
  go 1 0 [] lines

(* A daemon run's log, cut at a byte, maybe hit by one flipped byte,
   and scanned past a random snapshot seq. *)
type damaged_log = { seed : int; count : int; cut : int; flip : (int * char) option; after : int }

let damaged_log_arb =
  let open QCheck.Gen in
  let gen =
    let* seed = int_range 1 40 in
    let* count = int_range 3 15 in
    let* cut = int_bound 1_000_000 in
    (* Half the flips write a byte the framing looks at. *)
    let* flip = opt (pair (int_bound 1_000_000) (oneof [ char; oneofl [ '#'; ' '; '\n'; '\t'; '0' ] ])) in
    let* after = int_range (-2) 80 in
    return { seed; count; cut; flip; after }
  in
  QCheck.make gen ~print:(fun d ->
      Printf.sprintf "seed %d count %d cut %d flip %s after %d" d.seed d.count d.cut
        (match d.flip with Some (i, c) -> Printf.sprintf "(%d, %C)" i c | None -> "none")
        d.after)

(* Batches larger than the queue cap force deferrals, and the crash
   outages kill placements, so the five record kinds all appear. *)
let oracle_log ~seed ~count =
  let m = 8 and wal = tmp "oracle.wal" in
  let cfg =
    Daemon.config ~m
      ~backoff:(Recovery.backoff ~base:2.0 ~factor:2.0 ~max_delay:30.0 ())
      ~queue_cap:3 ~shed:(Admission.Defer { delay = 3.0 }) ~batch:4 ~wal ()
  in
  ignore (Daemon.run ~outages:crash_outages cfg (poisson_arrivals ~m ~count ~seed ()));
  let text = read_file wal in
  rm wal;
  text

let damage d =
  let full = oracle_log ~seed:d.seed ~count:d.count in
  let text = String.sub full 0 (d.cut mod (String.length full + 1)) in
  match d.flip with
  | Some (i, c) when text <> "" ->
    let b = Bytes.of_string text in
    Bytes.set b (i mod Bytes.length b) c;
    Bytes.to_string b
  | _ -> text

let test_scan_matches_oracle =
  T_helpers.qtest ~count:300 "wal: scan equals decode-everything oracle" damaged_log_arb
    (fun d ->
      let text = damage d in
      let entries, torn = reference_replay_string text in
      let last_seq = List.fold_left (fun acc (e : Wal.entry) -> max acc e.Wal.seq) 0 entries in
      let suffix = List.filter (fun (e : Wal.entry) -> e.Wal.seq > d.after) entries in
      let scanned = Wal.scan_string ~after:d.after text in
      let whole = Wal.scan_string text in
      if compare scanned.Wal.entries suffix <> 0 then QCheck.Test.fail_report "suffix differs";
      if scanned.Wal.torn <> torn then QCheck.Test.fail_report "torn report differs";
      if scanned.Wal.last_seq <> last_seq then QCheck.Test.fail_report "last seq differs";
      if compare (whole.Wal.entries, whole.Wal.torn) (entries, torn) <> 0 then
        QCheck.Test.fail_report "full scan differs";
      (* Recovery truncates a torn tail exactly where the oracle says. *)
      let wal = tmp "oracle-recover.wal" in
      write_file wal text;
      let _, info = Daemon.recover ~wal ~m:8 () in
      let on_disk = read_file wal in
      rm wal;
      let expected = match torn with Some t -> String.sub text 0 t.Wal.offset | None -> text in
      info.Daemon.torn = torn && on_disk = expected)

let test_oracle_logs_cover_every_kind () =
  (* The oracle's runs exercise every record kind the scanner may have
     to decode or skip. *)
  let entries, _ = reference_replay_string (oracle_log ~seed:7 ~count:10) in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " logged") true
        (List.exists (fun (e : Wal.entry) -> Wal.record_name e.Wal.record = kind) entries))
    [ "admit"; "decide"; "shed"; "outage"; "kill" ]

(* --- the writers against the token-list oracle --------------------------- *)

(* The Printf and token-list encoders the buffer writers replaced, kept
   unchanged as the reference: the writers must reproduce their bytes
   exactly. *)
module Reference = struct
  let hex f = Printf.sprintf "%h" f

  let job_tokens (j : Job.t) =
    let due = match j.due with Some d -> hex d | None -> "-" in
    let base =
      [ "J"; string_of_int j.id; hex j.weight; hex j.release; due; string_of_int j.community ]
    in
    let base =
      let res = j.res in
      if Psched_platform.Resource.equal res Psched_platform.Resource.zero then base
      else
        base
        @ [
            "V";
            string_of_int res.Psched_platform.Resource.memory;
            string_of_int res.Psched_platform.Resource.bandwidth;
          ]
    in
    let shape =
      match j.shape with
      | Job.Rigid { procs; time } -> [ "R"; string_of_int procs; hex time ]
      | Job.Moldable { min_procs; times } ->
        "M" :: string_of_int min_procs
        :: string_of_int (Array.length times)
        :: List.map hex (Array.to_list times)
      | Job.Divisible { work } -> [ "D"; hex work ]
      | Job.Multiparam { count; unit_time } -> [ "P"; string_of_int count; hex unit_time ]
    in
    base @ shape

  let origin_tok arrival = if arrival then "a" else "r"

  let payload_tokens = function
    | Wal.Admit { job; arrival } -> "admit" :: origin_tok arrival :: job_tokens job
    | Wal.Decide { job_id; start; procs; duration } ->
      [ "decide"; string_of_int job_id; hex start; string_of_int procs; hex duration ]
    | Wal.Shed { job; reason; arrival; requeue } ->
      "shed" :: reason :: origin_tok arrival :: hex requeue :: job_tokens job
    | Wal.Outage { start; duration; procs } ->
      [ "outage"; hex start; hex duration; string_of_int procs ]
    | Wal.Kill { job_id; wasted; requeue } ->
      [ "kill"; string_of_int job_id; hex wasted; hex requeue ]

  let encode ~seq ~clock record =
    let body =
      String.concat " " (string_of_int seq :: hex clock :: payload_tokens record)
    in
    body ^ " #" ^ Wal.fnv1a64 body

  let snapshot_to_string (t : Snapshot.t) =
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
    line "%s" "psched-snapshot/1";
    line "m %d" t.m;
    line "seq %d" t.seq;
    line "clock %s" (hex t.clock);
    line "arrivals %d" t.arrivals;
    line "outages_seen %d" t.outages_seen;
    let c = t.counters in
    line "counters %d %d %d %d %d %d %d %d" c.admitted c.decided c.completed c.shed c.killed
      c.deferred_jobs c.timeouts c.degraded_rounds;
    let a = t.acc in
    line "acc %d %d %s %s %s %s %s %s %s %d %s %s %s" a.Metrics.Acc.s_m a.s_n (hex a.s_makespan)
      (hex a.s_sum_completion) (hex a.s_sum_weighted_completion) (hex a.s_sum_flow)
      (hex a.s_max_flow) (hex a.s_sum_stretch) (hex a.s_max_stretch) a.s_tardy_count
      (hex a.s_sum_tardiness) (hex a.s_max_tardiness) (hex a.s_work);
    line "work %s %s %s" (hex t.useful_work) (hex t.wasted_work) (hex t.capacity_lost);
    line "degraded %d %d" (if t.degraded then 1 else 0) (if t.round_open then 1 else 0);
    List.iter (fun (id, n) -> line "attempt %d %d" id n) t.attempts;
    List.iter (fun j -> line "q %s" (String.concat " " (job_tokens j))) t.queue;
    List.iter
      (fun (rel, j) -> line "d %s %s" (hex rel) (String.concat " " (job_tokens j)))
      t.deferred;
    List.iter
      (fun (p : Snapshot.placement) ->
        line "l %s %d %s %s" (hex p.start) p.procs (hex p.duration)
          (String.concat " " (job_tokens p.job)))
      t.live;
    List.iter (fun (s, d, p) -> line "o %s %s %d" (hex s) (hex d) p) t.outages;
    let body = Buffer.contents b in
    body ^ "end #" ^ Wal.fnv1a64 body ^ "\n"
end

let written_hex f =
  let b = Buffer.create 32 in
  Wal.add_hex b f;
  Buffer.contents b

let hex_agrees f =
  let got = written_hex f and want = Printf.sprintf "%h" f in
  got = want
  || QCheck.Test.fail_reportf "bits %016Lx: writer %S, %%h %S" (Int64.bits_of_float f) got want

let test_hex_random_bits =
  T_helpers.qtest ~count:20_000 "wal: add_hex equals %h on random bit patterns"
    (QCheck.make ~print:(Printf.sprintf "%016Lx") QCheck.Gen.int64)
    (fun bits -> hex_agrees (Int64.float_of_bits bits))

(* NaNs of every payload, with the sign bit set or not: %h prints the
   sign of a NaN ("-nan"). *)
let test_hex_nans =
  T_helpers.qtest ~count:2_000 "wal: add_hex equals %h on signed NaNs"
    QCheck.(pair bool (int_range 1 ((1 lsl 52) - 1)))
    (fun (negative, frac) ->
      let bits = Int64.logor 0x7ff0000000000000L (Int64.of_int frac) in
      let bits = if negative then Int64.logor bits Int64.min_int else bits in
      hex_agrees (Int64.float_of_bits bits))

let test_hex_special_values () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "bits %016Lx" (Int64.bits_of_float f))
        (Printf.sprintf "%h" f) (written_hex f))
    [ 0.0; -0.0; infinity; neg_infinity; max_float; -.max_float; min_float; -.min_float;
      4.9e-324; -4.9e-324; Float.pred min_float; Float.succ 0.0; epsilon_float; 1.0; -1.0;
      0.1; 3.0625; 1e300; Float.nan; Int64.float_of_bits 0xfff8000000000000L;
      Int64.float_of_bits 0x7ff0000000000001L; Int64.float_of_bits 0xffffffffffffffffL ];
  Alcotest.(check string) "negative NaN" "-nan" (written_hex (Int64.float_of_bits 0xfff8000000000000L));
  Alcotest.(check string) "smallest subnormal" "0x0.0000000000001p-1022" (written_hex 4.9e-324)

let test_int_writer () =
  List.iter
    (fun n ->
      let b = Buffer.create 24 in
      Wal.add_int b n;
      Alcotest.(check string) (string_of_int n) (string_of_int n) (Buffer.contents b))
    [ 0; 1; -1; 9; 10; -10; 99; 100; 123456789; -987654321; max_int; min_int ]

module Gen = QCheck.Gen

let ( let* ) = Gen.( >>= )
let ( and* ) = Gen.pair

(* Random bit patterns (NaNs and infinities included) and ordinary values. *)
let gen_float =
  Gen.frequency
    [ (2, Gen.map Int64.float_of_bits Gen.int64); (2, Gen.float_range 0.0 1e6);
      (1, Gen.oneofl [ 0.0; -0.0; 0.1; infinity; Float.nan; 4.9e-324; max_float ]) ]

let gen_int = Gen.frequency [ (3, Gen.small_signed_int); (1, Gen.int) ]

let gen_shape =
  Gen.oneof
    [
      Gen.map2 (fun procs time -> Job.Rigid { procs; time }) gen_int gen_float;
      Gen.map2
        (fun min_procs times -> Job.Moldable { min_procs; times })
        gen_int (Gen.array_size (Gen.int_range 0 6) gen_float);
      Gen.map (fun work -> Job.Divisible { work }) gen_float;
      Gen.map2 (fun count unit_time -> Job.Multiparam { count; unit_time }) gen_int gen_float;
    ]

let gen_res =
  Gen.frequency
    [ (1, Gen.return Psched_platform.Resource.zero);
      (2, Gen.map2 (fun memory bandwidth -> Psched_platform.Resource.make ~memory ~bandwidth ())
            Gen.nat Gen.nat) ]

(* Built field by field, not through [Job.make], so any float reaches
   the writer. *)
let gen_job =
  let* id = gen_int and* shape = gen_shape and* weight = gen_float and* release = gen_float in
  let* due = Gen.opt gen_float and* community = gen_int and* res = gen_res in
  Gen.return { Job.id; shape; weight; release; due; community; res }

(* One record of each of the five kinds. *)
let gen_records =
  let* admit = gen_job and* arrival = Gen.bool and* shed = gen_job in
  let* reason = Gen.oneofl [ "reject"; "defer" ] and* i = gen_int and* p = gen_int in
  let* f1 = gen_float and* f2 = gen_float and* f3 = gen_float in
  Gen.return
    [
      Wal.Admit { job = admit; arrival };
      Wal.Decide { job_id = i; start = f1; procs = p; duration = f2 };
      Wal.Shed { job = shed; reason; arrival = not arrival; requeue = f3 };
      Wal.Outage { start = f2; duration = f3; procs = p };
      Wal.Kill { job_id = i; wasted = f3; requeue = f1 };
    ]

let test_encode_matches_reference =
  T_helpers.qtest ~count:500 "wal: encode equals the token-list oracle"
    (QCheck.make Gen.(triple gen_int gen_float gen_records))
    (fun (seq, clock, records) ->
      List.for_all
        (fun record ->
          let got = Wal.encode ~seq ~clock record and want = Reference.encode ~seq ~clock record in
          got = want || QCheck.Test.fail_reportf "writer %S\noracle %S" got want)
        records)

let gen_nonempty g = Gen.list_size (Gen.int_range 1 5) g

let gen_state =
  let* m = gen_int and* seq = gen_int and* clock = gen_float and* arrivals = gen_int in
  let* outages_seen = gen_int and* queue = gen_nonempty gen_job in
  let* deferred = gen_nonempty (Gen.pair gen_float gen_job) in
  let* live =
    gen_nonempty
      (let* job = gen_job and* start = gen_float and* procs = gen_int and* duration = gen_float in
       Gen.return { Snapshot.job; start; procs; duration })
  in
  let* outages = gen_nonempty (Gen.triple gen_float gen_float gen_int) in
  let* attempts = gen_nonempty (Gen.pair gen_int gen_int) in
  let* c = Gen.array_size (Gen.return 10) gen_int and* f = Gen.array_size (Gen.return 13) gen_float in
  let* degraded = Gen.bool and* round_open = Gen.bool in
  Gen.return
    {
      Snapshot.m;
      seq;
      clock;
      arrivals;
      outages_seen;
      queue;
      deferred;
      live;
      outages;
      acc =
        {
          Metrics.Acc.s_m = c.(8);
          s_n = c.(9);
          s_makespan = f.(0);
          s_sum_completion = f.(1);
          s_sum_weighted_completion = f.(2);
          s_sum_flow = f.(3);
          s_max_flow = f.(4);
          s_sum_stretch = f.(5);
          s_max_stretch = f.(6);
          s_tardy_count = c.(7);
          s_sum_tardiness = f.(7);
          s_max_tardiness = f.(8);
          s_work = f.(9);
        };
      counters =
        {
          Snapshot.admitted = c.(0);
          decided = c.(1);
          completed = c.(2);
          shed = c.(3);
          killed = c.(4);
          deferred_jobs = c.(5);
          timeouts = c.(6);
          degraded_rounds = c.(7);
        };
      useful_work = f.(10);
      wasted_work = f.(11);
      capacity_lost = f.(12);
      degraded;
      round_open;
      attempts;
    }

let test_snapshot_matches_reference =
  T_helpers.qtest ~count:300 "snapshot: to_string equals the Printf oracle" (QCheck.make gen_state)
    (fun st ->
      let got = Snapshot.to_string st and want = Reference.snapshot_to_string st in
      got = want || QCheck.Test.fail_reportf "writer:\n%s\noracle:\n%s" got want)

let test_snapshot_save_writes_to_string () =
  let path = tmp "save.snapshot" in
  let st = nonempty_state () in
  Snapshot.save path st;
  let on_disk = read_file path in
  rm path;
  Alcotest.(check string) "saved bytes" (Snapshot.to_string st) on_disk

let test_series_latency_quantiles () =
  (* A deterministic wall clock with uneven steps gives every round a
     distinct latency. *)
  let obs = Obs.create () in
  let lcg = ref 12345 and now = ref 0.0 in
  Obs.set_wall_clock obs (fun () ->
      lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
      now := !now +. (float_of_int (!lcg land 0xffff) *. 1e-6);
      !now);
  let series = Psched_obs.Series.create ~interval:4.0 ~capacity:100_000 () in
  let cfg = Daemon.config ~m:8 ~batch:2 ~obs ~series () in
  let out = Daemon.run cfg (poisson_arrivals ~m:8 ~count:400 ~seed:3 ()) in
  let history = out.Daemon.decision_latencies in
  (* Sort-then-index over the first [k] rounds. *)
  let quantiles k =
    let lat = Array.sub history 0 k in
    Array.sort Float.compare lat;
    let at q = if k = 0 then 0.0 else lat.(min (k - 1) (int_of_float (q *. float_of_int k))) in
    (at 0.50, at 0.99)
  in
  (* Each sample saw a prefix of the history, a later sample a longer one. *)
  let rec seen k (s : Psched_obs.Series.sample) =
    if k > Array.length history then Alcotest.failf "sample at t=%g matches no prefix" s.t
    else if quantiles k = (s.lat_p50, s.lat_p99) then k
    else seen (k + 1) s
  in
  let samples = Psched_obs.Series.samples series in
  let last = List.fold_left seen 0 samples in
  Alcotest.(check bool) "many samples" true (List.length samples > 50);
  Alcotest.(check bool) "samples cover most rounds" true (2 * last > Array.length history)

let test_timer_round_semantics () =
  (* With a scheduling cycle, backlog builds between grid points: the
     cap sheds what a cycle cannot hold, and nothing is decided before
     the next grid point while arrivals are still flowing. *)
  let m = 16 in
  let jobs =
    List.init 5 (fun i ->
        Job.rigid ~release:(float_of_int (i + 1)) ~id:(i + 1) ~procs:1 ~time:5.0 ())
    @ [ Job.rigid ~release:12.0 ~id:6 ~procs:1 ~time:5.0 () ]
  in
  let cfg =
    Daemon.config ~m ~round_every:10.0 ~queue_cap:2 ~shed:Admission.Reject
      ~keep_schedule:true ()
  in
  let out = Daemon.run cfg (Arrivals.of_list jobs) in
  let c = out.Daemon.state.Snapshot.counters in
  Alcotest.(check int) "two jobs fill the cycle's queue" 2 out.Daemon.max_queue_depth;
  Alcotest.(check int) "admitted" 3 c.Snapshot.admitted;
  Alcotest.(check int) "the overflow is shed" 3 c.Snapshot.shed;
  Alcotest.(check int) "decided" 3 c.Snapshot.decided;
  Alcotest.(check int) "completed" 3 c.Snapshot.completed;
  let sched = match out.Daemon.schedule with Some s -> s | None -> Alcotest.fail "no schedule" in
  List.iter
    (fun (e : Psched_sim.Schedule.entry) ->
      if e.job_id <= 2 then
        T_helpers.check_float
          (Printf.sprintf "job %d waits for the grid point" e.job_id)
          10.0 e.start)
    sched.Psched_sim.Schedule.entries

(* --- admission unit tests --------------------------------------------- *)

let test_watermark_hysteresis () =
  let w = Admission.Watermark.create ~quantile:0.5 ~window:4 ~high:1.0 ~low:0.25 () in
  Alcotest.(check bool) "starts disengaged" false (Admission.Watermark.engaged w);
  ignore (Admission.Watermark.observe w 2.0);
  ignore (Admission.Watermark.observe w 2.0);
  Alcotest.(check bool) "engages above high" true (Admission.Watermark.engaged w);
  ignore (Admission.Watermark.observe w 0.5);
  ignore (Admission.Watermark.observe w 0.5);
  ignore (Admission.Watermark.observe w 0.5);
  Alcotest.(check bool) "0.5 is between low and high: stays engaged" true
    (Admission.Watermark.engaged w);
  ignore (Admission.Watermark.observe w 0.1);
  ignore (Admission.Watermark.observe w 0.1);
  ignore (Admission.Watermark.observe w 0.1);
  Alcotest.(check bool) "releases below low" false (Admission.Watermark.engaged w)

let test_acc_export_import () =
  let acc = Metrics.Acc.create ~m:8 in
  List.iteri
    (fun i j -> Metrics.Acc.add acc ~job:j ~start:(float_of_int i *. 3.5) ~procs:2 ~duration:7.25)
    sample_jobs;
  let acc' = Metrics.Acc.import (Metrics.Acc.export acc) in
  Metrics.Acc.add acc ~job:(List.hd sample_jobs) ~start:100.0 ~procs:1 ~duration:1.5;
  Metrics.Acc.add acc' ~job:(List.hd sample_jobs) ~start:100.0 ~procs:1 ~duration:1.5;
  Alcotest.(check bool) "import/export is bit-identical under further adds" true
    (compare (Metrics.Acc.result acc) (Metrics.Acc.result acc') = 0)

(* --- /metrics endpoint ------------------------------------------------ *)

let test_http_metrics () =
  let obs = Obs.create () in
  Obs.Counter.incr obs "serve.test";
  Obs.Gauge.set obs "serve.queue_depth" 3.0;
  match Http.start obs with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Http.stop srv)
      (fun () ->
        let port = Http.port srv in
        Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
        let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let req = "GET /metrics HTTP/1.0\r\n\r\n" in
            ignore (Unix.write_substring client req 0 (String.length req));
            Http.poll srv;
            let buf = Bytes.create 65536 in
            let rec read_all acc =
              match Unix.read client buf 0 (Bytes.length buf) with
              | 0 -> acc
              | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
              | exception Unix.Unix_error _ -> acc
            in
            let response = read_all "" in
            Alcotest.(check bool) "200" true (T_helpers.contains response "200 OK");
            Alcotest.(check bool) "gauge exported" true
              (T_helpers.contains response "psched_gauge{name=\"serve.queue_depth\"} 3");
            Alcotest.(check bool) "counter exported" true
              (T_helpers.contains response "psched_counter_total{name=\"serve.test\"} 1"));
        Alcotest.(check int) "served one request" 1 (Http.served srv))

(* An open client socket against a started server, with the reply
   collected after one poll.  Factors the connect/write/poll/read dance
   the http edge-case tests all share. *)
let http_request srv req =
  let port = Http.port srv in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      if req <> "" then ignore (Unix.write_substring client req 0 (String.length req));
      Http.poll srv;
      let buf = Bytes.create 65536 in
      let rec read_all acc =
        match Unix.read client buf 0 (Bytes.length buf) with
        | 0 -> acc
        | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
        | exception Unix.Unix_error _ -> acc
      in
      read_all "")

let test_http_series_endpoint () =
  let obs = Obs.create () in
  let series = Psched_obs.Series.create ~interval:1.0 () in
  Psched_obs.Series.tick series ~now:0.0 (fun ~t ->
      { Psched_obs.Series.t; queue_depth = 2; running = 1; deferred = 0; utilisation = 0.25;
        goodput = 1.0; shed = 0; killed = 0; lat_p50 = 0.0; lat_p99 = 0.0 });
  match Http.start ~series:(fun () -> Psched_obs.Series.to_jsonl series) obs with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Http.stop srv)
      (fun () ->
        let response = http_request srv "GET /series HTTP/1.0\r\n\r\n" in
        Alcotest.(check bool) "200" true (T_helpers.contains response "200 OK");
        Alcotest.(check bool) "schema header served" true
          (T_helpers.contains response "psched-series/1");
        Alcotest.(check bool) "sample line served" true
          (T_helpers.contains response "\"queue\":2"))

let test_http_series_absent_404 () =
  (* without a provider the endpoint does not exist *)
  let obs = Obs.create () in
  match Http.start obs with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Http.stop srv)
      (fun () ->
        let response = http_request srv "GET /series HTTP/1.0\r\n\r\n" in
        Alcotest.(check bool) "404" true (T_helpers.contains response "404"))

let test_http_edge_cases () =
  let obs = Obs.create () in
  Obs.Gauge.set obs "serve.queue_depth" 1.0;
  match Http.start obs with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Http.stop srv)
      (fun () ->
        (* unknown path *)
        let response = http_request srv "GET /nope HTTP/1.0\r\n\r\n" in
        Alcotest.(check bool) "unknown path is 404" true (T_helpers.contains response "404");
        (* a partial request line must not wedge or kill the server *)
        let response = http_request srv "GET /metr" in
        Alcotest.(check bool) "partial request line answered, not hung" true
          (response = "" || T_helpers.contains response "400"
          || T_helpers.contains response "404");
        (* not a GET *)
        let response = http_request srv "POST /metrics HTTP/1.0\r\n\r\n" in
        Alcotest.(check bool) "non-GET rejected" true
          (T_helpers.contains response "400" || T_helpers.contains response "404"
          || T_helpers.contains response "405");
        (* the server survives all of the above *)
        let response = http_request srv "GET /healthz HTTP/1.0\r\n\r\n" in
        Alcotest.(check bool) "healthz still 200 afterwards" true
          (T_helpers.contains response "200 OK"))

let test_http_concurrent_scrapes () =
  (* two clients with pending requests drained by polling: both must
     see a complete, identical-length /metrics body. *)
  let obs = Obs.create () in
  Obs.Gauge.set obs "serve.queue_depth" 7.0;
  match Http.start obs with
  | Error e -> Alcotest.fail e
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Http.stop srv)
      (fun () ->
        let port = Http.port srv in
        let connect () =
          let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let req = "GET /metrics HTTP/1.0\r\n\r\n" in
          ignore (Unix.write_substring c req 0 (String.length req));
          c
        in
        let c1 = connect () and c2 = connect () in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun c -> try Unix.close c with Unix.Unix_error _ -> ()) [ c1; c2 ])
          (fun () ->
            (* several polls: accept + serve both whatever the backlog order *)
            for _ = 1 to 4 do Http.poll srv done;
            let read c =
              let buf = Bytes.create 65536 in
              let rec go acc =
                match Unix.read c buf 0 (Bytes.length buf) with
                | 0 -> acc
                | n -> go (acc ^ Bytes.sub_string buf 0 n)
                | exception Unix.Unix_error _ -> acc
              in
              go ""
            in
            let r1 = read c1 and r2 = read c2 in
            Alcotest.(check bool) "both scrapes answered 200" true
              (T_helpers.contains r1 "200 OK" && T_helpers.contains r2 "200 OK");
            Alcotest.(check bool) "both scrapes carry the gauge" true
              (T_helpers.contains r1 "psched_gauge{name=\"serve.queue_depth\"} 7"
              && T_helpers.contains r2 "psched_gauge{name=\"serve.queue_depth\"} 7");
            Alcotest.(check int) "consistent bodies" (String.length r1) (String.length r2)))

(* --- WAL -> provenance (psched explain --wal) ------------------------- *)

let test_explain_wal_timelines () =
  let module P = Psched_obs.Provenance in
  let m = 8 in
  let wal = tmp "explain.wal" in
  rm wal;
  let cfg =
    Daemon.config ~m ~wal ~queue_cap:4 ~shed:Admission.Reject
      ~backoff:(Recovery.backoff ~base:2.0 ~factor:2.0 ~max_delay:30.0 ())
      ()
  in
  let out = Daemon.run ~outages:crash_outages cfg (poisson_arrivals ~m ~count:25 ~seed:7 ()) in
  let entries, torn = match Wal.replay wal with Ok r -> r | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "clean log" true (torn = None);
  let tls = Psched_serve.Explain.timelines_of_wal entries in
  Alcotest.(check bool) "every admitted job has a timeline" true (List.length tls > 0);
  Alcotest.(check int) "every timeline complete and contradiction-free" 0
    (List.length (P.unexplained tls));
  (* synthesised completions must agree with the daemon's own count *)
  let completed =
    List.length (List.filter (fun tl -> match tl.P.outcome with P.Completed _ -> true | _ -> false) tls)
  in
  Alcotest.(check int) "completions match the daemon counters"
    out.Daemon.state.Snapshot.counters.Snapshot.completed completed;
  (* kills leave a killed step on the restarted jobs *)
  let killed_steps =
    List.length
      (List.filter
         (fun tl -> List.exists (fun (s : P.step) -> s.P.label = "killed") tl.P.steps)
         tls)
  in
  Alcotest.(check bool) "outage kills narrated" true
    (killed_steps > 0 = (out.Daemon.state.Snapshot.counters.Snapshot.killed > 0));
  rm wal

(* --- schedule_of_wal -------------------------------------------------- *)

let test_schedule_of_wal () =
  let m = 8 in
  let wal = tmp "sched.wal" in
  let cfg =
    Daemon.config ~m ~keep_schedule:true ~wal
      ~backoff:(Recovery.backoff ~base:2.0 ~factor:2.0 ~max_delay:30.0 ())
      ()
  in
  let out = Daemon.run ~outages:crash_outages cfg (poisson_arrivals ~m ~count:25 ~seed:7 ()) in
  let entries, torn = match Wal.replay wal with Ok r -> r | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "clean log" true (torn = None);
  let from_wal = Daemon.schedule_of_wal ~m entries in
  let kept = match out.Daemon.schedule with Some s -> s | None -> Alcotest.fail "no schedule" in
  let key (e : Psched_sim.Schedule.entry) = (e.job_id, e.start, e.procs, e.duration) in
  let sort s = List.sort compare (List.map key s.Psched_sim.Schedule.entries) in
  Alcotest.(check bool) "WAL-derived schedule matches the kept one" true
    (sort from_wal = sort kept);
  rm wal

let suite =
  [
    Alcotest.test_case "wal: record round-trip" `Quick test_wal_roundtrip;
    test_wal_job_roundtrip_qcheck;
    Alcotest.test_case "wal: resource vector round-trip" `Quick
      test_wal_resource_vector_roundtrip;
    Alcotest.test_case "wal: checksum rejects damage" `Quick test_wal_checksum_rejects_flip;
    Alcotest.test_case "wal: writer/replay" `Quick test_wal_writer_replay;
    Alcotest.test_case "wal: torn tail detection" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: FNV-1a/64 test vectors" `Quick test_fnv1a64_vectors;
    Alcotest.test_case "wal: golden lines" `Quick test_wal_golden_lines;
    Alcotest.test_case "snapshot: round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: golden bytes" `Quick test_snapshot_golden;
    Alcotest.test_case "snapshot: rejects torn/corrupt" `Quick test_snapshot_rejects_torn;
    Alcotest.test_case "recover: missing/empty WAL" `Quick test_recover_missing_and_empty_wal;
    Alcotest.test_case "recover: truncates torn tail, idempotent" `Quick
      test_recover_truncates_torn_tail;
    Alcotest.test_case "recover: snapshot ahead of WAL" `Quick test_recover_snapshot_ahead_of_wal;
    Alcotest.test_case "recover: corrupt snapshot falls back" `Quick
      test_recover_corrupt_snapshot_falls_back;
    Alcotest.test_case "daemon: greedy matches Stream" `Quick test_daemon_matches_stream;
    Alcotest.test_case "daemon: registry mode" `Quick test_daemon_registry_mode;
    Alcotest.test_case "daemon: shed reject" `Quick test_daemon_shed_reject;
    Alcotest.test_case "daemon: shed defer" `Quick test_daemon_shed_defer;
    Alcotest.test_case "daemon: shed degrade" `Quick test_daemon_shed_degrade;
    Alcotest.test_case "daemon: outage kill + goodput" `Quick test_daemon_outage_kill_and_goodput;
    Alcotest.test_case "daemon: deadline trips breaker" `Quick test_daemon_deadline_breaker;
    Alcotest.test_case "crash recovery is bit-identical at every offset" `Slow
      test_crash_recovery_bit_identical;
    Alcotest.test_case "timer rounds: crash recovery at every offset" `Slow
      test_timer_crash_recovery_bit_identical;
    Alcotest.test_case "crash recovery with snapshots" `Slow test_crash_recovery_with_snapshot;
    test_scan_matches_oracle;
    Alcotest.test_case "wal: oracle logs cover every record kind" `Quick
      test_oracle_logs_cover_every_kind;
    test_hex_random_bits;
    test_hex_nans;
    Alcotest.test_case "wal: add_hex on special values" `Quick test_hex_special_values;
    Alcotest.test_case "wal: add_int equals string_of_int" `Quick test_int_writer;
    test_encode_matches_reference;
    test_snapshot_matches_reference;
    Alcotest.test_case "snapshot: save writes to_string's bytes" `Quick
      test_snapshot_save_writes_to_string;
    Alcotest.test_case "series: latency quantiles equal sort-then-index" `Quick
      test_series_latency_quantiles;
    Alcotest.test_case "timer rounds: backlog, cap and grid timing" `Quick
      test_timer_round_semantics;
    Alcotest.test_case "admission: watermark hysteresis" `Quick test_watermark_hysteresis;
    Alcotest.test_case "metrics: Acc export/import" `Quick test_acc_export_import;
    Alcotest.test_case "http: /metrics endpoint" `Quick test_http_metrics;
    Alcotest.test_case "http: /series endpoint" `Quick test_http_series_endpoint;
    Alcotest.test_case "http: /series absent is 404" `Quick test_http_series_absent_404;
    Alcotest.test_case "http: malformed requests" `Quick test_http_edge_cases;
    Alcotest.test_case "http: concurrent scrapes" `Quick test_http_concurrent_scrapes;
    Alcotest.test_case "explain: WAL timelines complete" `Quick test_explain_wal_timelines;
    Alcotest.test_case "schedule_of_wal matches kept schedule" `Quick test_schedule_of_wal;
  ]
