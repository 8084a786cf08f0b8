(* The psched benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: serve-steady, serve-storm, policy-sweep (see README.md).
   With --trace 0 the last stdout line holds the end-to-end metrics;
   with --trace 1 it holds the per-layer metrics of a traced pass.  The
   exit code is non-zero when a correctness or determinism check fails. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-steady|serve-storm|policy-sweep --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with Some s when s > 0.0 -> seconds := s; go rest | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed with Some seed -> (!workload, seed, !seconds, !trace) | None -> usage ()

(* Every per-layer metric, in BENCHMARK.json order, with its unit.  A
   workload that does not run a layer reports it as 0. *)
let per_layer =
  [
    ("arrivals.gen_s", "s"); ("admission.shed", "count"); ("admission.max_queue", "count");
    ("daemon.rounds", "count"); ("daemon.iterations", "count"); ("daemon.decide_s", "s");
    ("daemon.loop_self_s", "s"); ("wal.records", "count"); ("wal.bytes_per_job", "B");
    ("wal.share", "ratio"); ("wal.append_us", "us"); ("wal.sync_append_us", "us");
    ("wal.encode_us", "us"); ("snapshot.saves", "count"); ("snapshot.bytes", "B");
    ("snapshot.save_ms", "ms"); ("snapshot.share", "ratio"); ("series.samples", "count");
    ("series.share", "ratio"); ("recover.replay_s", "s"); ("recover.snapshot_load_s", "s");
    ("recover.records_parsed", "count"); ("recover.records_applied", "count");
    ("profile.peak_segments", "count"); ("profile.compactions", "count"); ("stream.s", "s");
    ("stream.peak_segments", "count");
  ]
  @ List.map (fun p -> ("schedulers." ^ p ^ "_s", "s")) Sweep_workload.policies
  @ List.concat_map
      (fun l -> [ (l ^ ".self_s", "s"); (l ^ ".calls", "count") ])
      Sweep_workload.engine_spans
  @ [
      ("validate.s", "s"); ("gc.minor_words_per_job", "words");
      ("gc.major_collections", "count"); ("obs.null_jobs_per_s", "1/s");
      ("obs.ring16_jobs_per_s", "1/s"); ("obs.traced_jobs_per_s", "1/s");
      ("obs.trace_overhead", "ratio");
    ]

let layer_metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then invalid_arg ("unlisted metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Measure.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer

let () =
  let workload, seed, seconds, trace = parse () in
  (* Scratch files of this process; the span dump outlives it. *)
  let root = "_psbench" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let cleanup () =
    let spans = Filename.concat dir "spans.jsonl" in
    if Sys.file_exists spans then
      Sys.rename spans (Filename.concat root (Printf.sprintf "spans-%s.jsonl" workload));
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  at_exit cleanup;
  let serve p =
    if trace then begin
      let values, attempted, failed = Serve_workload.traced p ~workload ~seed ~seconds ~dir in
      (layer_metrics values, attempted, failed)
    end
    else Serve_workload.end_to_end p ~seed ~seconds ~dir
  in
  let metrics, attempted, failed =
    match workload with
    | "serve-steady" -> serve Serve_workload.steady
    | "serve-storm" -> serve Serve_workload.storm
    | "policy-sweep" ->
      if trace then
        let values, attempted, failed = Sweep_workload.traced ~workload ~seed ~seconds ~dir in
        (layer_metrics values, attempted, failed)
      else Sweep_workload.end_to_end ~seed ~seconds
    | _ -> usage ()
  in
  Measure.print_table ~title:(Printf.sprintf "%s seed %d" workload seed) metrics;
  Printf.printf "attempted %d, failed %d (%.4f%%)\n" attempted failed
    (100.0 *. float_of_int failed /. float_of_int (max 1 attempted));
  Measure.result_line ~attempted ~failed metrics;
  if not (Measure.correct ()) then exit 1
