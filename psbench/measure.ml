(* Clocks, order statistics, checks, tracing and the result line. *)

module Obs = Psched_obs.Obs
module Event = Psched_obs.Event

(* Timings are process CPU seconds (user + system, from getrusage).  The
   kernel accounts time the hypervisor steals from the virtual CPUs apart
   from process time, so CPU time leaves out what other guests take; on a
   shared 2-vCPU VM wall-clock p99 decision latency swung from 1.1 to
   4.4 ms between runs when steal rose.  This is also the clock an
   [Obs] handle uses by default, so the daemon's decision latencies are
   on the same base.  Run lengths ([--seconds]) are wall seconds. *)
let cpu = Sys.time

let wall = Unix.gettimeofday

let time f =
  let t0 = cpu () in
  let r = f () in
  (cpu () -. t0, r)

(* Nearest-rank quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | _ :: kb :: _ -> float_of_string kb /. 1024.0
      | _ -> nan)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let read_file path = In_channel.with_open_bin path In_channel.input_all
let file_size path = (Unix.stat path).Unix.st_size

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* Allocation and collection counters, for per-job GC pressure.  Major
   collections the benchmark forces itself (compactions) are left out. *)
type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_collections = s.Gc.major_collections - s.Gc.forced_major_collections;
  }

let gc_since m0 =
  let m1 = gc_mark () in
  (m1.minor_words -. m0.minor_words, m1.major_collections - m0.major_collections)

(* ------------------------------------------------------------ checks *)

(* Correctness and determinism checks: every failure is printed at once
   and turns the run's [correct] flag off. *)
let all_passed = ref true

let check name ok =
  if not ok then begin
    all_passed := false;
    Printf.printf "CHECK FAILED: %s\n%!" name
  end

let correct () = !all_passed

(* Seeds of [k] independent input instances drawn from one run seed. *)
let instance_seeds ~seed k =
  let rng = Psched_util.Rng.create seed in
  List.init k (fun _ -> Psched_util.Rng.int rng 1_000_000_000)

(* Set-up timing.  The first set-up makes the run's inputs; the timed
   samples are taken between the timed calls, spread over the run, so
   that [setup_s] averages over the same stretch of host load as the
   other metrics instead of riding on the first second of the process.
   A sample is the mean of [batch] set-ups, each from a compacted heap,
   and each must reproduce the first inputs. *)
type 'a setup = {
  make : unit -> 'a;
  batch : int;
  inputs : 'a;
  mutable times : float list;
  mutable last : float;  (* wall clock at the latest sample *)
}

let sample_setup s =
  let total = ref 0.0 in
  for _ = 1 to s.batch do
    Gc.compact ();
    let dt, inputs = time s.make in
    check "generated inputs repeat for the seed" (inputs = s.inputs);
    total := !total +. dt
  done;
  (* Leave the heap as the timed calls found it. *)
  Gc.compact ();
  s.times <- (!total /. float_of_int s.batch) :: s.times;
  s.last <- wall ()

let setup ~batch make =
  Gc.compact ();
  let inputs = make () in
  let s = { make; batch; inputs; times = []; last = 0.0 } in
  sample_setup s;
  s

(* A sample, if [every] wall seconds have passed since the last one. *)
let resample_setup s ~every = if wall () -. s.last >= every then sample_setup s

(* The median sample, topped up to at least [reps] samples, and the
   sample count. *)
let setup_s s ~reps =
  while List.length s.times < reps do
    sample_setup s
  done;
  (median s.times, List.length s.times)

(* ----------------------------------------------------------- tracing *)

(* The traced passes wrap each call into a library layer in an [Obs]
   span on the handle the daemon or the engines record their own spans
   on, so one span tree holds both and [Obs] splits self time.  The
   benchmark remembers its own labels, to keep their events apart from
   the libraries' (an engine opens millions of spans a run). *)
let own_labels = Hashtbl.create 16

let span obs label f =
  if Obs.enabled obs then Hashtbl.replace own_labels label ();
  Obs.span obs label f

(* Keeps the span.begin/span.end events of the benchmark's own spans on
   [obs] in memory, one JSON object a line: label, span id, enclosing
   span ([span], 0 at the root), clock ([wall]) and the workload. *)
let record_spans obs ~workload =
  let buf = Buffer.create 4096 in
  Obs.add_sink obs
    (Obs.Custom
       (fun (e : Event.t) ->
         match (e.Event.kind, e.Event.payload) with
         | ("span.begin" | "span.end"), ("label", Event.Str l) :: _ when Hashtbl.mem own_labels l ->
           let e = { e with Event.payload = e.Event.payload @ [ ("workload", Event.Str workload) ] } in
           Buffer.add_string buf (Event.to_jsonl e);
           Buffer.add_char buf '\n'
         | _ -> ()));
  buf

let write_spans buf path = Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

(* Calls, total and self seconds of the spans labelled [label], summed
   over every stack path they close on. *)
let span_stat obs label =
  List.fold_left
    (fun ((calls, total, self) as acc) (path, (s : Obs.span_stat)) ->
      let last =
        match String.rindex_opt path ';' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      if last = label then (calls + s.Obs.calls, total +. s.Obs.total, self +. s.Obs.self)
      else acc)
    (0, 0.0, 0.0) (Obs.span_stats obs)

let print_spans ~title obs = Printf.printf "%s\n%s" title (Psched_obs.Profiler.table obs)

(* ------------------------------------------------------------ output *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let print_table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6g %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics

(* A float as JSON: every digit, and never a bare nan/inf token. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct ()) attempted failed (String.concat ", " body)
