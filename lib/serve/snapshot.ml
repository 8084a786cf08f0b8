open Psched_workload
open Psched_sim

(* Point-in-time image of the daemon state.  A snapshot plus the WAL
   suffix with seq > snapshot.seq rebuilds the exact live state.
   Recovery (Daemon.recover) still makes one checksum pass over the
   whole log, but decodes and applies only that suffix: the snapshot
   bounds the decoding and replay work, while the checksum pass grows
   with the log (~4 ns per byte) until the WAL is truncated at a
   snapshot boundary. *)

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

let zero_counters =
  {
    admitted = 0;
    decided = 0;
    completed = 0;
    shed = 0;
    killed = 0;
    deferred_jobs = 0;
    timeouts = 0;
    degraded_rounds = 0;
  }

type t = {
  m : int;
  seq : int;  (* last WAL sequence number reflected in this state *)
  clock : float;  (* virtual time of the last processed event *)
  arrivals : int;  (* arrivals consumed from the primary source *)
  outages_seen : int;  (* outages consumed from the fault stream *)
  queue : Job.t list;  (* admission queue, oldest first *)
  deferred : (float * Job.t) list;  (* (requeue release, job), ascending *)
  live : placement list;  (* decided, completion still in the future *)
  outages : (float * float * int) list;  (* active (start, duration, procs) *)
  acc : Metrics.Acc.state;  (* folded completed placements *)
  counters : counters;
  useful_work : float;
  wasted_work : float;
  capacity_lost : float;
  degraded : bool;
  round_open : bool;  (* a decision round is due at [clock] (crash mid-round) *)
  attempts : (int * int) list;  (* job_id -> kill count, drives backoff *)
}

let empty ~m =
  {
    m;
    seq = 0;
    clock = 0.0;
    arrivals = 0;
    outages_seen = 0;
    queue = [];
    deferred = [];
    live = [];
    outages = [];
    acc = Metrics.Acc.(export (create ~m));
    counters = zero_counters;
    useful_work = 0.0;
    wasted_work = 0.0;
    capacity_lost = 0.0;
    degraded = false;
    round_open = false;
    attempts = [];
  }

(* ------------------------------------------------------------- encode *)

let magic = "psched-snapshot/1"

(* Every line goes through the {!Wal} writers straight into the buffer.
   The bytes must stay those [of_string] reads and that snapshots on
   disk already hold; the tests compare them with a Printf reference. *)
let int_field b n =
  Buffer.add_char b ' ';
  Wal.add_int b n

let hex_field b f =
  Buffer.add_char b ' ';
  Wal.add_hex b f

let add_image b t =
  let int_line key v =
    Buffer.add_string b key;
    int_field b v;
    Buffer.add_char b '\n'
  in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  int_line "m" t.m;
  int_line "seq" t.seq;
  Buffer.add_string b "clock";
  hex_field b t.clock;
  Buffer.add_char b '\n';
  int_line "arrivals" t.arrivals;
  int_line "outages_seen" t.outages_seen;
  let c = t.counters in
  Buffer.add_string b "counters";
  List.iter (int_field b)
    [ c.admitted; c.decided; c.completed; c.shed; c.killed; c.deferred_jobs; c.timeouts;
      c.degraded_rounds ];
  Buffer.add_string b "\nacc";
  let a = t.acc in
  int_field b a.Metrics.Acc.s_m;
  int_field b a.s_n;
  List.iter (hex_field b)
    [ a.s_makespan; a.s_sum_completion; a.s_sum_weighted_completion; a.s_sum_flow;
      a.s_max_flow; a.s_sum_stretch; a.s_max_stretch ];
  int_field b a.s_tardy_count;
  List.iter (hex_field b) [ a.s_sum_tardiness; a.s_max_tardiness; a.s_work ];
  Buffer.add_string b "\nwork";
  List.iter (hex_field b) [ t.useful_work; t.wasted_work; t.capacity_lost ];
  Buffer.add_string b "\ndegraded";
  int_field b (if t.degraded then 1 else 0);
  int_field b (if t.round_open then 1 else 0);
  Buffer.add_char b '\n';
  List.iter
    (fun (id, n) ->
      Buffer.add_string b "attempt";
      int_field b id;
      int_field b n;
      Buffer.add_char b '\n')
    t.attempts;
  List.iter
    (fun j ->
      Buffer.add_string b "q ";
      Wal.add_job b j;
      Buffer.add_char b '\n')
    t.queue;
  List.iter
    (fun (rel, j) ->
      Buffer.add_char b 'd';
      hex_field b rel;
      Buffer.add_char b ' ';
      Wal.add_job b j;
      Buffer.add_char b '\n')
    t.deferred;
  List.iter
    (fun p ->
      Buffer.add_char b 'l';
      hex_field b p.start;
      int_field b p.procs;
      hex_field b p.duration;
      Buffer.add_char b ' ';
      Wal.add_job b p.job;
      Buffer.add_char b '\n')
    t.live;
  List.iter
    (fun (s, d, p) ->
      Buffer.add_char b 'o';
      hex_field b s;
      hex_field b d;
      int_field b p;
      Buffer.add_char b '\n')
    t.outages;
  (* The trailer checksums everything above it, so a snapshot torn by a
     crash mid-write is rejected as a whole and recovery falls back to
     pure WAL replay.  The body is hashed in place, once. *)
  Wal.add_checksum b ~from:0 "end #";
  Buffer.add_char b '\n'

(* Sized so the image never regrows: a job line takes ~100 bytes. *)
let image t =
  let b =
    Buffer.create
      (1024 + (128 * (List.length t.queue + List.length t.deferred + List.length t.live)))
  in
  add_image b t;
  b

let to_string t = Buffer.contents (image t)

(* ------------------------------------------------------------- decode *)

let ( let* ) = Result.bind

let int_tok tok =
  match int_of_string_opt tok with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad int %S" tok)

let float_tok tok =
  match float_of_string_opt tok with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad float %S" tok)

let job_rest tokens =
  let* job, rest = Wal.job_of_tokens tokens in
  if rest <> [] then Error "trailing tokens after job" else Ok job

let of_string text =
  match String.index_opt text '#' with
  | None -> Error "no trailer checksum"
  | Some _ ->
    (* Find the trailer: last line must be "end #<sum>". *)
    let len = String.length text in
    let text = if len > 0 && text.[len - 1] = '\n' then String.sub text 0 (len - 1) else text in
    let* body, sum =
      match String.rindex_opt text '\n' with
      | None -> Error "truncated snapshot"
      | Some i ->
        let last = String.sub text (i + 1) (String.length text - i - 1) in
        let body = String.sub text 0 (i + 1) in
        (match String.split_on_char '#' last with
        | [ "end "; sum ] -> Ok (body, sum)
        | _ -> Error "missing end trailer")
    in
    if Wal.fnv1a64 body <> String.trim sum then Error "snapshot checksum mismatch"
    else begin
      let lines =
        String.split_on_char '\n' body |> List.filter (fun l -> String.trim l <> "")
      in
      match lines with
      | m :: rest when m = magic ->
        let st = ref (empty ~m:1) in
        let q = ref [] and d = ref [] and l = ref [] and o = ref [] and att = ref [] in
        let* () =
          List.fold_left
            (fun acc line ->
              let* () = acc in
              let toks =
                String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
              in
              match toks with
              | [ "m"; v ] ->
                let* v = int_tok v in
                if v < 1 then Error "snapshot capacity must be >= 1"
                else begin
                  st := { !st with m = v };
                  Ok ()
                end
              | [ "seq"; v ] ->
                let* v = int_tok v in
                st := { !st with seq = v };
                Ok ()
              | [ "clock"; v ] ->
                let* v = float_tok v in
                st := { !st with clock = v };
                Ok ()
              | [ "arrivals"; v ] ->
                let* v = int_tok v in
                st := { !st with arrivals = v };
                Ok ()
              | [ "outages_seen"; v ] ->
                let* v = int_tok v in
                st := { !st with outages_seen = v };
                Ok ()
              | [ "counters"; a; b; c; s; k; df; tmo; dr ] ->
                let* admitted = int_tok a in
                let* decided = int_tok b in
                let* completed = int_tok c in
                let* shed = int_tok s in
                let* killed = int_tok k in
                let* deferred_jobs = int_tok df in
                let* timeouts = int_tok tmo in
                let* degraded_rounds = int_tok dr in
                st :=
                  {
                    !st with
                    counters =
                      {
                        admitted;
                        decided;
                        completed;
                        shed;
                        killed;
                        deferred_jobs;
                        timeouts;
                        degraded_rounds;
                      };
                  };
                Ok ()
              | [ "acc"; m; n; mk; sc; swc; sf; mf; ss; ms; tc; st_; mt; w ] ->
                let* s_m = int_tok m in
                let* s_n = int_tok n in
                let* s_makespan = float_tok mk in
                let* s_sum_completion = float_tok sc in
                let* s_sum_weighted_completion = float_tok swc in
                let* s_sum_flow = float_tok sf in
                let* s_max_flow = float_tok mf in
                let* s_sum_stretch = float_tok ss in
                let* s_max_stretch = float_tok ms in
                let* s_tardy_count = int_tok tc in
                let* s_sum_tardiness = float_tok st_ in
                let* s_max_tardiness = float_tok mt in
                let* s_work = float_tok w in
                st :=
                  {
                    !st with
                    acc =
                      {
                        Metrics.Acc.s_m;
                        s_n;
                        s_makespan;
                        s_sum_completion;
                        s_sum_weighted_completion;
                        s_sum_flow;
                        s_max_flow;
                        s_sum_stretch;
                        s_max_stretch;
                        s_tardy_count;
                        s_sum_tardiness;
                        s_max_tardiness;
                        s_work;
                      };
                  };
                Ok ()
              | [ "work"; u; w; cl ] ->
                let* useful_work = float_tok u in
                let* wasted_work = float_tok w in
                let* capacity_lost = float_tok cl in
                st := { !st with useful_work; wasted_work; capacity_lost };
                Ok ()
              | [ "degraded"; v; r ] ->
                let* v = int_tok v in
                let* r = int_tok r in
                st := { !st with degraded = v <> 0; round_open = r <> 0 };
                Ok ()
              | [ "attempt"; id; n ] ->
                let* id = int_tok id in
                let* n = int_tok n in
                att := (id, n) :: !att;
                Ok ()
              | "q" :: job ->
                let* job = job_rest job in
                q := job :: !q;
                Ok ()
              | "d" :: rel :: job ->
                let* rel = float_tok rel in
                let* job = job_rest job in
                d := (rel, job) :: !d;
                Ok ()
              | "l" :: start :: procs :: duration :: job ->
                let* start = float_tok start in
                let* procs = int_tok procs in
                let* duration = float_tok duration in
                let* job = job_rest job in
                l := { job; start; procs; duration } :: !l;
                Ok ()
              | "o" :: [ s; du; p ] ->
                let* s = float_tok s in
                let* du = float_tok du in
                let* p = int_tok p in
                o := (s, du, p) :: !o;
                Ok ()
              | tok :: _ -> Error (Printf.sprintf "unknown snapshot line %S" tok)
              | [] -> Ok ())
            (Ok ()) rest
        in
        Ok
          {
            !st with
            queue = List.rev !q;
            deferred = List.rev !d;
            live = List.rev !l;
            outages = List.rev !o;
            attempts = List.rev !att;
          }
      | _ -> Error "bad snapshot magic"
    end

(* ---------------------------------------------------------------- I/O *)

let save path t =
  (* Write-then-rename so a crash mid-save leaves the previous snapshot
     intact — never a half-written file at the canonical path. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (image t));
  Sys.rename tmp path

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        of_string (really_input_string ic n))
