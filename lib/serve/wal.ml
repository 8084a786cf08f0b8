open Psched_workload

(* Write-ahead log of the serve daemon.

   Every state transition of the daemon is one appended line; replaying
   the line sequence rebuilds the exact pre-crash state (see Daemon).
   The format is deliberately line-oriented text, not binary: a torn
   final record (the normal result of `kill -9` between write and
   flush) is detectable per line, and a human can read the log.

   Line format:   <seq> <clock> <payload tokens...> #<checksum>

   - seq is a strictly increasing integer (the analyzer's
     serve.wal.monotone rule checks it);
   - clock is the daemon's virtual time at the transition, encoded as a
     hex float (%h) so replay is bit-identical;
   - the checksum is FNV-1a/64 over everything before " #", so a torn
     or bit-flipped tail is rejected, never silently replayed. *)

type record =
  | Admit of { job : Job.t; arrival : bool }
  | Decide of { job_id : int; start : float; procs : int; duration : float }
  | Shed of { job : Job.t; reason : string; arrival : bool; requeue : float }
  | Outage of { start : float; duration : float; procs : int }
  | Kill of { job_id : int; wasted : float; requeue : float }

let record_name = function
  | Admit _ -> "admit"
  | Decide _ -> "decide"
  | Shed _ -> "shed"
  | Outage _ -> "outage"
  | Kill _ -> "kill"

(* ------------------------------------------------------------ checksum *)

(* One FNV-1a/64 step.  Inlined into the index loops below, whose local
   [Int64] refs the native compiler then keeps unboxed: no allocation
   per byte. *)
let[@inline] fnv_step h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L

let fnv_basis = 0xcbf29ce484222325L

let hex_digits = "0123456789abcdef"

(* Lowercase hex digit [i] (0 = most significant) of a 64-bit digest. *)
let[@inline] digest_digit h i =
  hex_digits.[Int64.to_int (Int64.logand (Int64.shift_right_logical h (4 * (15 - i))) 0xfL)]

let fnv1a64 s =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := fnv_step !h (String.unsafe_get s i)
  done;
  String.init 16 (digest_digit !h)

(* ------------------------------------------------------------ encoders *)

(* The encoders append straight into a [Buffer.t]: no token lists, no
   Printf, no intermediate strings.  Their bytes must stay exactly the
   token format the decoders below read and logs on disk hold
   ([string_of_int], [%h], tokens joined by single spaces); the tests
   compare them with a token-list reference. *)

(* [string_of_int n], digit by digit; [n <= 0] so min_int needs no
   special case. *)
let rec add_nonpos b n =
  if n <= -10 then add_nonpos b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_nonpos b n
  end
  else add_nonpos b (-n)

let frac_mask = (1 lsl 52) - 1

(* Hex floats (%h / float_of_string "0x1.8p3") round-trip every finite
   float exactly, which the bit-identical-replay property requires.
   This prints what [Printf.sprintf "%h"] prints, from the float's bits
   in native ints: the 52-bit fraction fits in an OCaml int, so nothing
   is boxed per digit.  Like %h it prints the sign bit of every float,
   NaN included ("-nan").  A finite float is spelled into a 24-byte
   scratch (sign, "0x1.", 13 digits, "p", signed exponent of at most 4
   digits) and handed to the buffer in one piece. *)
let add_hex b f =
  let bits = Int64.bits_of_float f in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let e = top land 0x7ff and frac = Int64.to_int bits land frac_mask in
  if e = 0x7ff then begin
    if top > 0x7ff then Buffer.add_char b '-';
    Buffer.add_string b (if frac = 0 then "infinity" else "nan")
  end
  else begin
    let s = Bytes.create 24 in
    let p = if top > 0x7ff then 1 else 0 in
    if p = 1 then Bytes.unsafe_set s 0 '-';
    Bytes.blit_string (if e = 0 then "0x0." else "0x1.") 0 s p 4;
    (* Most significant digit first; trailing zeros are not printed,
       and without fraction digits the point is dropped too. *)
    let p = ref (p + 4) and m = ref frac in
    while !m <> 0 do
      Bytes.unsafe_set s !p (String.unsafe_get hex_digits (!m lsr 48));
      incr p;
      m := (!m lsl 4) land frac_mask
    done;
    if frac = 0 then decr p;
    let exp = if e > 0 then e - 1023 else if frac = 0 then 0 else -1022 in
    Bytes.unsafe_set s !p 'p';
    Bytes.unsafe_set s (!p + 1) (if exp < 0 then '-' else '+');
    let x = ref (abs exp) in
    let stop = !p + 2 + if !x >= 1000 then 4 else if !x >= 100 then 3 else if !x >= 10 then 2 else 1 in
    for i = stop - 1 downto !p + 2 do
      Bytes.unsafe_set s i (Char.unsafe_chr (48 + (!x mod 10)));
      x := !x / 10
    done;
    Buffer.add_subbytes b s 0 stop
  end

(* Space-separated fields. *)
let int_field b n =
  Buffer.add_char b ' ';
  add_int b n

let hex_field b f =
  Buffer.add_char b ' ';
  add_hex b f

let add_job b (j : Job.t) =
  Buffer.add_char b 'J';
  int_field b j.id;
  hex_field b j.weight;
  hex_field b j.release;
  (match j.due with Some d -> hex_field b d | None -> Buffer.add_string b " -");
  int_field b j.community;
  (* Optional resource-vector group, emitted only when non-zero so WALs
     written before the multi-resource redesign (and by scalar-only
     clients) keep parsing: an absent "V" group reads back as
     [Resource.zero]. *)
  let res = j.res in
  if not (Psched_platform.Resource.equal res Psched_platform.Resource.zero) then begin
    Buffer.add_string b " V";
    int_field b res.Psched_platform.Resource.memory;
    int_field b res.Psched_platform.Resource.bandwidth
  end;
  match j.shape with
  | Job.Rigid { procs; time } ->
    Buffer.add_string b " R";
    int_field b procs;
    hex_field b time
  | Job.Moldable { min_procs; times } ->
    Buffer.add_string b " M";
    int_field b min_procs;
    int_field b (Array.length times);
    for i = 0 to Array.length times - 1 do
      hex_field b times.(i)
    done
  | Job.Divisible { work } ->
    Buffer.add_string b " D";
    hex_field b work
  | Job.Multiparam { count; unit_time } ->
    Buffer.add_string b " P";
    int_field b count;
    hex_field b unit_time

(* Appends [sep], then the FNV-1a/64 digest of the bytes of [b] from
   [from] up to [sep].  The bytes are read through a window of at most
   1 KiB, so hashing a snapshot image never copies it whole. *)
let add_checksum b ~from sep =
  let stop = Buffer.length b in
  let window = Bytes.create (min 1024 (stop - from)) in
  let h = ref fnv_basis and pos = ref from in
  while !pos < stop do
    let n = min (Bytes.length window) (stop - !pos) in
    Buffer.blit b !pos window 0 n;
    for i = 0 to n - 1 do
      h := fnv_step !h (Bytes.unsafe_get window i)
    done;
    pos := !pos + n
  done;
  let h = !h in
  Buffer.add_string b sep;
  for k = 0 to 15 do
    Buffer.add_char b (digest_digit h k)
  done

(* ------------------------------------------------------------ job codec *)

let float_tok tok =
  match float_of_string_opt tok with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad float %S" tok)

let int_tok tok =
  match int_of_string_opt tok with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad int %S" tok)

let ( let* ) = Result.bind

(* Parse a job from the token list; returns the job and the unconsumed
   tail (records may carry tokens after the job). *)
let job_of_tokens tokens =
  match tokens with
  | "J" :: id :: weight :: release :: due :: community :: shape ->
    let* id = int_tok id in
    let* weight = float_tok weight in
    let* release = float_tok release in
    let* due = if due = "-" then Ok None else Result.map Option.some (float_tok due) in
    let* community = int_tok community in
    let* res, shape =
      match shape with
      | "V" :: memory :: bandwidth :: rest ->
        let* memory = int_tok memory in
        let* bandwidth = int_tok bandwidth in
        Ok (Psched_platform.Resource.make ~memory ~bandwidth (), rest)
      | _ -> Ok (Psched_platform.Resource.zero, shape)
    in
    let* shape, rest =
      match shape with
      | "R" :: procs :: time :: rest ->
        let* procs = int_tok procs in
        let* time = float_tok time in
        Ok (Job.Rigid { procs; time }, rest)
      | "M" :: min_procs :: k :: rest ->
        let* min_procs = int_tok min_procs in
        let* k = int_tok k in
        if List.length rest < k then Error "truncated moldable times"
        else
          let* times =
            List.fold_left
              (fun acc tok ->
                let* acc = acc in
                let* v = float_tok tok in
                Ok (v :: acc))
              (Ok [])
              (List.filteri (fun i _ -> i < k) rest)
          in
          let times = Array.of_list (List.rev times) in
          Ok (Job.Moldable { min_procs; times }, List.filteri (fun i _ -> i >= k) rest)
      | "D" :: work :: rest ->
        let* work = float_tok work in
        Ok (Job.Divisible { work }, rest)
      | "P" :: count :: unit_time :: rest ->
        let* count = int_tok count in
        let* unit_time = float_tok unit_time in
        Ok (Job.Multiparam { count; unit_time }, rest)
      | _ -> Error "bad job shape"
    in
    (match Job.make ~weight ~release ?due ~community ~res ~id shape with
    | job -> Ok (job, rest)
    | exception Invalid_argument msg -> Error msg)
  | _ -> Error "bad job encoding"

(* --------------------------------------------------------- record codec *)

let origin_of_tok = function
  | "a" -> Ok true
  | "r" -> Ok false
  | tok -> Error (Printf.sprintf "bad origin tag %S" tok)

let payload_of_tokens tokens =
  match tokens with
  | "admit" :: origin :: rest ->
    let* arrival = origin_of_tok origin in
    let* job, tail = job_of_tokens rest in
    if tail <> [] then Error "trailing tokens after admit"
    else Ok (Admit { job; arrival })
  | [ "decide"; job_id; start; procs; duration ] ->
    let* job_id = int_tok job_id in
    let* start = float_tok start in
    let* procs = int_tok procs in
    let* duration = float_tok duration in
    Ok (Decide { job_id; start; procs; duration })
  | "shed" :: reason :: origin :: requeue :: rest ->
    let* arrival = origin_of_tok origin in
    let* requeue = float_tok requeue in
    let* job, tail = job_of_tokens rest in
    if tail <> [] then Error "trailing tokens after shed"
    else Ok (Shed { job; reason; arrival; requeue })
  | [ "outage"; start; duration; procs ] ->
    let* start = float_tok start in
    let* duration = float_tok duration in
    let* procs = int_tok procs in
    Ok (Outage { start; duration; procs })
  | [ "kill"; job_id; wasted; requeue ] ->
    let* job_id = int_tok job_id in
    let* wasted = float_tok wasted in
    let* requeue = float_tok requeue in
    Ok (Kill { job_id; wasted; requeue })
  | kind :: _ -> Error (Printf.sprintf "unknown record kind %S" kind)
  | [] -> Error "empty record"

let add_payload b = function
  | Admit { job; arrival } ->
    Buffer.add_string b (if arrival then "admit a " else "admit r ");
    add_job b job
  | Decide { job_id; start; procs; duration } ->
    Buffer.add_string b "decide";
    int_field b job_id;
    hex_field b start;
    int_field b procs;
    hex_field b duration
  | Shed { job; reason; arrival; requeue } ->
    Buffer.add_string b "shed ";
    Buffer.add_string b reason;
    Buffer.add_string b (if arrival then " a" else " r");
    hex_field b requeue;
    Buffer.add_char b ' ';
    add_job b job
  | Outage { start; duration; procs } ->
    Buffer.add_string b "outage";
    hex_field b start;
    hex_field b duration;
    int_field b procs
  | Kill { job_id; wasted; requeue } ->
    Buffer.add_string b "kill";
    int_field b job_id;
    hex_field b wasted;
    hex_field b requeue

(* One log line, without its newline, at the end of [b]. *)
let add_line b ~seq ~clock record =
  let from = Buffer.length b in
  add_int b seq;
  hex_field b clock;
  Buffer.add_char b ' ';
  add_payload b record;
  add_checksum b ~from " #"

let encode ~seq ~clock record =
  let b = Buffer.create 128 in
  add_line b ~seq ~clock record;
  Buffer.contents b

type entry = { seq : int; clock : float; record : record }

(* The blanks [String.trim] removes. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Scanning helpers over [s.[i] .. s.[stop - 1]]; top-level so the
   per-line path allocates no closures. *)
let rec skip_blanks s i stop = if i < stop && is_space s.[i] then skip_blanks s (i + 1) stop else i

let rec trim_blanks s start stop =
  if stop > start && is_space s.[stop - 1] then trim_blanks s start (stop - 1) else stop

(* Like [skip_blanks], but stops at the end of the line. *)
let rec skip_line_blanks s i stop =
  if i < stop && s.[i] <> '\n' && is_space s.[i] then skip_line_blanks s (i + 1) stop else i

let rec find_char s c i stop = if i >= stop || s.[i] = c then i else find_char s c (i + 1) stop

let rec find_char_not s c i stop =
  if i < stop && s.[i] = c then find_char_not s c (i + 1) stop else i

(* [s.[pos] .. s.[pos + 15]] spells the digest [h]. *)
let rec digest_matches s pos h k =
  k = 16 || (s.[pos + k] = digest_digit h k && digest_matches s pos h (k + 1))

(* One pass over the line that starts at [first] and ends at the first
   '\n' or at [stop], hashing as it goes.  Returns the end of the line
   and its framing verdict: the last '#' must follow a space, and the
   text after it, blanks trimmed, must spell the FNV-1a/64 digest of
   everything from [first] up to that " #", whose position is returned. *)
let frame_line s ~first ~stop =
  let h = ref fnv_basis and before_space = ref fnv_basis and body = ref fnv_basis in
  let hash = ref (-1) and j = ref first in
  while !j < stop && String.unsafe_get s !j <> '\n' do
    let c = String.unsafe_get s !j in
    if c = ' ' then before_space := !h
    else if c = '#' then begin
      hash := !j;
      body := !before_space
    end;
    h := fnv_step !h c;
    incr j
  done;
  let eol = !j and i = !hash in
  let verdict =
    if i < 0 then Error "no checksum"
    else if i < first + 1 || s.[i - 1] <> ' ' then Error "no checksum separator"
    else
      let last = trim_blanks s i eol in
      let a = skip_blanks s (i + 1) last in
      if last - a = 16 && digest_matches s a !body 0 then Ok (i - 1)
      else Error "checksum mismatch"
  in
  (eol, verdict)

let entry_of_body body =
  match String.split_on_char ' ' body |> List.filter (fun s -> s <> "") with
  | seq :: clock :: payload ->
    let* seq = int_tok seq in
    let* clock = float_tok clock in
    let* record = payload_of_tokens payload in
    Ok { seq; clock; record }
  | _ -> Error "truncated header"

let decode line =
  let len = String.length line in
  match frame_line line ~first:0 ~stop:len with
  | eol, _ when skip_blanks line eol len < len -> Error "line break inside the record"
  | _, Error reason -> Error reason
  | _, Ok body_end -> entry_of_body (String.sub line 0 body_end)

(* The seq of the body [s.[first] .. s.[body_end - 1]], with the error
   [entry_of_body] would report first for a bad header. *)
let leading_seq s ~first ~body_end =
  let a = find_char_not s ' ' first body_end in
  let b = find_char s ' ' a body_end in
  if find_char_not s ' ' b body_end >= body_end then Error "truncated header"
  else int_tok (String.sub s a (b - a))

(* -------------------------------------------------------------- writer *)

(* [buf] holds the record being written; it is cleared, not reallocated,
   between records. *)
type writer = {
  oc : out_channel;
  fd : Unix.file_descr;
  sync : bool;
  buf : Buffer.t;
  mutable seq : int;
}

let magic = "psched-wal/1"

let create ?(sync = false) path =
  let oc = open_out path in
  output_string oc magic;
  output_char oc '\n';
  flush oc;
  { oc; fd = Unix.descr_of_out_channel oc; sync; buf = Buffer.create 256; seq = 0 }

let open_append ?(sync = false) path ~last_seq =
  let existed =
    Sys.file_exists path && (try (Unix.stat path).Unix.st_size > 0 with Unix.Unix_error _ -> false)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if not existed then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc
  end;
  { oc; fd = Unix.descr_of_out_channel oc; sync; buf = Buffer.create 256; seq = last_seq }

let append w ~clock record =
  w.seq <- w.seq + 1;
  Buffer.clear w.buf;
  add_line w.buf ~seq:w.seq ~clock record;
  Buffer.add_char w.buf '\n';
  Buffer.output_buffer w.oc w.buf;
  (* Flush every record: a kill -9 can then tear at most the final
     line, which replay detects and drops.  fsync is opt-in — it makes
     the record durable against power loss (its cost per append is the
     benchmark's wal.sync_append_us). *)
  flush w.oc;
  if w.sync then Unix.fsync w.fd;
  w.seq

let seq w = w.seq
let close w = close_out w.oc

(* -------------------------------------------------------------- replay *)

type torn = { line : int; offset : int; reason : string }
type scan = { entries : entry list; torn : torn option; last_seq : int }

let torn_at acc last_seq line offset reason =
  { entries = List.rev acc; torn = Some { line; offset; reason }; last_seq }

let scan_string ?after text =
  let len = String.length text in
  let skip seq = match after with Some a -> seq <= a | None -> false in
  (* Valid prefix semantics: the first unusable line ends the log
     (everything after a torn record is unreachable — the daemon never
     wrote past a failed append), so later lines are not scavenged.
     [offset] is the byte position of the torn line: recovery truncates
     the file there so the continuation appends after the last valid
     record, leaving no garbage in the middle. *)
  let rec go lineno offset acc last_seq =
    if offset > len then { entries = List.rev acc; torn = None; last_seq }
    else
      let a = skip_line_blanks text offset len in
      if a = len || text.[a] = '\n' then
        (* A trailing blank line is normal (final newline); blank lines
           between records mean truncation. *)
        if skip_blanks text a len = len then { entries = List.rev acc; torn = None; last_seq }
        else torn_at acc last_seq lineno offset "blank line inside the log"
      else
        let eol, verdict = frame_line text ~first:a ~stop:len in
        if lineno = 1 && String.sub text a (trim_blanks text a eol - a) = magic then
          go 2 (eol + 1) acc last_seq
        else
          match verdict with
          | Error reason -> torn_at acc last_seq lineno offset reason
          | Ok body_end -> (
            match leading_seq text ~first:a ~body_end with
            | Error reason -> torn_at acc last_seq lineno offset reason
            | Ok seq when skip seq -> go (lineno + 1) (eol + 1) acc (max last_seq seq)
            | Ok _ -> (
              match entry_of_body (String.sub text a (body_end - a)) with
              | Ok e -> go (lineno + 1) (eol + 1) (e :: acc) (max last_seq e.seq)
              | Error reason -> torn_at acc last_seq lineno offset reason))
  in
  go 1 0 [] 0

let scan ?after path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = in_channel_length ic in
        Ok (scan_string ?after (really_input_string ic n)))

let replay path = Result.map (fun s -> (s.entries, s.torn)) (scan path)
