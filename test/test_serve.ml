(* The daemon: wire protocol, retry policy, spool, admission control,
   supervision, drain.  Real sockets, in-process server (the event loop
   runs in a spawned domain; jobs route with domains=1). *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- scratch dirs ------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  (* Keep the path short: the socket lives inside and sun_path is
     capped around 100 bytes. *)
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bgrsv%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let plan_of s =
  match Fault.parse_plan s with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse_plan %S: %s" s m

(* --- the example design ------------------------------------------------ *)

let mini_input = lazy (Suite.mini ()).Suite.input

let mini_text =
  lazy
    (let input = Lazy.force mini_input in
     let fp = Flow.floorplan_of_input input in
     Design_io.to_string ~floorplan:fp ~constraints:input.Flow.constraints input.Flow.netlist)

let mini_hash =
  lazy
    (let options = { Router.default_options with Router.domains = 1 } in
     (Flow.run ~options (Lazy.force mini_input)).Flow.o_measurement.Flow.m_deletion_hash)

(* --- wire round trips -------------------------------------------------- *)

let extract_frame s ~pos = Frame.extract ~phase:"serve" ~max_len:Wire.max_payload s ~pos

let roundtrip_request r =
  let f = Wire.encode_request r in
  match extract_frame f ~pos:0 with
  | Frame.Frame (payload, used) ->
    checki "whole frame" (String.length f) used;
    (match Wire.decode_request payload with
    | Ok r' -> checkb "request round trip" true (r = r')
    | Error e -> Alcotest.failf "decode: %s" e.Bgr_error.message)
  | _ -> Alcotest.fail "frame extraction"

let roundtrip_reply r =
  let f = Wire.encode_reply r in
  match extract_frame f ~pos:0 with
  | Frame.Frame (payload, _) -> (
    match Wire.decode_reply payload with
    | Ok r' -> checkb "reply round trip" true (r = r')
    | Error e -> Alcotest.failf "decode: %s" e.Bgr_error.message)
  | _ -> Alcotest.fail "frame extraction"

let test_wire_roundtrip () =
  List.iter roundtrip_request
    [ Wire.Route
        { wait = true;
          progress = false;
          timing_driven = false;
          deadline_ms = Some 1500;
          name = Some "j1";
          design = "rows 4\n" };
      Wire.Route
        { wait = true;
          progress = true;
          timing_driven = true;
          deadline_ms = None;
          name = None;
          design = "" };
      Wire.Resume { wait = true; progress = false; job = "job-000007" };
      Wire.Resume { wait = true; progress = true; job = "job-000008" };
      Wire.Analyze { job = "a.b-c_d" };
      Wire.Status { job = None };
      Wire.Status { job = Some "x" };
      Wire.Shutdown;
      Wire.Cancel { job = "job-000009" };
      Wire.Revive { wait = true; force = false; job = "doomed" };
      Wire.Revive { wait = false; force = true; job = "poison" };
      Wire.Watch { job = "job-000010" };
      Wire.Stats { prom = false };
      Wire.Stats { prom = true } ];
  List.iter roundtrip_reply
    [ Wire.Accepted { job = "job-000001" };
      Wire.Result { job = "j"; ok = true; json = "{\"ok\":true}" };
      Wire.Result { job = "j"; ok = false; json = "{}" };
      Wire.Rerror { code = "parse"; message = "bad frame" };
      Wire.Overloaded { reason = "queue full"; depth = 16; cap = 16 };
      Wire.Info { json = "{}" };
      Wire.Progress { job = "j"; seq = 1; json = "{\"phase\":\"route\"}" };
      Wire.Progress { job = "j"; seq = 0xFFFFFF; json = "" };
      Wire.Rstats { prom = true; body = "# TYPE x counter\nx 1\n" };
      Wire.Rstats { prom = false; body = "{}" } ]

let test_wire_malformed () =
  (* trailing bytes after a well-formed body *)
  let f = Wire.encode_request Wire.Shutdown in
  (match extract_frame f ~pos:0 with
  | Frame.Frame (payload, _) -> (
    match Wire.decode_request (payload ^ "x") with
    | Error e ->
      checkb "crc fails first on appended garbage... decode rejects trailing" true
        (e.Bgr_error.code = Bgr_error.Parse)
    | Ok _ -> Alcotest.fail "trailing bytes accepted")
  | _ -> Alcotest.fail "frame");
  (* unknown opcodes, both directions *)
  (match Wire.decode_request "\x7fjunk" with
  | Error e -> checkb "unknown request opcode is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "opcode 0x7f accepted");
  (match Wire.decode_reply "\x10" with
  | Error e -> checkb "unknown reply opcode is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "reply opcode 0x10 accepted");
  (* truncated bodies *)
  (match Wire.decode_request "\x01\x00" with
  | Error e -> checkb "truncated route body is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "truncated body accepted");
  (* watch with a job length that overruns the payload *)
  (match Wire.decode_request "\x08\x00\x00\x00\x10abc" with
  | Error e -> checkb "truncated watch is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "truncated watch accepted");
  (* stats with a missing flag byte, and with trailing bytes *)
  (match Wire.decode_request "\x09" with
  | Error e -> checkb "flagless stats is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "flagless stats accepted");
  (match Wire.decode_request "\x09\x01zzz" with
  | Error e -> checkb "stats trailing bytes is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "stats trailing bytes accepted");
  (* a truncated progress frame on the reply side: the seq/json are cut *)
  (match Wire.decode_reply "\x86\x00\x00\x00\x01j\x00\x00" with
  | Error e -> checkb "truncated progress is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "truncated progress accepted");
  (* rstats with the body length overrunning the payload *)
  match Wire.decode_reply "\x87\x01\x00\x00\x00\x40x" with
  | Error e -> checkb "truncated rstats is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "truncated rstats accepted"

let test_extract_frame () =
  let f = Wire.encode_request (Wire.Status { job = None }) in
  (* byte-at-a-time: Need until the last byte *)
  for i = 0 to String.length f - 1 do
    match extract_frame (String.sub f 0 i) ~pos:0 with
    | Frame.Need n -> checkb "need is positive" true (n > 0)
    | _ -> Alcotest.failf "prefix %d should be Need" i
  done;
  (match extract_frame (f ^ f) ~pos:0 with
  | Frame.Frame (_, used) -> (
    match extract_frame (f ^ f) ~pos:used with
    | Frame.Frame (_, used') -> checki "second frame" (String.length f) used'
    | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame");
  (* CRC damage *)
  let damaged = Bytes.of_string f in
  Bytes.set damaged (Bytes.length damaged - 1)
    (Char.chr (Char.code (Bytes.get damaged (Bytes.length damaged - 1)) lxor 0xFF));
  (match extract_frame (Bytes.to_string damaged) ~pos:0 with
  | Frame.Bad e -> checkb "crc damage is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | _ -> Alcotest.fail "damaged CRC accepted");
  (* oversized declared length rejected before the body arrives *)
  let oversized = "\x20\x00\x00\x00" in
  match extract_frame oversized ~pos:0 with
  | Frame.Bad e -> checkb "oversized is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | _ -> Alcotest.fail "oversized length accepted"

(* QCheck: encode/decode is the identity over generated messages (the
   generators emit only normalized values — no [Some ""] name, no
   [Some 0] deadline — because decoding normalizes those). *)

let gen_small_string = QCheck.Gen.(string_size ~gen:printable (int_range 0 24))

let gen_id =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; 'A'; '0'; '9'; '_'; '-'; '.' ]) (int_range 1 12))

let gen_request =
  QCheck.Gen.(
    oneof
      [ (fun st ->
          let wait = bool st and timing_driven = bool st in
          let deadline_ms = (oneof [ return None; map Option.some (int_range 1 1_000_000) ]) st in
          let name = (oneof [ return None; map Option.some gen_id ]) st in
          let design = gen_small_string st in
          let progress = wait && bool st in
          Wire.Route { wait; progress; timing_driven; deadline_ms; name; design });
        (fun st ->
          let wait = bool st in
          Wire.Resume { wait; progress = (wait && bool st); job = gen_id st });
        (fun st -> Wire.Analyze { job = gen_id st });
        (fun st ->
          Wire.Status { job = (oneof [ return None; map Option.some gen_id ]) st });
        return Wire.Shutdown;
        (fun st -> Wire.Cancel { job = gen_id st });
        (fun st -> Wire.Revive { wait = bool st; force = bool st; job = gen_id st });
        (fun st -> Wire.Watch { job = gen_id st });
        (fun st -> Wire.Stats { prom = bool st }) ])

let gen_reply =
  QCheck.Gen.(
    oneof
      [ (fun st -> Wire.Accepted { job = gen_id st });
        (fun st -> Wire.Result { job = gen_id st; ok = bool st; json = gen_small_string st });
        (fun st -> Wire.Rerror { code = gen_id st; message = gen_small_string st });
        (fun st ->
          Wire.Overloaded
            { reason = gen_small_string st;
              depth = int_range 0 0xFFFFFF st;
              cap = int_range 0 0xFFFFFF st });
        (fun st -> Wire.Info { json = gen_small_string st });
        (fun st ->
          Wire.Progress
            { job = gen_id st; seq = int_range 0 0xFFFFFF st; json = gen_small_string st });
        (fun st -> Wire.Rstats { prom = bool st; body = gen_small_string st }) ])

let gen_margin =
  QCheck.Gen.(
    oneofl [ 0.0; -12.5; 3.25; 1e9; -1e9; Float.nan; Float.infinity; Float.neg_infinity ])

let gen_event =
  QCheck.Gen.(
    oneof
      [ (fun st ->
          Worker.Heartbeat
            { phase = gen_small_string st;
              pass = int_range 0 0xFFFFFF st;
              deletions = int_range 0 0xFFFFFF st;
              worst_margin_ps = gen_margin st });
        (fun st -> Worker.Done { json = gen_small_string st });
        (fun st -> Worker.Fail { code = gen_id st; message = gen_small_string st });
        (fun st -> Worker.Obs_summary { json = gen_small_string st }) ])

(* Structural [=] is wrong for events carrying a float (nan <> nan);
   compare margins by bit pattern instead. *)
let event_eq a b =
  match (a, b) with
  | ( Worker.Heartbeat { phase; pass; deletions; worst_margin_ps },
      Worker.Heartbeat
        { phase = phase'; pass = pass'; deletions = deletions'; worst_margin_ps = m' } ) ->
    phase = phase' && pass = pass' && deletions = deletions'
    && Int64.equal (Int64.bits_of_float worst_margin_ps) (Int64.bits_of_float m')
  | a, b -> a = b

let frame_roundtrip_with ~eq encode extract_decode v =
  let f = encode v in
  match extract_frame f ~pos:0 with
  | Frame.Frame (payload, used) -> (
    used = String.length f
    && match extract_decode payload with Ok v' -> eq v v' | Error _ -> false)
  | _ -> false

let frame_roundtrip_ok encode extract_decode v =
  frame_roundtrip_with ~eq:( = ) encode extract_decode v

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round trip" ~count:500
    (QCheck.make gen_request)
    (frame_roundtrip_ok Wire.encode_request (fun p ->
         Result.map_error (fun _ -> ()) (Wire.decode_request p)))

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply encode/decode round trip" ~count:500 (QCheck.make gen_reply)
    (frame_roundtrip_ok Wire.encode_reply (fun p ->
         Result.map_error (fun _ -> ()) (Wire.decode_reply p)))

let prop_event_roundtrip =
  QCheck.Test.make ~name:"worker event encode/decode round trip" ~count:500
    (QCheck.make gen_event)
    (frame_roundtrip_with ~eq:event_eq Worker.encode_event (fun p ->
         Result.map_error (fun _ -> ()) (Worker.decode_event p)))

(* worker pipe frames: fixed cases plus defensive decoding *)

let test_worker_event_cases () =
  List.iter
    (fun ev ->
      let f = Worker.encode_event ev in
      match extract_frame f ~pos:0 with
      | Frame.Frame (payload, used) ->
        checki "whole frame" (String.length f) used;
        (match Worker.decode_event payload with
        | Ok ev' -> checkb "event round trip" true (event_eq ev ev')
        | Error e -> Alcotest.failf "decode: %s" e.Bgr_error.message)
      | _ -> Alcotest.fail "frame extraction")
    [ Worker.Heartbeat { phase = ""; pass = 0; deletions = 0; worst_margin_ps = 0.0 };
      Worker.Heartbeat
        { phase = "reroute"; pass = 12; deletions = 123456; worst_margin_ps = -42.75 };
      Worker.Heartbeat
        { phase = "route"; pass = 1; deletions = 0; worst_margin_ps = Float.nan };
      Worker.Obs_summary { json = "{\"spans\":[]}" };
      Worker.Done { json = "{}" };
      Worker.Done { json = String.make 4096 'x' };
      Worker.Fail { code = "oom"; message = "worker ran out of memory" };
      Worker.Fail { code = ""; message = "" } ];
  (match Worker.decode_event "" with
  | Error e -> checkb "empty event is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "empty event accepted");
  (match Worker.decode_event "\x7f" with
  | Error e -> checkb "unknown event opcode is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "unknown event opcode accepted");
  match Worker.decode_event "\xc2\x00\x00\x00" with
  | Error e -> checkb "truncated event is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | Ok _ -> Alcotest.fail "truncated event accepted"

(* frame length cap: exactly-at-cap accepted, one past rejected *)

let be32 v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (v land 0xFF));
  Bytes.to_string b

let test_frame_cap_edges () =
  (* a header declaring exactly the cap asks for more bytes... *)
  (match extract_frame (be32 Wire.max_payload) ~pos:0 with
  | Frame.Need n -> checki "needs payload + crc" (Wire.max_payload + 4) n
  | _ -> Alcotest.fail "at-cap header rejected");
  (* ...and the complete at-cap frame decodes *)
  let payload = String.make Wire.max_payload 'a' in
  let frame = be32 Wire.max_payload ^ payload ^ be32 (Crc32.string payload) in
  (match extract_frame frame ~pos:0 with
  | Frame.Frame (p, used) ->
    checki "used the whole frame" (String.length frame) used;
    checki "payload intact" Wire.max_payload (String.length p)
  | _ -> Alcotest.fail "at-cap frame rejected");
  (* one byte past the cap is refused from the header alone *)
  (match extract_frame (be32 (Wire.max_payload + 1)) ~pos:0 with
  | Frame.Bad e -> checkb "over-cap is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
  | _ -> Alcotest.fail "over-cap header accepted");
  (* the zero-length payload is a frame, not a protocol error... *)
  match extract_frame (be32 0 ^ be32 (Crc32.string "")) ~pos:0 with
  | Frame.Frame (p, used) ->
    checki "empty frame used" 8 used;
    checki "empty payload" 0 (String.length p);
    (* ...and the decoder refuses the empty body downstream *)
    (match Wire.decode_request p with
    | Error e -> checkb "empty body is Parse" true (e.Bgr_error.code = Bgr_error.Parse)
    | Ok _ -> Alcotest.fail "empty request body accepted")
  | _ -> Alcotest.fail "empty frame rejected"

let test_job_ids () =
  List.iter
    (fun id -> checkb id true (Wire.valid_job_id id))
    [ "job-000001"; "a"; "X9"; "_x"; "a.b-c_d"; String.make 64 'a' ];
  List.iter
    (fun id -> checkb ("bad " ^ id) false (Wire.valid_job_id id))
    [ ""; "-x"; ".x"; "a b"; "a/b"; "../etc"; String.make 65 'a' ]

(* --- retry policy (injected sleep: the schedule must be exact) --------- *)

let test_retry_schedule () =
  let slept = ref [] in
  let sleep ms = slept := ms :: !slept in
  let fail_always ~attempt:_ =
    Error (Bgr_error.make Bgr_error.Io_error "disk hiccup")
  in
  let o = Retry.run ~max_attempts:4 ~base_ms:100.0 ~sleep_ms:sleep fail_always in
  checki "four attempts" 4 o.Retry.attempts;
  checkb "still failed" true (Result.is_error o.Retry.result);
  check
    Alcotest.(list (float 0.0))
    "deterministic doubling" [ 100.0; 200.0; 400.0 ] o.Retry.slept_ms;
  check Alcotest.(list (float 0.0)) "recorder agrees" [ 400.0; 200.0; 100.0 ] !slept;
  (* second run: identical schedule (no jitter) *)
  let o2 = Retry.run ~max_attempts:4 ~base_ms:100.0 ~sleep_ms:ignore fail_always in
  check Alcotest.(list (float 0.0)) "reproducible" o.Retry.slept_ms o2.Retry.slept_ms

let test_retry_success_and_default () =
  let succeed_on n ~attempt =
    if attempt >= n then Ok attempt else Error (Bgr_error.make Bgr_error.Fault "injected")
  in
  let o = Retry.run ~base_ms:250.0 ~sleep_ms:ignore (succeed_on 2) in
  checki "default is one bounded retry" 2 o.Retry.attempts;
  checkb "succeeded" true (o.Retry.result = Ok 2);
  check Alcotest.(list (float 0.0)) "one backoff" [ 250.0 ] o.Retry.slept_ms;
  (* default budget refuses a third attempt *)
  let o = Retry.run ~sleep_ms:ignore (succeed_on 3) in
  checki "capped at two" 2 o.Retry.attempts;
  checkb "failed" true (Result.is_error o.Retry.result)

let test_retry_non_retryable () =
  List.iter
    (fun code ->
      let o =
        Retry.run ~max_attempts:5 ~sleep_ms:(fun _ -> Alcotest.fail "must not sleep")
          (fun ~attempt:_ -> Error (Bgr_error.make code "hopeless"))
      in
      checki (Bgr_error.code_name code ^ " gets one attempt") 1 o.Retry.attempts;
      check Alcotest.(list (float 0.0)) "no backoff" [] o.Retry.slept_ms)
    [ Bgr_error.Parse; Bgr_error.Validate; Bgr_error.Geometry; Bgr_error.Unroutable;
      Bgr_error.Deadline; Bgr_error.Internal ];
  checkb "fault is retryable" true (Retry.retryable Bgr_error.Fault);
  checkb "io is retryable" true (Retry.retryable Bgr_error.Io_error);
  Alcotest.check (Alcotest.float 0.0) "backoff formula" 2000.0
    (Retry.backoff_ms ~base_ms:250.0 ~attempt:4 ())

let test_retry_cap_and_jitter () =
  Alcotest.check (Alcotest.float 0.0) "cap bounds the doubling" 500.0
    (Retry.backoff_ms ~max_ms:500.0 ~base_ms:250.0 ~attempt:4 ());
  Alcotest.check (Alcotest.float 0.0) "cap leaves small backoffs alone" 250.0
    (Retry.backoff_ms ~max_ms:30_000.0 ~base_ms:250.0 ~attempt:1 ());
  let j = Retry.backoff_ms ~jitter_seed:42 ~base_ms:100.0 ~attempt:1 () in
  Alcotest.check (Alcotest.float 0.0) "jitter is deterministic" j
    (Retry.backoff_ms ~jitter_seed:42 ~base_ms:100.0 ~attempt:1 ());
  checkb "jitter within [base, 1.25*base)" true (j >= 100.0 && j < 125.0);
  Alcotest.check (Alcotest.float 0.0) "cap applies after jitter" 100.0
    (Retry.backoff_ms ~max_ms:100.0 ~jitter_seed:42 ~base_ms:100.0 ~attempt:1 ());
  let js =
    List.init 16 (fun s -> Retry.backoff_ms ~jitter_seed:s ~base_ms:100.0 ~attempt:1 ())
  in
  checkb "distinct seeds decorrelate" true (List.length (List.sort_uniq compare js) > 1)

let test_retry_giveup () =
  let fail ~attempt:_ = Error (Bgr_error.make Bgr_error.Fault "injected") in
  (* giveup lands during the backoff sleep: no further attempt *)
  let checks = ref 0 in
  let giveup () =
    incr checks;
    !checks >= 2
  in
  let o = Retry.run ~max_attempts:3 ~sleep_ms:ignore ~giveup fail in
  checki "stopped after the first backoff" 1 o.Retry.attempts;
  checkb "flagged as given up" true o.Retry.gave_up;
  checkb "still failed" true (Result.is_error o.Retry.result);
  (* giveup already pending before any retry *)
  let o = Retry.run ~max_attempts:3 ~sleep_ms:ignore ~giveup:(fun () -> true) fail in
  checki "one attempt" 1 o.Retry.attempts;
  checkb "gave up without sleeping" true o.Retry.gave_up;
  (* a success never reports gave_up, even with giveup pending *)
  let o = Retry.run ~max_attempts:3 ~sleep_ms:ignore ~giveup:(fun () -> true) (fun ~attempt -> Ok attempt) in
  checkb "success is success" true (o.Retry.result = Ok 1 && not o.Retry.gave_up);
  (* the default sleep is interruptible: giveup bounds a 60 s backoff *)
  let t0 = Unix.gettimeofday () in
  let giveup () = Unix.gettimeofday () -. t0 > 0.15 in
  let o = Retry.run ~max_attempts:2 ~base_ms:60_000.0 ~giveup fail in
  checkb "interrupted the 60 s backoff" true (Unix.gettimeofday () -. t0 < 10.0);
  checkb "gave up" true o.Retry.gave_up

(* --- spool ------------------------------------------------------------- *)

let test_spool_lifecycle () =
  let root = Filename.concat (fresh_dir ()) "spool" in
  let sp = Spool.open_root root in
  check Alcotest.string "first id" "job-000001" (Spool.fresh_id sp);
  let job =
    { Spool.j_id = "job-000001"; j_timing_driven = true; j_deadline_ms = Some 900;
      j_attempts = 0; j_kills = 0; j_last_kill = ""; j_kill_history = [] }
  in
  Spool.accept sp job ~design_text:"rows 1\n";
  checkb "exists" true (Spool.exists sp "job-000001");
  check Alcotest.string "next id skips it" "job-000002" (Spool.fresh_id sp);
  (match Spool.load_job sp "job-000001" with
  | Ok j -> checkb "manifest round trip" true (j = job)
  | Error e -> Alcotest.failf "load: %s" e.Bgr_error.message);
  (match Spool.scan sp with
  | [ j ] -> check Alcotest.string "scan finds it" "job-000001" j.Spool.j_id
  | l -> Alcotest.failf "scan found %d jobs" (List.length l));
  let job = Spool.record_attempt sp job in
  checki "attempt recorded" 1 job.Spool.j_attempts;
  checkb "attempt persisted" true
    ((Result.get_ok (Spool.load_job sp "job-000001")).Spool.j_attempts = 1);
  Spool.mark_done sp "job-000001" ~json:"{\"ok\":true}";
  (match Spool.state_of sp "job-000001" with
  | Some (Spool.Done json) -> check Alcotest.string "result json" "{\"ok\":true}" json
  | _ -> Alcotest.fail "not done");
  checki "done jobs drop out of scan" 0 (List.length (Spool.scan sp));
  (* a second job goes to the dead-letter dir and comes back *)
  let j2 = { job with Spool.j_id = "job-000002"; j_attempts = 2 } in
  Spool.accept sp j2 ~design_text:"rows 2\n";
  Spool.retire sp "job-000002" ~json:"{\"ok\":false}";
  (match Spool.state_of sp "job-000002" with
  | Some (Spool.Dead json) -> check Alcotest.string "error json" "{\"ok\":false}" json
  | _ -> Alcotest.fail "not dead");
  checkb "dead id still taken" true (Spool.exists sp "job-000002");
  (* attempts stay readable after retirement *)
  checki "dead manifest readable" 2
    ((Result.get_ok (Spool.load_job sp "job-000002")).Spool.j_attempts);
  (match Spool.revive sp "job-000002" with
  | Ok j -> checki "revive resets attempts" 0 j.Spool.j_attempts
  | Error e -> Alcotest.failf "revive: %s" e.Bgr_error.message);
  (match Spool.state_of sp "job-000002" with
  | Some (Spool.Pending _) -> ()
  | _ -> Alcotest.fail "revived job not pending");
  (* corrupt manifests are skipped with a warning, not a crash *)
  let oc = open_out (Filename.concat (Spool.job_dir sp "job-000002") Spool.job_file) in
  output_string oc "not a manifest\n";
  close_out oc;
  checki "corrupt manifest skipped" 0 (List.length (Spool.scan sp));
  checki "with a warning" 1 (List.length (Spool.scan_warnings sp))

let test_spool_kills_and_quarantine () =
  let root = Filename.concat (fresh_dir ()) "spool" in
  let sp = Spool.open_root root in
  let job =
    { Spool.j_id = "victim"; j_timing_driven = true; j_deadline_ms = None; j_attempts = 1;
      j_kills = 0; j_last_kill = ""; j_kill_history = [] }
  in
  Spool.accept sp job ~design_text:"rows 1\n";
  let job = Spool.record_kill sp job ~reason:"hang" in
  checki "kill counted" 1 job.Spool.j_kills;
  check Alcotest.string "reason kept" "hang" job.Spool.j_last_kill;
  (match Spool.load_job sp "victim" with
  | Ok j -> checkb "kill persisted" true (j.Spool.j_kills = 1 && j.Spool.j_last_kill = "hang")
  | Error e -> Alcotest.failf "load: %s" e.Bgr_error.message);
  let job = Spool.record_kill sp job ~reason:"signal-9" in
  checki "kills accumulate" 2 job.Spool.j_kills;
  checkb "kill history in order" true (job.Spool.j_kill_history = [ "hang"; "signal-9" ]);
  (match Spool.load_job sp "victim" with
  | Ok j ->
    checkb "kill history persisted" true (j.Spool.j_kill_history = [ "hang"; "signal-9" ])
  | Error e -> Alcotest.failf "load: %s" e.Bgr_error.message);
  Spool.quarantine sp "victim" ~json:"{\"code\":\"quarantined\"}";
  (match Spool.state_of sp "victim" with
  | Some (Spool.Quarantined json) ->
    check Alcotest.string "error json" "{\"code\":\"quarantined\"}" json
  | _ -> Alcotest.fail "not quarantined");
  checkb "id still taken" true (Spool.exists sp "victim");
  checki "the startup scan never requeues it" 0 (List.length (Spool.scan sp));
  (match Spool.load_job sp "victim" with
  | Ok j -> checkb "manifest readable from quarantine/" true (j.Spool.j_kills = 2)
  | Error e -> Alcotest.failf "load from quarantine: %s" e.Bgr_error.message);
  (match Spool.revive sp "victim" with
  | Error e ->
    checkb "unforced revive is Validate" true (e.Bgr_error.code = Bgr_error.Validate);
    checkb "and names the quarantine" true (contains e.Bgr_error.message "quarantine")
  | Ok _ -> Alcotest.fail "unforced revive of a quarantined job accepted");
  (match Spool.revive ~force:true sp "victim" with
  | Ok j ->
    checkb "forced revive resets all counters" true
      (j.Spool.j_attempts = 0 && j.Spool.j_kills = 0 && j.Spool.j_last_kill = ""
      && j.Spool.j_kill_history = [])
  | Error e -> Alcotest.failf "forced revive: %s" e.Bgr_error.message);
  match Spool.state_of sp "victim" with
  | Some (Spool.Pending _) -> ()
  | _ -> Alcotest.fail "revived job not pending"

let test_spool_manifest_compat () =
  (* a manifest from before the kill counters existed still parses... *)
  let dir = fresh_dir () in
  let oc = open_out (Filename.concat dir "JOB") in
  output_string oc "bgr-job 1\nid old\ntiming_driven true\ndeadline_ms 0\nattempts 1\n";
  close_out oc;
  (match Spool.read_manifest dir with
  | Ok j ->
    checki "attempts read" 1 j.Spool.j_attempts;
    checki "kills default to zero" 0 j.Spool.j_kills;
    check Alcotest.string "no last kill" "" j.Spool.j_last_kill
  | Error e -> Alcotest.failf "old manifest rejected: %s" e.Bgr_error.message);
  (* ...and a job that was never killed writes that identical old shape
     back, so a downgraded daemon can still read the spool *)
  let sp = Spool.open_root (Filename.concat dir "spool") in
  Spool.accept sp
    { Spool.j_id = "clean"; j_timing_driven = true; j_deadline_ms = None; j_attempts = 0;
      j_kills = 0; j_last_kill = ""; j_kill_history = [] }
    ~design_text:"rows 1\n";
  let text =
    let ic = open_in (Filename.concat (Spool.job_dir sp "clean") Spool.job_file) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  checkb "clean manifest has no kill lines" false (contains text "kills")

(* --- in-process servers ------------------------------------------------ *)

type server = { cfg : Serve.config; domain : (Serve.stats, exn) result Domain.t }

let start_server ?(cap = 8) ?(max_attempts = 2) ?(backoff_ms = 30.0) ?isolation
    ?heartbeat_timeout_ms ?(quarantine_kills = 3) ?(log = ignore) ?(tweak = Fun.id) root =
  let base =
    Serve.default_config
      ~socket_path:(Filename.concat root "s.sock")
      ~spool_root:(Filename.concat root "spool")
  in
  let cfg =
    { base with
      Serve.queue_cap = cap;
      max_attempts;
      backoff_base_ms = backoff_ms;
      job_domains = 1;
      isolation = Option.value isolation ~default:base.Serve.isolation;
      heartbeat_timeout_ms =
        Option.value heartbeat_timeout_ms ~default:base.Serve.heartbeat_timeout_ms;
      quarantine_kills;
      log }
  in
  let cfg = tweak cfg in
  let domain =
    Domain.spawn (fun () -> match Serve.run cfg with s -> Ok s | exception e -> Error e)
  in
  (* wait for the socket to appear *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists cfg.Serve.socket_path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  { cfg; domain }

let stop_server srv =
  (match Serve_client.connect srv.cfg.Serve.socket_path with
  | Ok c ->
    ignore (Serve_client.request ~timeout_s:10.0 c Wire.Shutdown);
    Serve_client.close c
  | Error _ -> ());
  match Domain.join srv.domain with
  | Ok stats -> stats
  | Error e -> Alcotest.failf "server died: %s" (Printexc.to_string e)

let client srv =
  (* the socket file appears at bind, a hair before listen: retry the
     refused-connection window instead of racing it *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Serve_client.connect srv.cfg.Serve.socket_path with
    | Ok c -> c
    | Error e when Unix.gettimeofday () < deadline ->
      ignore e;
      Unix.sleepf 0.02;
      go ()
    | Error e -> Alcotest.failf "connect: %s" e.Bgr_error.message
  in
  go ()

let rq ?(timeout_s = 60.0) c req =
  match Serve_client.request ~timeout_s c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "request: %s" e.Bgr_error.message

let submit_mini ?name ?(wait = false) ?(progress = false) () =
  Wire.Route
    { wait;
      progress;
      timing_driven = true;
      deadline_ms = None;
      name;
      design = Lazy.force mini_text }

(* --- worker isolation plumbing ----------------------------------------- *)

let serve_exe =
  lazy
    (let candidates =
       [ "../bin/bgr_serve.exe"; "_build/default/bin/bgr_serve.exe"; "bin/bgr_serve.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
     | None -> Alcotest.fail "bgr_serve.exe not found (build bin/ first)")

let workers_isolation () = Serve.Workers [| Lazy.force serve_exe; "worker" |]

(* Chaos plans reach worker subprocesses through the environment (each
   is a fresh process that loads BGR_FAULT_PLAN on first use).  The
   test process pins its own env-plan load first — [Fault.active]
   forces it — so only the workers see the plan. *)
let with_worker_fault_plan plan f =
  ignore (Fault.active ());
  Unix.putenv "BGR_FAULT_PLAN" plan;
  Fun.protect ~finally:(fun () -> Unix.putenv "BGR_FAULT_PLAN" "") f

let json_field json name =
  match Qjson.parse json with
  | Error m -> Alcotest.failf "bad json %s: %s" json m
  | Ok j -> Qjson.member name j

let hash_of_json json =
  match Option.bind (json_field json "deletion_hash") Qjson.to_str with
  | Some s -> int_of_string s
  | None -> Alcotest.failf "no deletion_hash in %s" json

(* --- end to end -------------------------------------------------------- *)

let test_end_to_end () =
  let root = fresh_dir () in
  let srv = start_server root in
  let c = client srv in
  (* route, wait, compare against the uninterrupted in-process hash *)
  (match rq c (submit_mini ~name:"mini" ~wait:true ()) with
  | Wire.Accepted { job } -> (
    check Alcotest.string "named job" "mini" job;
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "routed" true ok;
      checki "daemon hash = direct-run hash" (Lazy.force mini_hash) (hash_of_json json)
    | other -> Alcotest.failf "no result: %s" (match other with Error e -> e.Bgr_error.message | _ -> "wrong reply"))
  | _ -> Alcotest.fail "not accepted");
  (* duplicate name refused *)
  (match rq c (submit_mini ~name:"mini" ()) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "duplicate id" "validate" code
  | _ -> Alcotest.fail "duplicate name accepted");
  (* malformed design rejected at admission, nothing spooled *)
  (match
     rq c
       (Wire.Route
          { wait = false;
            progress = false;
            timing_driven = true;
            deadline_ms = None;
            name = Some "broken";
            design = "rows ???\n" })
   with
  | Wire.Rerror { code; _ } -> check Alcotest.string "parse reject" "parse" code
  | _ -> Alcotest.fail "garbage design accepted");
  checkb "nothing spooled for it" false
    (Sys.file_exists (Filename.concat srv.cfg.Serve.spool_root "jobs/broken"));
  (* job status, daemon status, analyze *)
  (match rq c (Wire.Status { job = Some "mini" }) with
  | Wire.Info { json } -> (
    match Option.bind (json_field json "state") Qjson.to_str with
    | Some s -> check Alcotest.string "state" "done" s
    | None -> Alcotest.fail "no state")
  | _ -> Alcotest.fail "status");
  (match rq c (Wire.Status { job = None }) with
  | Wire.Info { json } ->
    checkb "daemon status has depth" true (json_field json "queue_depth" <> None);
    checkb "daemon status counts worker kills" true (json_field json "worker_kills" <> None);
    checkb "daemon status carries obs warnings" true
      (match json_field json "obs_warnings" with Some (Qjson.Arr _) -> true | _ -> false)
  | _ -> Alcotest.fail "daemon status");
  (match rq c (Wire.Analyze { job = "mini" }) with
  | Wire.Info { json } -> (
    match Option.bind (json_field json "schema") Qjson.to_str with
    | Some s -> check Alcotest.string "quality schema" Quality.schema s
    | None -> Alcotest.fail "no schema")
  | _ -> Alcotest.fail "analyze");
  (* waiting on a finished job returns its stored result immediately *)
  (match rq c (Wire.Resume { wait = true; progress = false; job = "mini" }) with
  | Wire.Result { ok; json; _ } ->
    checkb "stored ok" true ok;
    checki "stored hash" (Lazy.force mini_hash) (hash_of_json json)
  | _ -> Alcotest.fail "resume of done job");
  (* unknown job *)
  (match rq c (Wire.Status { job = Some "nope" }) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "unknown job" "validate" code
  | _ -> Alcotest.fail "unknown job accepted");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "accepted" 1 stats.Serve.s_accepted;
  checki "completed" 1 stats.Serve.s_completed;
  checki "no failures" 0 stats.Serve.s_failed

(* --- admission control + retry under a transient fault ----------------- *)

let test_overload_and_retry () =
  let root = fresh_dir () in
  Fault.with_plan (plan_of "seed=3;serve.job:n=1") @@ fun () ->
  let srv = start_server ~cap:1 ~backoff_ms:500.0 root in
  let c = client srv in
  (* job A: first attempt trips the fault, the retry succeeds *)
  (match rq c (submit_mini ~name:"a" ~wait:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "A not accepted");
  (* while A retries (500 ms backoff), the queue is full: B is shed *)
  let c2 = client srv in
  (match rq c2 (submit_mini ~name:"b" ()) with
  | Wire.Overloaded { reason; depth; cap } ->
    check Alcotest.string "reason" "queue full" reason;
    checki "cap" 1 cap;
    checkb "depth at cap" true (depth >= 1)
  | _ -> Alcotest.fail "B was not shed");
  Serve_client.close c2;
  (match Serve_client.next_reply ~timeout_s:120.0 c with
  | Ok (Wire.Result { ok; json; _ }) ->
    checkb "A routed on retry" true ok;
    checki "hash still right" (Lazy.force mini_hash) (hash_of_json json);
    (match Option.bind (json_field json "attempts") Qjson.to_int with
    | Some a -> checki "two attempts" 2 a
    | None -> Alcotest.fail "no attempts field")
  | _ -> Alcotest.fail "A never finished");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "one retry" 1 stats.Serve.s_retried;
  checki "one rejection" 1 stats.Serve.s_rejected;
  checki "completed" 1 stats.Serve.s_completed

(* --- dead-letter + revive ---------------------------------------------- *)

let test_dead_letter_and_revive () =
  let root = fresh_dir () in
  (* life 1: every snapshot faults mid-route, so both attempts fail
     AFTER the journal exists — the retirement must keep it *)
  (Fault.with_plan (plan_of "persist.snapshot:always") @@ fun () ->
   let srv = start_server ~backoff_ms:10.0 root in
   let c = client srv in
   (match rq c (submit_mini ~name:"doomed" ~wait:true ()) with
   | Wire.Accepted _ -> (
     match Serve_client.next_reply ~timeout_s:60.0 c with
     | Ok (Wire.Result { ok; json; _ }) ->
       checkb "failed" false ok;
       (match Option.bind (json_field json "code") Qjson.to_str with
       | Some code -> check Alcotest.string "fault class" "fault" code
       | None -> Alcotest.fail "no code");
       (match Option.bind (json_field json "attempts") Qjson.to_int with
       | Some a -> checki "both attempts burned" 2 a
       | None -> Alcotest.fail "no attempts")
     | _ -> Alcotest.fail "no failure result")
   | _ -> Alcotest.fail "not accepted");
   Serve_client.close c;
   let stats = stop_server srv in
   checki "dead-lettered" 1 stats.Serve.s_failed;
   checki "retried once" 1 stats.Serve.s_retried);
  let dead = Filename.concat root "spool/dead/doomed" in
  checkb "dead dir" true (Sys.file_exists dead);
  checkb "ERROR recorded" true (Sys.file_exists (Filename.concat dead Spool.error_file));
  checkb "journal kept for post-mortem" true
    (Sys.file_exists (Filename.concat dead Persist.journal_file));
  (* life 2: no faults; resume revives it and it completes *)
  let srv = start_server root in
  let c = client srv in
  (match rq c (Wire.Resume { wait = true; progress = false; job = "doomed" }) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "revived and routed" true ok;
      checki "hash right after revival" (Lazy.force mini_hash) (hash_of_json json)
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "revive refused");
  Serve_client.close c;
  ignore (stop_server srv)

(* --- supervisor requeue ------------------------------------------------ *)

let test_supervisor_requeue () =
  let root = fresh_dir () in
  (* an accepted job from a previous life: spooled, never run *)
  let sp = Spool.open_root (Filename.concat root "spool") in
  Spool.accept sp
    { Spool.j_id = "leftover"; j_timing_driven = true; j_deadline_ms = None; j_attempts = 0;
      j_kills = 0; j_last_kill = ""; j_kill_history = [] }
    ~design_text:(Lazy.force mini_text);
  let srv = start_server root in
  let c = client srv in
  (match rq ~timeout_s:120.0 c (Wire.Resume { wait = true; progress = false; job = "leftover" }) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "leftover completed" true ok;
      checki "hash" (Lazy.force mini_hash) (hash_of_json json)
    | _ -> Alcotest.fail "no result")
  | Wire.Result { ok; json; _ } ->
    (* the supervisor may already have finished it *)
    checkb "leftover completed" true ok;
    checki "hash" (Lazy.force mini_hash) (hash_of_json json)
  | _ -> Alcotest.fail "leftover unknown to the daemon");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "requeued by the supervisor" 1 stats.Serve.s_requeued;
  checki "completed" 1 stats.Serve.s_completed

(* --- graceful drain ---------------------------------------------------- *)

let test_drain_keeps_queued_jobs () =
  let root = fresh_dir () in
  let stats =
    Fault.with_plan (plan_of "serve.job:n=1") @@ fun () ->
    (* the fault makes job A retry with a long backoff, holding the
       executor busy while B and C queue behind it *)
    let srv = start_server ~cap:8 ~backoff_ms:1500.0 root in
    let c = client srv in
    (match rq c (submit_mini ~name:"a" ~wait:true ()) with
    | Wire.Accepted _ -> ()
    | _ -> Alcotest.fail "A not accepted");
    let cb = client srv in
    (match rq cb (submit_mini ~name:"b" ~wait:true ()) with
    | Wire.Accepted _ -> ()
    | _ -> Alcotest.fail "B not accepted");
    (match rq cb (submit_mini ~name:"c" ()) with
    | Wire.Accepted _ -> ()
    | _ -> Alcotest.fail "C not accepted");
    (* drain: A is mid-backoff, so the drain interrupts the sleep and
       A stays spooled alongside B and C; both waiters are told so *)
    let cs = client srv in
    (match rq cs Wire.Shutdown with
    | Wire.Info _ -> ()
    | _ -> Alcotest.fail "shutdown refused");
    (* submissions during a drain are shed, not spooled *)
    (match rq cs (submit_mini ~name:"late" ()) with
    | Wire.Overloaded { reason; _ } -> check Alcotest.string "late is shed" "draining" reason
    | _ -> Alcotest.fail "late submission accepted during drain");
    Serve_client.close cs;
    (match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Rerror { code; _ }) -> check Alcotest.string "A's waiter told" "draining" code
    | _ -> Alcotest.fail "A's waiter not notified");
    (match Serve_client.next_reply ~timeout_s:30.0 cb with
    | Ok (Wire.Rerror { code; _ }) -> check Alcotest.string "B's waiter told" "draining" code
    | _ -> Alcotest.fail "B's waiter not notified");
    Serve_client.close c;
    Serve_client.close cb;
    match Domain.join srv.domain with
    | Ok stats -> stats
    | Error e -> Alcotest.failf "server died: %s" (Printexc.to_string e)
  in
  checki "nothing completed during drain" 0 stats.Serve.s_completed;
  checki "nothing dead-lettered" 0 stats.Serve.s_failed;
  (* all three survive on disk for the next daemon, which finishes them *)
  let sp = Spool.open_root (Filename.concat root "spool") in
  checki "three jobs still spooled" 3 (List.length (Spool.scan sp));
  let srv = start_server root in
  let c = client srv in
  (match rq c (Wire.Resume { wait = true; progress = false; job = "b" }) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; _ }) -> checkb "B finished in life 2" true ok
    | _ -> Alcotest.fail "B lost in life 2")
  | Wire.Result { ok; _ } -> checkb "B finished in life 2" true ok
  | _ -> Alcotest.fail "B unknown in life 2");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "life 2 requeued all three" 3 stats.Serve.s_requeued

(* --- the worker supervisor, against scripted fake workers -------------- *)

let write_feed dir name events =
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc Worker.magic;
  List.iter (fun e -> output_string oc (Worker.encode_event e)) events;
  close_out oc;
  Filename.quote path

let sh script = [| "/bin/sh"; "-c"; script |]

let test_supervise_well_behaved () =
  let dir = fresh_dir () in
  let feed =
    write_feed dir "ok"
      [ Worker.Heartbeat { phase = "route"; pass = 1; deletions = 7; worst_margin_ps = -3.5 };
        Worker.Done { json = "{\"ok\":true}" } ]
  in
  let beats = ref [] in
  let summary = ref None in
  (match
     Worker.supervise ~log:ignore
       ~on_progress:(fun p -> beats := p :: !beats)
       ~on_obs:(fun j -> summary := Some j)
       ~argv:(sh ("cat " ^ feed)) ()
   with
  | Ok json -> check Alcotest.string "done json" "{\"ok\":true}" json
  | Error _ -> Alcotest.fail "well-behaved worker misclassified");
  (match !beats with
  | [ p ] ->
    check Alcotest.string "phase" "route" p.Worker.p_phase;
    checki "pass" 1 p.Worker.p_pass;
    checki "deletions" 7 p.Worker.p_deletions;
    checkb "margin carried" true (p.Worker.p_worst_margin_ps = -3.5)
  | l -> Alcotest.failf "saw %d heartbeats" (List.length l));
  checkb "no obs summary from a plain worker" true (!summary = None);
  (* an obs summary frame reaches the supervisor's callback *)
  let feed =
    write_feed dir "obs"
      [ Worker.Obs_summary { json = "{\"spans\":[]}" }; Worker.Done { json = "{}" } ]
  in
  (match
     Worker.supervise ~log:ignore ~on_obs:(fun j -> summary := Some j)
       ~argv:(sh ("cat " ^ feed)) ()
   with
  | Ok _ -> check Alcotest.string "summary delivered" "{\"spans\":[]}"
              (Option.value !summary ~default:"<none>")
  | Error _ -> Alcotest.fail "obs-reporting worker misclassified");
  (* structured failure passes through verbatim *)
  let feed = write_feed dir "fail" [ Worker.Fail { code = "unroutable"; message = "no tracks" } ] in
  match Worker.supervise ~log:ignore ~argv:(sh ("cat " ^ feed)) () with
  | Error (Worker.Failed { code; message }) ->
    check Alcotest.string "code" "unroutable" code;
    check Alcotest.string "message" "no tracks" message
  | _ -> Alcotest.fail "structured failure misclassified"

let test_supervise_kills_and_exits () =
  let dir = fresh_dir () in
  let greeting = write_feed dir "greet" [] in
  (* exit without a result *)
  (match Worker.supervise ~log:ignore ~argv:(sh ("cat " ^ greeting ^ "; exit 3")) () with
  | Error (Worker.Failed { code; message }) ->
    check Alcotest.string "internal" "internal" code;
    checkb "names the exit code" true (contains message "code 3")
  | _ -> Alcotest.fail "silent exit misclassified");
  (* the OOM exit code classifies as an OOM kill even with no frame *)
  (match
     Worker.supervise ~log:ignore
       ~argv:(sh (Printf.sprintf "cat %s; exit %d" greeting Worker.oom_exit_code))
       ()
   with
  | Error (Worker.Killed { reason = Worker.Oom; _ }) -> ()
  | _ -> Alcotest.fail "oom exit misclassified");
  (* ...as does a reported oom frame *)
  let oom = write_feed dir "oom" [ Worker.Fail { code = "oom"; message = "out of memory" } ] in
  (match Worker.supervise ~log:ignore ~argv:(sh ("cat " ^ oom)) () with
  | Error (Worker.Killed { reason = Worker.Oom; _ }) -> ()
  | _ -> Alcotest.fail "oom frame misclassified");
  (* death by external signal *)
  (match Worker.supervise ~log:ignore ~argv:(sh ("cat " ^ greeting ^ "; kill -KILL $$")) () with
  | Error (Worker.Killed { reason = Worker.Signaled s; _ }) ->
    check Alcotest.string "posix signal number" "signal-9"
      (Worker.kill_reason_string (Worker.Signaled s))
  | _ -> Alcotest.fail "signal death misclassified");
  (* heartbeat silence: the watchdog kills within its timeout *)
  let t0 = Unix.gettimeofday () in
  (match
     Worker.supervise ~heartbeat_timeout_ms:300.0 ~log:ignore
       ~argv:(sh ("cat " ^ greeting ^ "; sleep 60")) ()
   with
  | Error (Worker.Killed { reason = Worker.Hang; _ }) ->
    checkb "killed promptly, not after 60 s" true (Unix.gettimeofday () -. t0 < 30.0)
  | _ -> Alcotest.fail "hang misclassified");
  (* hard wall deadline, heartbeats notwithstanding *)
  (match
     Worker.supervise ~heartbeat_timeout_ms:600_000.0 ~hard_deadline_ms:300.0 ~log:ignore
       ~argv:(sh ("cat " ^ greeting ^ "; sleep 60")) ()
   with
  | Error (Worker.Killed { reason = Worker.Hard_deadline; _ }) -> ()
  | _ -> Alcotest.fail "hard deadline misclassified");
  (* cancel request *)
  (match
     Worker.supervise ~canceled:(fun () -> true) ~log:ignore
       ~argv:(sh ("cat " ^ greeting ^ "; sleep 60")) ()
   with
  | Error (Worker.Killed { reason = Worker.Canceled; _ }) -> ()
  | _ -> Alcotest.fail "cancel misclassified");
  (* protocol garbage: killed, surfaced as an internal failure *)
  (match Worker.supervise ~log:ignore ~argv:(sh "printf 'GARBAGE!'; sleep 60") () with
  | Error (Worker.Failed { code; message }) ->
    check Alcotest.string "internal" "internal" code;
    checkb "says protocol" true (contains message "protocol")
  | _ -> Alcotest.fail "protocol garbage misclassified");
  (* a spawn fault surfaces as Spawn_error, not an exception *)
  Fault.with_plan (plan_of "serve.worker.spawn:always") @@ fun () ->
  match Worker.supervise ~log:ignore ~argv:(sh "true") () with
  | Error (Worker.Spawn_error _) -> ()
  | _ -> Alcotest.fail "spawn fault misclassified"

(* --- worker isolation, end to end -------------------------------------- *)

let test_worker_isolation_e2e () =
  let root = fresh_dir () in
  let srv = start_server ~isolation:(workers_isolation ()) root in
  let c = client srv in
  (match rq c (submit_mini ~name:"w" ~wait:true ()) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "routed in a worker" true ok;
      checki "worker hash = in-process hash" (Lazy.force mini_hash) (hash_of_json json);
      (match Option.bind (json_field json "attempts") Qjson.to_int with
      | Some a -> checki "one attempt" 1 a
      | None -> Alcotest.fail "no attempts field")
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "not accepted");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "no kills" 0 stats.Serve.s_killed;
  checki "completed" 1 stats.Serve.s_completed

let test_worker_hang_watchdog () =
  let root = fresh_dir () in
  with_worker_fault_plan "serve.worker.hang:n=1" @@ fun () ->
  let srv =
    start_server ~isolation:(workers_isolation ()) ~heartbeat_timeout_ms:1000.0 root
  in
  let c = client srv in
  (match rq c (submit_mini ~name:"hangs" ~wait:true ()) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "routed after the watchdog kill" true ok;
      checki "kill + resume left the hash alone" (Lazy.force mini_hash) (hash_of_json json);
      (match Option.bind (json_field json "attempts") Qjson.to_int with
      | Some a -> checki "the second attempt won" 2 a
      | None -> Alcotest.fail "no attempts field")
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "not accepted");
  (* the kill is on the job's record *)
  (match rq c (Wire.Status { job = Some "hangs" }) with
  | Wire.Info { json } ->
    (match Option.bind (json_field json "kills") Qjson.to_int with
    | Some k -> checki "one kill recorded" 1 k
    | None -> Alcotest.fail "no kills field");
    (match Option.bind (json_field json "last_kill") Qjson.to_str with
    | Some r -> check Alcotest.string "reason" "hang" r
    | None -> Alcotest.fail "no last_kill field");
    (match json_field json "kill_history" with
    | Some (Qjson.Arr [ Qjson.Str r ]) -> check Alcotest.string "history entry" "hang" r
    | _ -> Alcotest.fail "no kill_history field")
  | _ -> Alcotest.fail "status");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "one worker killed" 1 stats.Serve.s_killed;
  checki "one retry" 1 stats.Serve.s_retried;
  checki "completed anyway" 1 stats.Serve.s_completed

let test_worker_external_kill () =
  let root = fresh_dir () in
  with_worker_fault_plan "serve.worker.hang:n=1" @@ fun () ->
  (* the worker hangs (600 s watchdog): we kill -9 it from outside,
     like the OOM killer or an operator would *)
  let pid_box = ref None in
  let pid_mutex = Mutex.create () in
  let prefix = "job ext: worker pid " in
  let log line =
    if String.length line > String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then begin
      let pid =
        int_of_string
          (String.sub line (String.length prefix) (String.length line - String.length prefix))
      in
      Mutex.lock pid_mutex;
      if !pid_box = None then pid_box := Some pid;
      Mutex.unlock pid_mutex
    end
  in
  let srv =
    start_server ~isolation:(workers_isolation ()) ~heartbeat_timeout_ms:600_000.0 ~log root
  in
  let c = client srv in
  (match rq c (submit_mini ~name:"ext" ~wait:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "not accepted");
  let rec get_pid n =
    if n = 0 then Alcotest.fail "no worker pid logged";
    Mutex.lock pid_mutex;
    let p = !pid_box in
    Mutex.unlock pid_mutex;
    match p with
    | Some pid -> pid
    | None ->
      Unix.sleepf 0.05;
      get_pid (n - 1)
  in
  Unix.kill (get_pid 400) Sys.sigkill;
  (match Serve_client.next_reply ~timeout_s:120.0 c with
  | Ok (Wire.Result { ok; json; _ }) ->
    checkb "survived the murder" true ok;
    checki "hash intact" (Lazy.force mini_hash) (hash_of_json json);
    (match Option.bind (json_field json "attempts") Qjson.to_int with
    | Some a -> checki "second attempt" 2 a
    | None -> Alcotest.fail "no attempts field")
  | _ -> Alcotest.fail "no result");
  (match rq c (Wire.Status { job = Some "ext" }) with
  | Wire.Info { json } -> (
    match Option.bind (json_field json "last_kill") Qjson.to_str with
    | Some r -> check Alcotest.string "kill reason" "signal-9" r
    | None -> Alcotest.fail "no last_kill field")
  | _ -> Alcotest.fail "status");
  Serve_client.close c;
  let stats = stop_server srv in
  checki "one kill" 1 stats.Serve.s_killed;
  checki "completed" 1 stats.Serve.s_completed

(* A watchdog kill is preceded by a SIGQUIT dump request: the hung
   worker must leave its flight record in the job directory and the
   whole bundle must classify under bgr_analyze's postmortem. *)
let test_worker_flight_dump_on_kill () =
  let root = fresh_dir () in
  with_worker_fault_plan "serve.worker.hang:n=1" @@ fun () ->
  let lines = ref [] in
  let log_mutex = Mutex.create () in
  let log line =
    Mutex.lock log_mutex;
    lines := line :: !lines;
    Mutex.unlock log_mutex
  in
  let srv =
    start_server ~isolation:(workers_isolation ()) ~heartbeat_timeout_ms:1000.0 ~log root
  in
  let c = client srv in
  (match rq c (submit_mini ~name:"forensic" ~wait:true ()) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "retried to success after the kill" true ok;
      checki "kill + dump left the hash alone" (Lazy.force mini_hash) (hash_of_json json)
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "not accepted");
  let dir = Filename.concat srv.cfg.Serve.spool_root "jobs/forensic" in
  let flight = Filename.concat dir "flight-a1.bgrf" in
  checkb "the killed attempt dumped its flight record" true (Sys.file_exists flight);
  (match Flight.read ~path:flight with
  | Ok d ->
    check Alcotest.string "dump reason is the supervisor's SIGQUIT" "sigquit"
      d.Flight.f_reason;
    checkb "the dump names the worker pid, not the daemon's" true
      (d.Flight.f_pid <> Unix.getpid ())
  | Error e -> Alcotest.failf "flight dump unreadable: %s" (Bgr_error.to_string e));
  Mutex.lock log_mutex;
  let saw_dump = List.exists (fun l -> contains l "dumped its flight record") !lines in
  Mutex.unlock log_mutex;
  checkb "supervisor observed the worker's dump frame" true saw_dump;
  (* the postmortem pipeline classifies the bundle *)
  (match Postmortem.analyze ~dir with
  | Error e -> Alcotest.failf "postmortem: %s" (Bgr_error.to_string e)
  | Ok r ->
    checkb
      (Printf.sprintf "verdict %S blames the hang" r.Postmortem.p_verdict)
      true
      (String.length r.Postmortem.p_verdict >= 8
      && String.sub r.Postmortem.p_verdict 0 8 = "hang-in-");
    checkb "headline notes the recovery" true
      (contains r.Postmortem.p_headline "recovered");
    checkb "the flight dump is the correlated artifact" true
      (r.Postmortem.p_flight_file = "flight-a1.bgrf");
    (* postmortem.json must be valid Qjson *)
    match Qjson.parse (Qjson.to_string (Postmortem.to_json r)) with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "postmortem.json does not parse: %s" m);
  Serve_client.close c;
  let stats = stop_server srv in
  checki "one kill" 1 stats.Serve.s_killed;
  checki "completed" 1 stats.Serve.s_completed

(* The dump opcode: an on-demand flight snapshot of the live daemon,
   no distress required. *)
let test_dump_opcode () =
  let root = fresh_dir () in
  let srv = start_server root in
  let c = client srv in
  (match rq c Wire.Dump with
  | Wire.Info { json } ->
    checkb "daemon reports the dump" true (json_field json "dumped" = Some (Qjson.Bool true));
    checkb "no worker to signal" true
      (json_field json "worker_signaled" = Some (Qjson.Bool false));
    let path =
      Option.value (Option.bind (json_field json "path") Qjson.to_str) ~default:""
    in
    checkb "reply names the dump path" true (path <> "");
    (match Flight.read ~path with
    | Ok d -> check Alcotest.string "reason" "opcode" d.Flight.f_reason
    | Error e -> Alcotest.failf "dump unreadable: %s" (Bgr_error.to_string e))
  | _ -> Alcotest.fail "dump refused");
  Serve_client.close c;
  ignore (stop_server srv)

let test_worker_quarantine () =
  let root = fresh_dir () in
  let stats =
    with_worker_fault_plan "serve.worker.kill:always" @@ fun () ->
    let srv =
      start_server ~isolation:(workers_isolation ()) ~max_attempts:5 ~quarantine_kills:2 root
    in
    let c = client srv in
    (match rq c (submit_mini ~name:"poison" ~wait:true ()) with
    | Wire.Accepted _ -> (
      match Serve_client.next_reply ~timeout_s:120.0 c with
      | Ok (Wire.Rerror { code; _ }) ->
        check Alcotest.string "waiter told quarantined" "quarantined" code
      | _ -> Alcotest.fail "no quarantine notice")
    | _ -> Alcotest.fail "not accepted");
    (match rq c (Wire.Status { job = Some "poison" }) with
    | Wire.Info { json } -> (
      match Option.bind (json_field json "state") Qjson.to_str with
      | Some s -> check Alcotest.string "state" "quarantined" s
      | None -> Alcotest.fail "no state")
    | _ -> Alcotest.fail "status");
    (* resume refuses; an unforced revive refuses *)
    (match rq c (Wire.Resume { wait = false; progress = false; job = "poison" }) with
    | Wire.Rerror { code; message } ->
      check Alcotest.string "resume refused" "validate" code;
      checkb "points at revive" true (contains message "revive")
    | _ -> Alcotest.fail "resume of a quarantined job accepted");
    (match rq c (Wire.Revive { wait = false; force = false; job = "poison" }) with
    | Wire.Rerror { code; _ } -> check Alcotest.string "unforced revive refused" "validate" code
    | _ -> Alcotest.fail "unforced revive accepted");
    Serve_client.close c;
    stop_server srv
  in
  checki "quarantined" 1 stats.Serve.s_quarantined;
  checki "two worker kills" 2 stats.Serve.s_killed;
  checki "not counted as dead-lettered" 0 stats.Serve.s_failed;
  (* life 2, chaos gone: the quarantined job is NOT auto-requeued, and
     a forced revive completes it with the reference hash *)
  let srv = start_server ~isolation:(workers_isolation ()) root in
  let c = client srv in
  (match rq c (Wire.Revive { wait = true; force = true; job = "poison" }) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "revived and routed" true ok;
      checki "hash" (Lazy.force mini_hash) (hash_of_json json)
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "forced revive refused");
  Serve_client.close c;
  let stats2 = stop_server srv in
  checki "quarantine excluded from the supervisor requeue" 0 stats2.Serve.s_requeued;
  checki "completed on forced revive" 1 stats2.Serve.s_completed

(* --- cancellation ------------------------------------------------------ *)

let test_cancel_running_worker () =
  let root = fresh_dir () in
  with_worker_fault_plan "serve.worker.hang:always" @@ fun () ->
  let srv =
    start_server ~isolation:(workers_isolation ()) ~heartbeat_timeout_ms:600_000.0 root
  in
  let c = client srv in
  (match rq c (submit_mini ~name:"stuck" ~wait:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "not accepted");
  let c2 = client srv in
  let rec wait_running n =
    if n = 0 then Alcotest.fail "job never started running";
    match rq c2 (Wire.Status { job = Some "stuck" }) with
    | Wire.Info { json }
      when Option.bind (json_field json "state") Qjson.to_str = Some "running" ->
      ()
    | _ ->
      Unix.sleepf 0.05;
      wait_running (n - 1)
  in
  wait_running 400;
  (match rq c2 (Wire.Cancel { job = "stuck" }) with
  | Wire.Info { json } ->
    checkb "cancel acknowledged" true (json_field json "cancel_requested" = Some (Qjson.Bool true))
  | _ -> Alcotest.fail "cancel refused");
  (match Serve_client.next_reply ~timeout_s:60.0 c with
  | Ok (Wire.Rerror { code; _ }) -> check Alcotest.string "waiter told canceled" "canceled" code
  | _ -> Alcotest.fail "waiter not told");
  (* the canceled job is dead-lettered with a structured canceled json *)
  (match rq c2 (Wire.Status { job = Some "stuck" }) with
  | Wire.Info { json } -> (
    match Option.bind (json_field json "state") Qjson.to_str with
    | Some s -> check Alcotest.string "dead-lettered" "dead" s
    | None -> Alcotest.fail "no state")
  | _ -> Alcotest.fail "status after cancel");
  (match rq c2 (Wire.Cancel { job = "nope" }) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "unknown job" "validate" code
  | _ -> Alcotest.fail "cancel of unknown job accepted");
  Serve_client.close c;
  Serve_client.close c2;
  let stats = stop_server srv in
  checki "one canceled" 1 stats.Serve.s_canceled;
  checki "not a failure" 0 stats.Serve.s_failed

let test_cancel_queued_job () =
  let root = fresh_dir () in
  Fault.with_plan (plan_of "serve.job:n=1") @@ fun () ->
  (* A's first attempt faults; during its 2 s backoff B sits queued *)
  let srv = start_server ~cap:8 ~backoff_ms:2000.0 root in
  let c = client srv in
  (match rq c (submit_mini ~name:"a" ~wait:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "A not accepted");
  (* B's waiter sits on its own connection: the cancel ack and the
     waiter's notice are separate replies, possibly interleaved when
     they share a socket *)
  let cw = client srv in
  (match rq cw (submit_mini ~name:"b" ~wait:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "B not accepted");
  let cb = client srv in
  (match rq cb (Wire.Cancel { job = "b" }) with
  | Wire.Info { json } ->
    checkb "B canceled from the queue" true (json_field json "canceled" = Some (Qjson.Bool true))
  | Wire.Rerror { message; _ } -> Alcotest.failf "cancel refused: %s" message
  | _ -> Alcotest.fail "cancel reply");
  (match Serve_client.next_reply ~timeout_s:30.0 cw with
  | Ok (Wire.Rerror { code; _ }) -> check Alcotest.string "B's waiter told" "canceled" code
  | _ -> Alcotest.fail "B's waiter not told");
  Serve_client.close cw;
  (* the running in-process job cannot be canceled — only workers can *)
  (match rq cb (Wire.Cancel { job = "a" }) with
  | Wire.Rerror { code; message } ->
    check Alcotest.string "in-process cancel refused" "validate" code;
    checkb "blames the isolation mode" true (contains message "isolation")
  | _ -> Alcotest.fail "running in-process cancel accepted");
  (match Serve_client.next_reply ~timeout_s:120.0 c with
  | Ok (Wire.Result { ok; _ }) -> checkb "A completed" true ok
  | _ -> Alcotest.fail "A lost");
  (* canceling a completed job is refused *)
  (match rq cb (Wire.Cancel { job = "a" }) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "done cancel refused" "validate" code
  | _ -> Alcotest.fail "cancel of a done job accepted");
  Serve_client.close c;
  Serve_client.close cb;
  let stats = stop_server srv in
  checki "one canceled" 1 stats.Serve.s_canceled;
  checki "B was not dead-lettered" 0 stats.Serve.s_failed;
  checki "A completed" 1 stats.Serve.s_completed

(* --- the watchdog's pure clock ----------------------------------------- *)

let test_watchdog_verdict () =
  let v ?(canceled = false) ?(hb = 1000.0) ?(hard = infinity) ~now ~beat () =
    Worker.watchdog_verdict ~now_s:now ~started_s:0.0 ~last_beat_s:beat
      ~heartbeat_timeout_ms:hb ~hard_deadline_ms:hard ~canceled
  in
  (* a fresh beat: alive *)
  (match v ~now:10.0 ~beat:9.5 () with
  | Worker.V_ok -> ()
  | Worker.V_kill _ -> Alcotest.fail "fresh beat killed");
  (* exactly at the silence threshold: still alive (strictly greater) *)
  (match v ~now:10.0 ~beat:9.0 () with
  | Worker.V_ok -> ()
  | Worker.V_kill _ -> Alcotest.fail "at-threshold beat killed");
  (* silence past the threshold: a hang, and the detail says how long *)
  (match v ~now:10.0 ~beat:8.9 () with
  | Worker.V_kill (Worker.Hang, d) -> checkb "names the silence" true (contains d "no heartbeat")
  | _ -> Alcotest.fail "silent worker not killed");
  (* slow but alive: sparse beats inside the timeout, hours into the
     run, are never killed before the hard deadline *)
  (match v ~now:7200.0 ~beat:7199.2 () with
  | Worker.V_ok -> ()
  | Worker.V_kill _ -> Alcotest.fail "slow-but-alive worker killed");
  (* the hard wall deadline kills despite a perfectly fresh beat *)
  (match v ~now:10.0 ~beat:9.9 ~hard:5000.0 () with
  | Worker.V_kill (Worker.Hard_deadline, _) -> ()
  | _ -> Alcotest.fail "hard deadline ignored");
  (* cancel outranks both kill causes *)
  match v ~canceled:true ~now:10.0 ~beat:0.0 ~hard:5000.0 () with
  | Worker.V_kill (Worker.Canceled, _) -> ()
  | _ -> Alcotest.fail "cancel not prioritized"

(* --- heartbeat cadence: one supervisor callback per beat, in order ----- *)

let test_heartbeat_cadence () =
  let dir = fresh_dir () in
  let script =
    [ ("improve", 1, 12, -5.0); ("improve", 2, 40, 3.5); ("metrology", 2, 44, Float.nan) ]
  in
  let feed =
    write_feed dir "cadence"
      (List.map
         (fun (phase, pass, deletions, worst_margin_ps) ->
           Worker.Heartbeat { phase; pass; deletions; worst_margin_ps })
         script
      @ [ Worker.Done { json = "{}" } ])
  in
  let seen = ref [] in
  (match
     Worker.supervise ~log:ignore
       ~on_progress:(fun p -> seen := p :: !seen)
       ~argv:(sh ("cat " ^ feed)) ()
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "cadenced worker misclassified");
  let got = List.rev !seen in
  checki "one progress callback per heartbeat" (List.length script) (List.length got);
  List.iter2
    (fun (phase, pass, deletions, margin) p ->
      check Alcotest.string "phase in order" phase p.Worker.p_phase;
      checki "pass in order" pass p.Worker.p_pass;
      checki "deletions in order" deletions p.Worker.p_deletions;
      checkb "margin carried bit-exactly (nan included)" true
        (Int64.equal (Int64.bits_of_float margin)
           (Int64.bits_of_float p.Worker.p_worst_margin_ps)))
    script got

(* --- watch: streamed job progress -------------------------------------- *)

(* Drain a watching connection: Progress* then the final Result. *)
let drain_watch c ~job =
  let rec go acc =
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Progress { job = j; seq; json }) ->
      check Alcotest.string "frames name the job" job j;
      go ((seq, json) :: acc)
    | Ok (Wire.Result { ok; json; _ }) -> (List.rev acc, ok, json)
    | Ok _ -> Alcotest.fail "unexpected reply while watching"
    | Error e -> Alcotest.failf "watch read: %s" e.Bgr_error.message
  in
  go []

let check_progress_frames frames ~at_least =
  checkb
    (Printf.sprintf "at least %d progress frames (got %d)" at_least (List.length frames))
    true
    (List.length frames >= at_least);
  ignore
    (List.fold_left
       (fun prev (seq, json) ->
         checkb "seq strictly increasing" true (seq > prev);
         checkb "frame json has a phase" true
           (Option.bind (json_field json "phase") Qjson.to_str <> None);
         checkb "frame json has deletions" true (json_field json "deletions" <> None);
         seq)
       0 frames)

let test_watch_streams_progress () =
  let root = fresh_dir () in
  let srv = start_server ~isolation:(workers_isolation ()) root in
  let c = client srv in
  (* two jobs: A occupies the single executor while we subscribe to B,
     so B's whole stream is observed *)
  (match rq c (submit_mini ~name:"a" ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "A not accepted");
  (match rq c (submit_mini ~name:"b" ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "B not accepted");
  let cw = client srv in
  (match rq cw (Wire.Watch { job = "b" }) with
  | Wire.Info { json } ->
    checkb "subscribed" true (json_field json "watching" = Some (Qjson.Bool true))
  | _ -> Alcotest.fail "watch refused");
  let frames, ok, json = drain_watch cw ~job:"b" in
  checkb "B routed" true ok;
  checki "watching left the hash alone" (Lazy.force mini_hash) (hash_of_json json);
  check_progress_frames frames ~at_least:2;
  Serve_client.close cw;
  (* a watch of a finished job returns its stored result immediately *)
  (match rq c (Wire.Watch { job = "b" }) with
  | Wire.Result { ok; _ } -> checkb "stored result" true ok
  | _ -> Alcotest.fail "watch of a done job");
  (* watch of an unknown job: validate *)
  (match rq c (Wire.Watch { job = "nope" }) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "unknown watch" "validate" code
  | _ -> Alcotest.fail "unknown watch accepted");
  Serve_client.close c;
  ignore (stop_server srv)

(* A watch of a job that will never progress must say so in a
   structured reply, not hold the connection open in silence. *)
let test_watch_edge_cases () =
  let root = fresh_dir () in
  (* pre-bake a dead-lettered and a quarantined job in the spool *)
  let sp = Spool.open_root (Filename.concat root "spool") in
  let bake id =
    Spool.accept sp
      { Spool.j_id = id; j_timing_driven = true; j_deadline_ms = None; j_attempts = 1;
        j_kills = 0; j_last_kill = ""; j_kill_history = [] }
      ~design_text:(Lazy.force mini_text)
  in
  bake "gone";
  Spool.retire sp "gone" ~json:"{\"code\":\"fault\",\"message\":\"injected\"}";
  bake "poison";
  Spool.quarantine sp "poison" ~json:"{\"code\":\"quarantined\",\"message\":\"kill loop\"}";
  let srv = start_server root in
  let c = client srv in
  (match rq c (Wire.Watch { job = "gone" }) with
  | Wire.Rerror { code; message } ->
    check Alcotest.string "dead-lettered watch code" "dead-lettered" code;
    checkb "message names the job" true (contains message "gone");
    checkb "message says how to proceed" true (contains message "resume")
  | _ -> Alcotest.fail "watch of a dead-lettered job must be a structured error");
  (match rq c (Wire.Watch { job = "poison" }) with
  | Wire.Rerror { code; message } ->
    check Alcotest.string "quarantined watch code" "quarantined" code;
    checkb "message says revive with force" true (contains message "force")
  | _ -> Alcotest.fail "watch of a quarantined job must be a structured error");
  (match rq c (Wire.Watch { job = "never-heard-of" }) with
  | Wire.Rerror { code; _ } -> check Alcotest.string "unknown watch code" "validate" code
  | _ -> Alcotest.fail "watch of an unknown job must be a structured error");
  Serve_client.close c;
  ignore (stop_server srv)

(* nan is a legal worst margin (no timing state yet); it must survive
   the progress-frame JSON as null, not poison the stream. *)
let test_watch_nan_margin_roundtrip () =
  let json = Serve.progress_json "j" 3
      { Worker.p_phase = "initial_route"; p_pass = 0; p_deletions = 0;
        p_worst_margin_ps = Float.nan }
  in
  (match Qjson.parse json with
  | Error m -> Alcotest.failf "progress frame does not parse: %s" m
  | Ok j ->
    checkb "nan margin renders as null" true (Qjson.member "worst_margin_ps" j = Some Qjson.Null);
    (match Option.bind (Qjson.member "worst_margin_ps" j) Qjson.to_float with
    | Some v -> checkb "null reads back as nan" true (Float.is_nan v)
    | None -> Alcotest.fail "margin member must read as a float");
    check Alcotest.string "phase intact" "initial_route"
      (Option.value (Option.bind (Qjson.member "phase" j) Qjson.to_str) ~default:""));
  (* and a finite margin stays a number *)
  let json = Serve.progress_json "j" 4
      { Worker.p_phase = "improve_delay"; p_pass = 2; p_deletions = 41;
        p_worst_margin_ps = -12.5 }
  in
  match Qjson.parse json with
  | Error m -> Alcotest.failf "finite frame does not parse: %s" m
  | Ok j ->
    checkb "finite margin is numeric" true
      (Option.bind (Qjson.member "worst_margin_ps" j) Qjson.to_float = Some (-12.5))

let test_submit_progress_flag () =
  let root = fresh_dir () in
  (* in-process at 4 domains: frames come from quality samples, and the
     hash must still match the 1-domain un-watched reference *)
  let srv = start_server ~tweak:(fun cfg -> { cfg with Serve.job_domains = 4 }) root in
  let c = client srv in
  (match rq c (submit_mini ~name:"p" ~wait:true ~progress:true ()) with
  | Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "not accepted");
  let frames, ok, json = drain_watch c ~job:"p" in
  checkb "routed" true ok;
  checki "progress + 4 domains left the hash alone" (Lazy.force mini_hash)
    (hash_of_json json);
  check_progress_frames frames ~at_least:1;
  Serve_client.close c;
  ignore (stop_server srv)

(* --- stats: the scrapeable registry ------------------------------------ *)

let test_stats_opcode () =
  let root = fresh_dir () in
  let srv = start_server root in
  let c = client srv in
  (match rq c (submit_mini ~name:"s" ~wait:true ()) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; _ }) -> checkb "routed" true ok
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "not accepted");
  (match rq c (Wire.Stats { prom = false }) with
  | Wire.Rstats { prom; body } ->
    checkb "json flag echoed" false prom;
    (match Qjson.parse body with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "stats json does not parse: %s" m)
  | _ -> Alcotest.fail "stats json refused");
  (match rq c (Wire.Stats { prom = true }) with
  | Wire.Rstats { prom; body } ->
    checkb "prom flag echoed" true prom;
    checkb "text exposition shape" true
      (String.length body > 0 && body.[0] = '#' && contains body "# TYPE")
  | _ -> Alcotest.fail "stats prom refused");
  Serve_client.close c;
  ignore (stop_server srv)

(* --- cross-process trace stitching ------------------------------------- *)

let test_worker_stitching () =
  let root = fresh_dir () in
  (* The reference run routes in this process: do it before the reset
     so the registry below only sees what the worker dumps carry. *)
  let expected_hash = Lazy.force mini_hash in
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let srv =
    start_server ~isolation:(workers_isolation ())
      ~tweak:(fun cfg -> { cfg with Serve.stitch_workers = true })
      root
  in
  let c = client srv in
  (match rq c (submit_mini ~name:"st" ~wait:true ()) with
  | Wire.Accepted _ -> (
    match Serve_client.next_reply ~timeout_s:120.0 c with
    | Ok (Wire.Result { ok; json; _ }) ->
      checkb "routed" true ok;
      checki "stitching left the hash alone" expected_hash (hash_of_json json)
    | _ -> Alcotest.fail "no result")
  | _ -> Alcotest.fail "not accepted");
  (* the stats opcode serves the very registry the drain would write *)
  (match rq c (Wire.Stats { prom = true }) with
  | Wire.Rstats { body; _ } ->
    let serve_lines s =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.length l > 6 && String.sub l 0 6 = "serve_")
    in
    check
      Alcotest.(list string)
      "socket stats = registry render"
      (serve_lines (Obs.Metrics.render_prometheus ()))
      (serve_lines body)
  | _ -> Alcotest.fail "stats refused");
  Serve_client.close c;
  ignore (stop_server srv);
  (* the worker left its per-attempt artifacts in the job's spool dir *)
  let jdir = Filename.concat root "spool/jobs/st" in
  List.iter
    (fun f ->
      checkb (f ^ " written") true (Sys.file_exists (Filename.concat jdir f)))
    [ "trace-a1.json"; "trace-a1.jsonl"; "metrics-a1.json"; "obs-a1.json" ];
  (* under worker isolation the daemon never routes, so deletion counts
     in its registry can only come from the merged worker dump *)
  let deletions = Obs.Metrics.counter "bgr_deletions_total" ~labels:[ "criterion"; "phase" ] in
  checkb "worker deletion counts merged into the daemon registry" true
    (List.exists (fun (_, v) -> v > 0.0) (Obs.Metrics.series deletions));
  (* one merged timeline: the daemon's serve.job/serve.worker spans plus
     the worker's own spans, different pids, one trace id *)
  let spans = Obs.Trace.completed () in
  let by_name n = List.filter (fun s -> s.Obs.Trace.sp_name = n) spans in
  let job_spans = by_name "serve.job" and sup_spans = by_name "serve.worker" in
  checki "one serve.job span" 1 (List.length job_spans);
  checki "one serve.worker span" 1 (List.length sup_spans);
  let tid s = List.assoc_opt "trace_id" s.Obs.Trace.sp_attrs in
  checkb "serve.job carries the per-job trace id" true
    (tid (List.hd job_spans) = Some (Obs.Trace.Str "job-st"));
  let worker_spans = List.filter (fun s -> s.Obs.Trace.sp_pid <> 1) spans in
  checkb "worker spans merged into the daemon timeline" true (worker_spans <> []);
  (match by_name "worker.attempt" with
  | [ att ] ->
    checkb "worker root recorded with the worker's pid" true (att.Obs.Trace.sp_pid <> 1);
    checki "worker root hangs off the daemon's serve.worker span"
      (List.hd sup_spans).Obs.Trace.sp_id att.Obs.Trace.sp_parent;
    checkb "worker carries the job's trace id" true
      (tid att = Some (Obs.Trace.Str "job-st"))
  | l -> Alcotest.failf "expected 1 worker.attempt span, got %d" (List.length l));
  checkb "the worker's inner phase spans came along" true
    (List.exists
       (fun s ->
         let n = s.Obs.Trace.sp_name in
         String.length n > 5 && (String.sub n 0 5 = "pass:" || String.sub n 0 5 = "flow:"))
       worker_spans)

(* --- protocol robustness: the malformed-request corpus ----------------- *)

let corpus_dir = if Sys.file_exists "corpus/serve" then "corpus/serve" else "test/corpus/serve"

let raw_connect srv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX srv.cfg.Serve.socket_path);
  (* greet properly so only the corpus payload is on trial *)
  ignore (Unix.write_substring fd Wire.magic 0 (String.length Wire.magic));
  let banner = Bytes.create (String.length Wire.magic) in
  let got = Unix.read fd banner 0 (Bytes.length banner) in
  checkb "server banner" true (got > 0);
  fd

(* Read one framed reply off a raw fd (blocking, bounded). *)
let raw_reply fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let buf = Bytes.create 65536 in
  let acc = ref "" in
  let rec go () =
    match extract_frame !acc ~pos:0 with
    | Frame.Frame (payload, _) -> Some (Wire.decode_reply payload)
    | Frame.Bad _ -> None
    | Frame.Need _ -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> None
      | n ->
        acc := !acc ^ Bytes.sub_string buf 0 n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None)
  in
  go ()

let test_malformed_corpus () =
  let files = Sys.readdir corpus_dir |> Array.to_list |> List.sort compare in
  checkb "corpus present" true (List.length files >= 9);
  let root = fresh_dir () in
  let srv = start_server root in
  List.iter
    (fun file ->
      let bytes =
        let ic = open_in_bin (Filename.concat corpus_dir file) in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let fd = raw_connect srv in
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      (match raw_reply fd with
      | Some (Ok (Wire.Rerror { code; message })) ->
        check Alcotest.string (file ^ " error class") "parse" code;
        checkb (file ^ " has a message") true (String.length message > 0)
      | Some (Ok _) -> Alcotest.failf "%s: daemon accepted garbage" file
      | Some (Error e) -> Alcotest.failf "%s: unparseable reply: %s" file e.Bgr_error.message
      | None ->
        (* an incomplete frame draws no reply: the daemon just waits
           (truncated_frame is short a few bytes; at_cap_length
           declares a legal 16 MiB payload that never arrives);
           dropping the connection must not hurt it either *)
        checkb (file ^ " tolerated silently") true
          (List.mem file [ "truncated_frame.bin"; "at_cap_length.bin" ]));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* the daemon survived: a fresh client still gets status *)
      let c = client srv in
      (match rq c (Wire.Status { job = None }) with
      | Wire.Info _ -> ()
      | _ -> Alcotest.failf "%s: daemon unhealthy afterwards" file);
      Serve_client.close c)
    files;
  (* bad magic greeting is also answered, then the connection closed *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX srv.cfg.Serve.socket_path);
  ignore (Unix.write_substring fd "NOTBGR" 0 6);
  (* swallow the server banner; the error frame follows it *)
  let banner = Bytes.create (String.length Wire.magic) in
  ignore (Unix.read fd banner 0 (Bytes.length banner));
  (match raw_reply fd with
  | Some (Ok (Wire.Rerror { code; _ })) -> check Alcotest.string "bad magic" "parse" code
  | _ -> Alcotest.fail "bad magic not answered");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let stats = stop_server srv in
  checkb "protocol errors counted" true (stats.Serve.s_protocol_errors >= 4);
  checki "no jobs harmed" 0 stats.Serve.s_failed

(* --- serve.accept fault: refused connection, healthy daemon ------------ *)

let test_accept_fault () =
  let root = fresh_dir () in
  Fault.with_plan (plan_of "serve.accept:n=1") @@ fun () ->
  let srv = start_server root in
  (* first dial is swallowed by the fault: the daemon accepts and
     immediately closes; the client sees EOF during the greeting *)
  (match Serve_client.connect srv.cfg.Serve.socket_path with
  | Error _ -> ()
  | Ok c ->
    (* the close can also surface on first use *)
    (match Serve_client.request ~timeout_s:10.0 c (Wire.Status { job = None }) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "faulted connection served");
    Serve_client.close c);
  (* the daemon itself survived *)
  let c = client srv in
  (match rq c (Wire.Status { job = None }) with
  | Wire.Info _ -> ()
  | _ -> Alcotest.fail "daemon unhealthy after accept fault");
  Serve_client.close c;
  ignore (stop_server srv)

let () =
  Alcotest.run "serve"
    [ ( "wire",
        [ Alcotest.test_case "round trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed payloads" `Quick test_wire_malformed;
          Alcotest.test_case "incremental frames" `Quick test_extract_frame;
          Alcotest.test_case "frame cap edges" `Quick test_frame_cap_edges;
          Alcotest.test_case "worker event frames" `Quick test_worker_event_cases;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_reply_roundtrip;
          QCheck_alcotest.to_alcotest prop_event_roundtrip;
          Alcotest.test_case "job ids" `Quick test_job_ids ] );
      ( "retry",
        [ Alcotest.test_case "deterministic schedule" `Quick test_retry_schedule;
          Alcotest.test_case "success and default cap" `Quick test_retry_success_and_default;
          Alcotest.test_case "non-retryable goes straight through" `Quick
            test_retry_non_retryable;
          Alcotest.test_case "backoff cap and jitter" `Quick test_retry_cap_and_jitter;
          Alcotest.test_case "giveup interrupts" `Quick test_retry_giveup ] );
      ( "spool",
        [ Alcotest.test_case "lifecycle" `Quick test_spool_lifecycle;
          Alcotest.test_case "kills + quarantine" `Quick test_spool_kills_and_quarantine;
          Alcotest.test_case "manifest compatibility" `Quick test_spool_manifest_compat ] );
      ( "worker",
        [ Alcotest.test_case "supervises a well-behaved worker" `Quick
            test_supervise_well_behaved;
          Alcotest.test_case "classifies kills and exits" `Slow test_supervise_kills_and_exits;
          Alcotest.test_case "watchdog verdict under an injected clock" `Quick
            test_watchdog_verdict;
          Alcotest.test_case "heartbeat cadence" `Quick test_heartbeat_cadence ] );
      ( "daemon",
        [ Alcotest.test_case "end to end" `Slow test_end_to_end;
          Alcotest.test_case "overload + retry" `Slow test_overload_and_retry;
          Alcotest.test_case "dead-letter + revive" `Slow test_dead_letter_and_revive;
          Alcotest.test_case "supervisor requeue" `Slow test_supervisor_requeue;
          Alcotest.test_case "drain keeps queued jobs" `Slow test_drain_keeps_queued_jobs ] );
      ( "isolation",
        [ Alcotest.test_case "worker end to end" `Slow test_worker_isolation_e2e;
          Alcotest.test_case "hang watchdog + resume" `Slow test_worker_hang_watchdog;
          Alcotest.test_case "external kill -9 + resume" `Slow test_worker_external_kill;
          Alcotest.test_case "crash loop quarantine" `Slow test_worker_quarantine;
          Alcotest.test_case "watchdog kill dumps the flight record" `Slow
            test_worker_flight_dump_on_kill;
          Alcotest.test_case "cancel a running worker" `Slow test_cancel_running_worker;
          Alcotest.test_case "cancel a queued job" `Slow test_cancel_queued_job ] );
      ( "observability",
        [ Alcotest.test_case "watch streams worker progress" `Slow
            test_watch_streams_progress;
          Alcotest.test_case "watch of dead/quarantined jobs errors" `Slow
            test_watch_edge_cases;
          Alcotest.test_case "nan margin through a progress frame" `Quick
            test_watch_nan_margin_roundtrip;
          Alcotest.test_case "dump opcode snapshots the daemon" `Slow test_dump_opcode;
          Alcotest.test_case "submit --progress piggybacks on wait" `Slow
            test_submit_progress_flag;
          Alcotest.test_case "stats opcode" `Slow test_stats_opcode;
          Alcotest.test_case "cross-process trace stitching" `Slow test_worker_stitching ] );
      ( "protocol",
        [ Alcotest.test_case "malformed corpus" `Slow test_malformed_corpus;
          Alcotest.test_case "accept fault" `Quick test_accept_fault ] ) ]
