(* The shared frame codec, exercised through all five formats that use
   it: BGRJ1 (journal), BGRQ1 (quality log), BGRF1 (flight record),
   BGRS1 (daemon wire) and BGRW1 (worker pipe).

   - golden byte samples under test/golden/ pin the encoders byte for
     byte and are read back by the decoders;
   - one QCheck property per format checks random round trips, tail
     truncation (a clean prefix for files, [Need] for streams) and
      single-byte damage ([Parse] for files, [Bad] for streams, except
     that damage to a file's final frame is a torn tail);
   - the malformed daemon-input corpus replays to fixed verdicts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let data_dir sub = if Sys.file_exists sub then sub else Filename.concat "test" sub
let read_bytes path = In_channel.with_open_bin path In_channel.input_all
let golden name = read_bytes (Filename.concat (data_dir "golden") name)
let stream_max = Wire.max_payload (* the worker pipe's cap too *)
let extract s ~pos = Frame.extract ~phase:"serve" ~max_len:stream_max s ~pos

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Bgr_error.to_string e)

(* Every complete frame of a stream image, then what the extractor
   says about the rest. *)
let stream_frames s =
  let rec go pos acc =
    match extract s ~pos with
    | Frame.Frame (payload, used) -> go (pos + used) (payload :: acc)
    | last -> (List.rev acc, last)
  in
  go 0 []

(* --- golden samples ----------------------------------------------------- *)

let journal_records =
  [ { Journal.r_phase = "initial_route"; r_area_mode = false; r_net = 7; r_edge = 42;
      r_deletions_before = 0; r_hash_before = 0x1234_5678_9ABC };
    { Journal.r_phase = "improve_delay"; r_area_mode = false; r_net = 3; r_edge = 65_537;
      r_deletions_before = 118; r_hash_before = -4_611_686_018_427_387_904 };
    { Journal.r_phase = "improve_area"; r_area_mode = true; r_net = 0x7FFF_FFFF; r_edge = 0;
      r_deletions_before = 4_000_000_000; r_hash_before = max_int } ]

let quality_records =
  [ { Qlog.q_t_s = 0.125;
      q_sample =
        { Router.qs_kind = Router.Q_cadence; qs_phase = "initial_route"; qs_pass = 0;
          qs_deletions = 250; qs_worst_margin_ps = Float.nan; qs_worst_constraint = -1;
          qs_total_negative_ps = 0.0; qs_violations = 0; qs_ep_slack_min_ps = Float.nan;
          qs_ep_slack_max_ps = Float.nan; qs_density = [| 3; 0; 17 |];
          qs_criteria = [ ("delay", 12); ("id_tie_break", 1) ]; qs_margins = [||] } };
    { Qlog.q_t_s = 2.5;
      q_sample =
        { Router.qs_kind = Router.Q_phase; qs_phase = "improve_delay"; qs_pass = 4;
          qs_deletions = 1_024; qs_worst_margin_ps = -37.25; qs_worst_constraint = 2;
          qs_total_negative_ps = -51.5; qs_violations = 2; qs_ep_slack_min_ps = -37.25;
          qs_ep_slack_max_ps = 880.0; qs_density = [| 5; 9 |]; qs_criteria = [];
          qs_margins = [| -37.25; -14.25; 120.0 |] } } ]

let flight_events =
  [ (Flight.k_phase, Flight.phase_code "initial_route", 0, 0, 0);
    (Flight.k_deletion, Flight.phase_code "initial_route", Flight.criterion_code "delay", 9,
     (17 lsl 32) lor 3);
    (Flight.k_pass, Flight.phase_code "improve_delay", 2, 0, 40);
    (Flight.k_heartbeat, 2, 2, 40, Flight.margin_encode (-12.5));
    (Flight.k_stop, Flight.phase_code "improve_delay", 1, 0, 41) ]

(* A dump with a fixed clock (event [i] at [i] ms) and one fresh ring. *)
let flight_dump ~reason events =
  let clock = ref 0.0 in
  Flight.set_clock_for_tests (Some (fun () -> !clock));
  Flight.reset_for_tests ();
  List.iteri
    (fun i (k, a, b, c, d) ->
      clock := 0.001 *. float_of_int (i + 1);
      Flight.record k ~a ~b ~c ~d)
    events;
  let s = Flight.dump_string ~reason in
  Flight.set_clock_for_tests None;
  s

(* The only process-dependent bytes of a dump are the header frame's
   pid (payload offset 2) and, through it, the header CRC. *)
let with_pid image pid =
  let b = Bytes.of_string image in
  let off = String.length Flight.magic in
  let len = Int32.to_int (Bytes.get_int32_be b off) in
  Bytes.set_int32_be b (off + 6) (Int32.of_int pid);
  let crc = Crc32.string (Bytes.sub_string b (off + 4) len) in
  Bytes.set_int32_be b (off + 4 + len) (Int32.of_int crc);
  Bytes.to_string b

let request =
  Wire.Route
    { wait = true; progress = true; timing_driven = false; deadline_ms = Some 1500;
      name = Some "job-golden"; design = "# bgr design\n" }

let reply = Wire.Progress { job = "job-golden"; seq = 3; json = "{\"phase\":\"improve_area\"}" }

let worker_events =
  [ Worker.Heartbeat { phase = "improve_area"; pass = 2; deletions = 77; worst_margin_ps = -3.75 };
    Worker.Done { json = "{\"job\":\"job-golden\",\"ok\":true}" };
    Worker.Fail { code = "deadline"; message = "wall-clock budget of 1500 ms exhausted" } ]

let test_golden_journal () =
  let g = golden "journal.bgrj" in
  check_string "encoder reproduces the sample" g
    (Journal.magic ^ String.concat "" (List.map Journal.encode_frame journal_records));
  let r = ok_or_fail "journal" (Journal.read_string g) in
  check_bool "records read back" true (List.map fst r.Journal.records = journal_records);
  check_bool "end offsets" true (List.map snd r.Journal.records = [ 40; 74; 108 ]);
  check_int "valid bytes" (String.length g) r.Journal.valid_bytes;
  check_bool "not torn" false r.Journal.torn

let test_golden_quality () =
  let g = golden "quality.bgrq" in
  check_string "encoder reproduces the sample" g
    (Qlog.magic ^ String.concat "" (List.map Qlog.encode_frame quality_records));
  let r = ok_or_fail "quality log" (Qlog.read_string g) in
  (* [compare], not [=]: the samples carry nan margins *)
  check_bool "records read back" true (compare r.Qlog.records quality_records = 0);
  check_bool "not torn" false r.Qlog.torn

let test_golden_flight () =
  let g = golden "flight.bgrf" in
  let golden_pid = Int32.to_int (String.get_int32_be g 12) in
  check_string "encoder reproduces the sample"
    (with_pid g (Unix.getpid ()))
    (flight_dump ~reason:"golden sample" flight_events);
  let d = ok_or_fail "flight record" (Flight.read_string g) in
  check_int "pid" golden_pid d.Flight.f_pid;
  check_string "reason" "golden sample" d.Flight.f_reason;
  check_bool "epoch" true (d.Flight.f_epoch_s = 0.0);
  match d.Flight.f_rings with
  | [ ring ] ->
    check_int "ring total" (List.length flight_events) ring.Flight.rg_total;
    check_bool "events read back" true
      (List.mapi
         (fun i e ->
           Flight.(e.e_kind, e.e_a, e.e_b, e.e_c, e.e_d,
                   e.e_t_us = int_of_float (0.001 *. float_of_int (i + 1) *. 1e6)))
         ring.Flight.rg_events
      = List.map (fun (k, a, b, c, d) -> (k, a, b, c, d, true)) flight_events)
  | rings -> Alcotest.failf "expected one ring, got %d" (List.length rings)

let test_golden_wire () =
  let gq = golden "wire_request.bin" and gr = golden "wire_reply.bin" in
  check_string "request encoder" gq (Wire.encode_request request);
  check_string "reply encoder" gr (Wire.encode_reply reply);
  (match stream_frames gq with
  | [ p ], Frame.Need 4 ->
    check_bool "request read back" true (ok_or_fail "request" (Wire.decode_request p) = request)
  | _ -> Alcotest.fail "request sample is not one frame");
  match stream_frames gr with
  | [ p ], Frame.Need 4 ->
    check_bool "reply read back" true (ok_or_fail "reply" (Wire.decode_reply p) = reply)
  | _ -> Alcotest.fail "reply sample is not one frame"

let test_golden_worker () =
  let g = golden "worker_events.bin" in
  check_string "encoder reproduces the sample" g
    (String.concat "" (List.map Worker.encode_event worker_events));
  let payloads, rest = stream_frames g in
  check_bool "three frames, nothing left" true (rest = Frame.Need 4);
  check_bool "events read back" true
    (compare (List.map (fun p -> ok_or_fail "event" (Worker.decode_event p)) payloads) worker_events
     = 0)

(* --- one property over the five formats ---------------------------------- *)

(* A format under test: an image made from random records, the offsets
   where its frames start and end, and a decoder reporting how many
   leading records came back intact ([Error ()] on [Parse] for files,
   [Bad] for streams). *)
type sample = {
  image : string;
  first : int;  (** offset of the first frame (the magic length for files) *)
  ends : int list;  (** offset just past each frame, ascending *)
  decode : string -> (int, unit) result;
}

type format = {
  name : string;
  file : bool;
  max_len : int;  (** the format's declared-length cap *)
  min_frames : int;  (** intact frames a file needs to be readable at all *)
  gen : sample QCheck.Gen.t;
}

let frame_ends ~first frames =
  let pos = ref first in
  List.map (fun f -> pos := !pos + String.length f; !pos) frames

(* The decoded records must be a prefix of the originals. *)
let prefix_count ~equal originals decoded =
  let n = List.length decoded in
  if n <= List.length originals && equal (List.filteri (fun i _ -> i < n) originals) decoded
  then n
  else QCheck.Test.fail_report "decoded records are not a prefix of the originals"

let file_result what = function
  | Ok v -> Ok v
  | Error e when e.Bgr_error.code = Bgr_error.Parse -> Error ()
  | Error e -> QCheck.Test.fail_reportf "%s: unexpected error %s" what (Bgr_error.to_string e)

let stream_decode ~decode ~equal originals s =
  let payloads, last = stream_frames s in
  match last with
  | Frame.Bad _ -> Error ()
  | Frame.Frame _ -> assert false
  | Frame.Need _ ->
    let decoded =
      List.map
        (fun p ->
          match decode p with
          | Ok v -> v
          | Error e -> QCheck.Test.fail_reportf "intact frame rejected: %s" (Bgr_error.to_string e))
        payloads
    in
    Ok (prefix_count ~equal originals decoded)

let short_str = QCheck.Gen.(string_size (int_bound 12))
let nonempty_str = QCheck.Gen.(string_size (int_range 1 12))
let u32 = QCheck.Gen.int_bound 0xFFFF_FFFF
let any_int =
  QCheck.Gen.(map2 (fun hi lo -> (hi lsl 31) lxor lo) (int_bound max_int) (int_bound max_int))
let any_float = QCheck.Gen.(oneof [ float; return Float.nan; return Float.neg_infinity ])

let journal_format =
  let open QCheck.Gen in
  let record =
    map
      (fun ((phase, area, net), (edge, dels, hash)) ->
        { Journal.r_phase = phase; r_area_mode = area; r_net = net; r_edge = edge;
          r_deletions_before = dels; r_hash_before = hash })
      (pair
         (triple (oneofl [ "initial_route"; "recover_violations"; "improve_delay"; "improve_area";
                           "final_recovery"; "final_delay"; "unknown" ]) bool u32)
         (triple u32 any_int any_int))
  in
  { name = "BGRJ1";
    file = true;
    max_len = 0xFFFF;
    min_frames = 0;
    gen =
      map
        (fun records ->
          let frames = List.map Journal.encode_frame records in
          let first = String.length Journal.magic in
          let ends = frame_ends ~first frames in
          { image = Journal.magic ^ String.concat "" frames;
            first;
            ends;
            decode =
              (fun s ->
                Result.map
                  (fun r ->
                    let n = prefix_count ~equal:( = ) records (List.map fst r.Journal.records) in
                    if List.map snd r.Journal.records <> List.filteri (fun i _ -> i < n) ends then
                      QCheck.Test.fail_report "wrong end offsets";
                    n)
                  (file_result "journal" (Journal.read_string s))) })
        (list_size (int_range 1 6) record) }

let quality_format =
  let open QCheck.Gen in
  let sample =
    map
      (fun ( (kind, phase, pass, dels),
             (t, worst, wc, viol),
             (tns, lo, hi),
             (dens, crit, margins) ) ->
        { Qlog.q_t_s = t;
          q_sample =
            { Router.qs_kind = kind; qs_phase = phase; qs_pass = pass; qs_deletions = dels;
              qs_worst_margin_ps = worst; qs_worst_constraint = wc; qs_total_negative_ps = tns;
              qs_violations = viol; qs_ep_slack_min_ps = lo; qs_ep_slack_max_ps = hi;
              qs_density = Array.of_list dens; qs_criteria = crit;
              qs_margins = Array.of_list margins } })
      (quad
         (quad (oneofl [ Router.Q_cadence; Router.Q_pass; Router.Q_phase ]) short_str
            (int_bound 0xFFFF) any_int)
         (quad any_float any_float (int_range (-0x8000_0000) 0x7FFF_FFFF) u32)
         (triple any_float any_float any_float)
         (triple (list_size (int_bound 6) u32)
            (list_size (int_bound 4) (pair short_str u32))
            (list_size (int_bound 6) any_float)))
  in
  { name = "BGRQ1";
    file = true;
    max_len = 0xFFFFF;
    min_frames = 0;
    gen =
      map
        (fun records ->
          let frames = List.map Qlog.encode_frame records in
          let first = String.length Qlog.magic in
          { image = Qlog.magic ^ String.concat "" frames;
            first;
            ends = frame_ends ~first frames;
            decode =
              (fun s ->
                Result.map
                  (fun r ->
                    prefix_count ~equal:(fun a b -> compare a b = 0) records r.Qlog.records)
                  (file_result "quality log" (Qlog.read_string s))) })
        (list_size (int_range 1 5) sample) }

(* A dump holds a header frame and one ring frame (this domain's). *)
let flight_format =
  let open QCheck.Gen in
  let event =
    map
      (fun ((k, a, b), (c, d)) -> (k, a, b, c, d))
      (pair (triple (int_bound 255) (int_bound 255) (int_bound 0xFFFF)) (pair u32 any_int))
  in
  { name = "BGRF1";
    file = true;
    max_len = 0xFFFFFF;
    min_frames = 1;
    gen =
      map
        (fun (reason, events) ->
          let image = flight_dump ~reason events in
          let first = String.length Flight.magic in
          let header_end = first + 8 + Int32.to_int (String.get_int32_be image first) in
          { image;
            first;
            ends = [ header_end; String.length image ];
            decode =
              (fun s ->
                Result.map
                  (fun d ->
                    if d.Flight.f_reason <> reason || d.Flight.f_pid <> Unix.getpid () then
                      QCheck.Test.fail_report "header did not read back";
                    match d.Flight.f_rings with
                    | [] -> 1
                    | [ ring ] ->
                      let got =
                        List.map
                          (fun e -> Flight.(e.e_kind, e.e_a, e.e_b, e.e_c, e.e_d))
                          ring.Flight.rg_events
                      in
                      if got <> events then QCheck.Test.fail_report "ring did not read back";
                      2
                    | _ -> QCheck.Test.fail_report "more rings than recorded")
                  (file_result "flight record" (Flight.read_string s))) })
        (pair short_str (list_size (int_bound 12) event)) }

let wire_format =
  let open QCheck.Gen in
  let request =
    oneof
      [ map
          (fun ((wait, progress, timing_driven), (deadline_ms, name, design)) ->
            Wire.Route { wait; progress; timing_driven; deadline_ms; name; design })
          (pair (triple bool bool bool)
             (triple (opt (int_range 1 0x7FFF_FFFF)) (opt nonempty_str) short_str));
        map3 (fun wait progress job -> Wire.Resume { wait; progress; job }) bool bool short_str;
        map (fun job -> Wire.Analyze { job }) short_str;
        map (fun job -> Wire.Status { job }) (opt nonempty_str);
        return Wire.Shutdown;
        map (fun job -> Wire.Cancel { job }) short_str;
        map3 (fun wait force job -> Wire.Revive { wait; force; job }) bool bool short_str;
        map (fun job -> Wire.Watch { job }) short_str;
        map (fun prom -> Wire.Stats { prom }) bool;
        return Wire.Dump ]
  in
  { name = "BGRS1";
    file = false;
    max_len = stream_max;
    min_frames = 0;
    gen =
      map
        (fun requests ->
          let frames = List.map Wire.encode_request requests in
          { image = String.concat "" frames;
            first = 0;
            ends = frame_ends ~first:0 frames;
            decode = stream_decode ~decode:Wire.decode_request ~equal:( = ) requests })
        (list_size (int_range 1 6) request) }

let worker_format =
  let open QCheck.Gen in
  let event =
    oneof
      [ map
          (fun ((phase, pass), (deletions, worst_margin_ps)) ->
            Worker.Heartbeat { phase; pass; deletions; worst_margin_ps })
          (pair (pair short_str u32) (pair u32 any_float));
        map (fun json -> Worker.Done { json }) short_str;
        map2 (fun code message -> Worker.Fail { code; message }) short_str short_str;
        map (fun json -> Worker.Obs_summary { json }) short_str;
        map (fun path -> Worker.Dump { path }) short_str ]
  in
  { name = "BGRW1";
    file = false;
    max_len = stream_max;
    min_frames = 0;
    gen =
      map
        (fun events ->
          let frames = List.map Worker.encode_event events in
          { image = String.concat "" frames;
            first = 0;
            ends = frame_ends ~first:0 frames;
            decode =
              stream_decode ~decode:Worker.decode_event
                ~equal:(fun a b -> compare a b = 0)
                events })
        (list_size (int_range 1 6) event) }

let formats = [ journal_format; quality_format; flight_format; wire_format; worker_format ]

let frames_within s k = List.length (List.filter (fun e -> e <= k) s.ends)

(* What a cut at [k] must read as.  Files: a clean prefix of the
   records (an error only while the magic, or a required header frame,
   is incomplete).  Streams: the complete frames, then [Need]. *)
let check_cut fmt s k =
  let n = frames_within s k in
  match s.decode (String.sub s.image 0 k) with
  | Ok got -> got = n && n >= fmt.min_frames
  | Error () -> fmt.file && (k < s.first || n < fmt.min_frames)

(* Flip one byte.  Damage to the magic, or to the payload or CRC of any
   frame but the last, is [Parse]/[Bad].  Damage to the final frame's
   payload or CRC is a torn tail for files (every earlier frame comes
   back) and [Bad] for streams.  A flipped length prefix is
   [Parse]/[Bad] too, unless the new length runs past the end of the
   image: then the frame looks torn (files) or incomplete (streams),
   and only the frames before it come back. *)
let check_flip fmt s q mask =
  let b = Bytes.of_string s.image in
  Bytes.set b q (Char.chr (Char.code (Bytes.get b q) lxor mask));
  let frame = List.length (List.filter (fun e -> e <= q) s.ends) in
  let start = List.nth (s.first :: s.ends) frame in
  let in_length = q >= start && q < start + 4 in
  let torn_final = fmt.file && q >= s.first && (not in_length) && frame = List.length s.ends - 1 in
  match s.decode (Bytes.to_string b) with
  | Error () -> not torn_final
  | Ok got -> (in_length || torn_final) && got = frame && frame >= fmt.min_frames

(* Declared lengths: a file frame needs [1 <= len <= max_len], and a
   length outside that is [Parse] even on the final frame; a stream
   frame may be empty. *)
let test_length_bounds () =
  let be32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int v);
    Bytes.to_string b
  in
  let empty_frame = be32 0 ^ be32 (Crc32.string "") in
  List.iter
    (fun fmt ->
      let s = QCheck.Gen.generate1 ~rand:(Random.State.make [| 3 |]) fmt.gen in
      let n = List.length s.ends in
      let read suffix = s.decode (s.image ^ suffix) in
      if fmt.file then begin
        check_bool (fmt.name ^ ": empty frame") true (read empty_frame = Error ());
        check_bool (fmt.name ^ ": length above the cap") true
          (read (be32 (fmt.max_len + 1)) = Error ());
        check_bool (fmt.name ^ ": length at the cap is a torn tail") true
          (read (be32 fmt.max_len) = Ok n)
      end
      else begin
        check_bool (fmt.name ^ ": length at the cap waits") true (read (be32 fmt.max_len) = Ok n);
        check_bool (fmt.name ^ ": empty frame") true
          (extract empty_frame ~pos:0 = Frame.Frame ("", 8))
      end)
    formats

let prop_format fmt =
  let arb =
    QCheck.make
      ~print:(fun (s, cut, flip, mask) ->
        Printf.sprintf "%d-byte image, frames end at [%s], cut %d, flip %d ^ 0x%02x"
          (String.length s.image)
          (String.concat "; " (List.map string_of_int s.ends))
          cut flip mask)
      QCheck.Gen.(quad fmt.gen (int_bound 100_000) (int_bound 100_000) (int_range 1 255))
  in
  QCheck.Test.make ~name:(fmt.name ^ ": round trip, truncation, damage") ~count:150 arb
    (fun (s, cut, flip, mask) ->
      let len = String.length s.image in
      s.decode s.image = Ok (List.length s.ends)
      && check_cut fmt s (cut mod len)
      && check_flip fmt s (flip mod len) mask)

(* Every cut, exhaustively, on one fixed image per format. *)
let test_every_cut () =
  List.iter
    (fun fmt ->
      let s = QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |]) fmt.gen in
      for k = 0 to String.length s.image - 1 do
        if not (check_cut fmt s k) then Alcotest.failf "%s: cut at byte %d misread" fmt.name k
      done)
    formats

(* --- greeting ------------------------------------------------------------- *)

let test_greet () =
  let magic = Wire.magic in
  check_bool "short buffer waits" true (Frame.greet ~magic "BGRS" = None);
  check_bool "magic then bytes" true (Frame.greet ~magic (magic ^ "xy") = Some (Ok "xy"));
  check_bool "exact magic" true (Frame.greet ~magic magic = Some (Ok ""));
  check_bool "wrong magic" true (Frame.greet ~magic "NOTBGR!" = Some (Error "NOTBGR"))

(* --- the malformed daemon-input corpus ------------------------------------ *)

(* Verdicts recorded from the encoders and decoders before the codec
   was shared; a change here is a change of protocol behaviour. *)
let corpus_verdicts =
  [ ("at_cap_length.bin", [ "need 16777217" ]);
    ("bad_crc.bin", [ "bad: frame CRC mismatch (recorded 33a25122, computed 33a251dd)" ]);
    ( "empty_payload.bin",
      [ "request error: empty request payload"; "event error: empty worker event payload";
        "need 4" ] );
    ( "oversized_length.bin",
      [ "bad: frame declares a 536870912-byte payload; the protocol caps payloads at 16777216" ] );
    ( "progress_truncated.bin",
      [ "request error: unknown request opcode 0x86";
        "event error: unknown worker event opcode 0x86"; "need 4" ] );
    ( "stats_trailing.bin",
      [ "request error: stats message carries 3 trailing bytes";
        "event error: unknown worker event opcode 0x09"; "need 4" ] );
    ("truncated_frame.bin", [ "need 6" ]);
    ( "unknown_opcode.bin",
      [ "request error: unknown request opcode 0x7f";
        "event error: unknown worker event opcode 0x7f"; "need 4" ] );
    ( "watch_truncated_job.bin",
      [ "request error: request body is truncated (opcode 0x08)";
        "event error: unknown worker event opcode 0x08"; "need 4" ] ) ]

let replay s =
  let rec go pos acc =
    match extract s ~pos with
    | Frame.Need n -> List.rev (Printf.sprintf "need %d" n :: acc)
    | Frame.Bad e -> List.rev (("bad: " ^ e.Bgr_error.message) :: acc)
    | Frame.Frame (payload, used) ->
      let rq =
        match Wire.decode_request payload with
        | Ok _ -> "request ok"
        | Error e -> "request error: " ^ e.Bgr_error.message
      in
      let ev =
        match Worker.decode_event payload with
        | Ok _ -> "event ok"
        | Error e -> "event error: " ^ e.Bgr_error.message
      in
      go (pos + used) (ev :: rq :: acc)
  in
  go 0 []

let test_corpus_replay () =
  let dir = data_dir "corpus/serve" in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  check_bool "every corpus file has a verdict" true (files = List.map fst corpus_verdicts);
  List.iter
    (fun (file, expected) ->
      Alcotest.(check (list string)) file expected (replay (read_bytes (Filename.concat dir file))))
    corpus_verdicts

let () =
  Alcotest.run "frame"
    [ ( "golden",
        [ Alcotest.test_case "BGRJ1 journal" `Quick test_golden_journal;
          Alcotest.test_case "BGRQ1 quality log" `Quick test_golden_quality;
          Alcotest.test_case "BGRF1 flight record" `Quick test_golden_flight;
          Alcotest.test_case "BGRS1 request and reply" `Quick test_golden_wire;
          Alcotest.test_case "BGRW1 worker events" `Quick test_golden_worker ] );
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_format formats)
        @ [ Alcotest.test_case "every cut of one image per format" `Quick test_every_cut;
            Alcotest.test_case "declared length bounds" `Quick test_length_bounds;
            Alcotest.test_case "stream greeting" `Quick test_greet ] );
      ("corpus", [ Alcotest.test_case "serve corpus verdicts" `Quick test_corpus_replay ]) ]
