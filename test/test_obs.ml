(* The observability subsystem must observe without perturbing: unit
   tests of span nesting and the registry, golden Chrome-trace / JSONL
   / Prometheus renderings under an injected clock, a QCheck histogram
   invariant, sink-fault degradation, and the headline property — a
   run with tracing enabled produces a deletion hash byte-identical to
   the same run without it, sequentially and on four domains. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* dune runtest runs in test/; dune exec from the repo root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus"

(* Hand-cranked clock (seconds).  Values are multiples of 0.5 so every
   subtraction and *1e6 below is exact in binary floating point. *)
let t_ref = ref 0.0

let with_test_clock f =
  Obs.set_clock_for_tests (Some (fun () -> !t_ref));
  t_ref := 100.0;
  Obs.enable ();
  Obs.reset ();
  (* epoch re-stamped from the test clock: 100.0s *)
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_clock_for_tests None)
    f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fixed scenario used by the nesting and both trace-golden tests:
   outer [0s..2s] containing inner [0.5s..1s] (one attr at open, one
   attached later to outer) and an instant at 0.5s. *)
let record_scenario () =
  t_ref := 100.0;
  Obs.Trace.span "outer" (fun () ->
      t_ref := 100.5;
      Obs.Trace.span "inner" ~attrs:[ ("k", Obs.Trace.Int 3) ] (fun () ->
          Obs.Trace.instant "tick";
          t_ref := 101.0);
      Obs.Trace.add_attr "note" (Obs.Trace.Str "x");
      t_ref := 102.0)

(* ---- span nesting and ordering ------------------------------------- *)

let test_span_nesting () =
  with_test_clock (fun () ->
      record_scenario ();
      match Obs.Trace.completed () with
      | [ tick; inner; outer ] ->
        (* completion order: children before parents *)
        check_string "instant first" "tick" tick.Obs.Trace.sp_name;
        check_string "inner second" "inner" inner.Obs.Trace.sp_name;
        check_string "outer last" "outer" outer.Obs.Trace.sp_name;
        check_int "outer depth" 0 outer.Obs.Trace.sp_depth;
        check_int "inner depth" 1 inner.Obs.Trace.sp_depth;
        check_int "instant depth (both scopes open)" 2 tick.Obs.Trace.sp_depth;
        check_string "outer timestamps" "0 2000000"
          (Printf.sprintf "%.0f %.0f" outer.Obs.Trace.sp_start_us outer.Obs.Trace.sp_dur_us);
        check_string "inner timestamps" "500000 500000"
          (Printf.sprintf "%.0f %.0f" inner.Obs.Trace.sp_start_us inner.Obs.Trace.sp_dur_us);
        check_string "instant is zero-duration" "500000 0"
          (Printf.sprintf "%.0f %.0f" tick.Obs.Trace.sp_start_us tick.Obs.Trace.sp_dur_us);
        check_bool "inner keeps its open-time attr" true
          (inner.Obs.Trace.sp_attrs = [ ("k", Obs.Trace.Int 3) ]);
        check_bool "add_attr landed on outer" true
          (outer.Obs.Trace.sp_attrs = [ ("note", Obs.Trace.Str "x") ])
      | spans -> Alcotest.failf "expected 3 completed spans, got %d" (List.length spans))

let test_span_survives_exception () =
  with_test_clock (fun () ->
      t_ref := 10.0;
      (try
         Obs.Trace.span "doomed" (fun () ->
             t_ref := 10.5;
             failwith "boom")
       with Failure _ -> ());
      match Obs.Trace.completed () with
      | [ sp ] ->
        check_string "span recorded despite the raise" "doomed" sp.Obs.Trace.sp_name;
        check_string "duration covers up to the raise" "500000"
          (Printf.sprintf "%.0f" sp.Obs.Trace.sp_dur_us)
      | spans -> Alcotest.failf "expected 1 completed span, got %d" (List.length spans))

(* ---- cross-process stitching primitives ---------------------------- *)

let test_span_ids_and_foreign () =
  with_test_clock (fun () ->
      Obs.Trace.set_trace_id (Some "job-42");
      let captured = ref None in
      record_scenario ();
      Obs.Trace.set_trace_id None;
      Obs.Trace.span "probe" (fun () -> captured := Obs.Trace.current_span_id ());
      let spans = Obs.Trace.completed () in
      (* ids are 1-based ordinals in open order; parents link correctly *)
      let by_name n = List.find (fun s -> s.Obs.Trace.sp_name = n) spans in
      let outer = by_name "outer" and inner = by_name "inner" and tick = by_name "tick" in
      check_int "outer is span 1" 1 outer.Obs.Trace.sp_id;
      check_int "inner is span 2" 2 inner.Obs.Trace.sp_id;
      check_int "outer is a root" 0 outer.Obs.Trace.sp_parent;
      check_int "inner hangs off outer" 1 inner.Obs.Trace.sp_parent;
      check_int "the instant hangs off inner" 2 tick.Obs.Trace.sp_parent;
      check_int "default pid" 1 outer.Obs.Trace.sp_pid;
      check_bool "current_span_id sees the open span" true
        (!captured = Some (by_name "probe").Obs.Trace.sp_id);
      check_bool "ambient trace id lands in attrs" true
        (List.assoc_opt "trace_id" outer.Obs.Trace.sp_attrs = Some (Obs.Trace.Str "job-42"));
      check_bool "probe opened after the id was cleared" true
        (List.assoc_opt "trace_id" (by_name "probe").Obs.Trace.sp_attrs = None);
      (* foreign spans keep their pid/id/parent verbatim *)
      let foreign =
        { Obs.Trace.sp_name = "phase:route"; sp_start_us = 10.0; sp_dur_us = 20.0;
          sp_depth = 0; sp_id = 7; sp_parent = outer.Obs.Trace.sp_id; sp_pid = 4242;
          sp_attrs = [ ("trace_id", Obs.Trace.Str "job-42") ] }
      in
      Obs.Trace.emit_foreign foreign;
      match List.rev (Obs.Trace.completed ()) with
      | last :: _ ->
        check_string "foreign span retained" "phase:route" last.Obs.Trace.sp_name;
        check_int "foreign pid preserved" 4242 last.Obs.Trace.sp_pid;
        check_int "foreign id preserved" 7 last.Obs.Trace.sp_id;
        check_int "foreign parent preserved" outer.Obs.Trace.sp_id last.Obs.Trace.sp_parent
      | [] -> Alcotest.fail "no spans retained")

let test_parent_span_links_roots () =
  with_test_clock (fun () ->
      Obs.Trace.set_parent_span (Some 99);
      Obs.Trace.span "root" (fun () -> Obs.Trace.span "child" (fun () -> ()));
      Obs.Trace.set_parent_span None;
      Obs.Trace.span "after" (fun () -> ());
      let by_name n =
        List.find (fun s -> s.Obs.Trace.sp_name = n) (Obs.Trace.completed ())
      in
      check_int "depth-0 span adopts the foreign parent" 99 (by_name "root").Obs.Trace.sp_parent;
      check_int "nested spans keep their local parent" (by_name "root").Obs.Trace.sp_id
        (by_name "child").Obs.Trace.sp_parent;
      check_int "cleared: roots are roots again" 0 (by_name "after").Obs.Trace.sp_parent)

(* ---- metrics snapshot codec ---------------------------------------- *)

let snap_counter = Obs.Metrics.counter ~labels:[ "k" ] "test_snapshot_ops_total"
let snap_gauge = Obs.Metrics.gauge "test_snapshot_level"

let snap_hist =
  Obs.Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test_snapshot_lat_seconds"

let test_snapshot_roundtrip () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ())
  @@ fun () ->
  Obs.Metrics.inc ~labels:[ ("k", "a") ] ~by:3.0 snap_counter;
  Obs.Metrics.inc ~labels:[ ("k", "b") ] snap_counter;
  Obs.Metrics.set snap_gauge 17.5;
  Obs.Metrics.observe snap_hist 0.5;
  Obs.Metrics.observe snap_hist 99.0;
  let snap = Obs.Metrics.snapshot () in
  check_bool "snapshot has the magic line" true
    (String.length snap >= 13 && String.sub snap 0 13 = "bgr-metrics 1");
  (* merging a registry's own snapshot doubles counters and histogram
     tallies and leaves gauges at their (last-write) value *)
  let merged = Obs.Metrics.merge_snapshot ~source:"self" snap in
  check_bool "merged several series" true (merged >= 4);
  check_bool "counter doubled" true
    (Obs.Metrics.value ~labels:[ ("k", "a") ] snap_counter = Some 6.0);
  check_bool "other series too" true
    (Obs.Metrics.value ~labels:[ ("k", "b") ] snap_counter = Some 2.0);
  check_bool "gauge takes the snapshot value" true
    (Obs.Metrics.value snap_gauge = Some 17.5);
  (match Obs.Metrics.histogram_snapshot snap_hist with
  | Some (bounds, counts, sum, count) ->
    check_bool "bucket bounds intact" true (bounds = [| 1.0; 10.0 |]);
    check_bool "per-bucket counts doubled" true (counts = [| 2; 0; 2 |]);
    check_bool "sum doubled" true (Float.abs (sum -. 199.0) < 1e-9);
    check_int "count doubled" 4 count
  | None -> Alcotest.fail "histogram series vanished");
  (* garbage degrades to a warning, not an exception *)
  let before = List.length (Obs.warnings ()) in
  check_int "garbage merges zero series" 0
    (Obs.Metrics.merge_snapshot ~source:"junk" "not a snapshot\n");
  check_bool "and warns" true (List.length (Obs.warnings ()) > before)

(* ---- golden renderings --------------------------------------------- *)

let test_chrome_golden () =
  with_test_clock (fun () ->
      let path = Filename.temp_file "bgr_obs_chrome" ".json" in
      Obs.Trace.to_chrome_file path;
      record_scenario ();
      Obs.Trace.close_sinks ();
      let got = read_file path in
      Sys.remove path;
      let expected =
        "[\n\
         {\"name\":\"tick\",\"cat\":\"bgr\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":500000.000,\"s\":\"t\"},\n\
         {\"name\":\"inner\",\"cat\":\"bgr\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":500000.000,\"dur\":500000.000,\"args\":{\"k\":3}},\n\
         {\"name\":\"outer\",\"cat\":\"bgr\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":2000000.000,\"args\":{\"note\":\"x\"}}\n\
         ]\n"
      in
      check_string "chrome trace_event golden" expected got)

let test_jsonl_golden () =
  with_test_clock (fun () ->
      let path = Filename.temp_file "bgr_obs_jsonl" ".jsonl" in
      Obs.Trace.to_jsonl_file path;
      record_scenario ();
      Obs.Trace.close_sinks ();
      let got = read_file path in
      Sys.remove path;
      let expected =
        "{\"name\":\"tick\",\"start_us\":500000.000,\"dur_us\":0.000,\"depth\":2,\"id\":3,\"parent\":2,\"pid\":1}\n\
         {\"name\":\"inner\",\"start_us\":500000.000,\"dur_us\":500000.000,\"depth\":1,\"id\":2,\"parent\":1,\"pid\":1,\"args\":{\"k\":3}}\n\
         {\"name\":\"outer\",\"start_us\":0.000,\"dur_us\":2000000.000,\"depth\":0,\"id\":1,\"parent\":0,\"pid\":1,\"args\":{\"note\":\"x\"}}\n"
      in
      check_string "jsonl golden" expected got)

(* The test executable links the whole pipeline, so the registry holds
   every built-in family; golden-check the rendering of families this
   test owns (contiguous per-family blocks) rather than the whole
   exposition. *)
(* Unwrapped libraries drop unreferenced modules at link time, and with
   them the module-load metric registrations; touch the persist modules
   so their catalogue entries exist, as they do in bgr_run. *)
let () = ignore Journal.magic
let () = ignore Snapshot.write

let test_prometheus_golden () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Metrics.counter "test_obs_requests_total" ~help:"Total requests." ~labels:[ "code" ] in
  let g = Obs.Metrics.gauge "test_obs_temperature" in
  let h = Obs.Metrics.histogram "test_obs_latency_seconds" ~buckets:[| 0.1; 1.0 |] in
  Obs.Metrics.inc c ~labels:[ ("code", "200") ] ~by:3.0;
  Obs.Metrics.inc c ~labels:[ ("code", "500") ];
  Obs.Metrics.set g 36.5;
  List.iter (Obs.Metrics.observe h) [ 0.05; 0.5; 5.0 ];
  let text = Obs.Metrics.render_prometheus () in
  let contains block =
    let bl = String.length block and tl = String.length text in
    let rec scan i = i + bl <= tl && (String.sub text i bl = block || scan (i + 1)) in
    check_bool (Printf.sprintf "exposition contains %S" block) true (scan 0)
  in
  contains
    "# HELP test_obs_requests_total Total requests.\n\
     # TYPE test_obs_requests_total counter\n\
     test_obs_requests_total{code=\"200\"} 3\n\
     test_obs_requests_total{code=\"500\"} 1\n";
  contains "# TYPE test_obs_temperature gauge\ntest_obs_temperature 36.5\n";
  contains
    "# TYPE test_obs_latency_seconds histogram\n\
     test_obs_latency_seconds_bucket{le=\"0.1\"} 1\n\
     test_obs_latency_seconds_bucket{le=\"1\"} 2\n\
     test_obs_latency_seconds_bucket{le=\"+Inf\"} 3\n\
     test_obs_latency_seconds_sum 5.55\n\
     test_obs_latency_seconds_count 3\n";
  (* promtool-ish shape check over the whole exposition *)
  let is_name_char ch =
    (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
    || ch = '_' || ch = ':' || ch = '{' || ch = '}' || ch = '"' || ch = '=' || ch = ','
    || ch = '.' || ch = '+' || ch = '-' || ch = '/'
  in
  List.iter
    (fun line ->
      if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "# ") then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "sample line has no value: %S" line
        | Some i ->
          let name = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          check_bool (Printf.sprintf "sample name well-formed: %S" line) true
            (name <> "" && String.for_all is_name_char name);
          check_bool (Printf.sprintf "sample value parses: %S" line) true
            (float_of_string_opt v <> None)
      end)
    (String.split_on_char '\n' text);
  (* mandatory catalogue names render even on a run that routed nothing *)
  List.iter
    (fun m -> contains (Printf.sprintf "# TYPE %s " m))
    [ "bgr_deletions_total";
      "bgr_phase_duration_seconds";
      "bgr_channel_density_peak";
      "bgr_journal_append_seconds";
      "bgr_domain_busy_seconds" ];
  Obs.disable ();
  Obs.reset ()

(* ---- QCheck: histogram bucket invariant ---------------------------- *)

(* Families persist in the process-global registry, so every property
   iteration (shrinks included) registers under a fresh name. *)
let hist_n = ref 0

let prop_histogram_counts =
  QCheck.Test.make ~name:"bucket counts sum to observation count" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 6) small_nat)
        (small_list (int_range (-200) 2000)))
    (fun (raw_bounds, raw_obs) ->
      let bounds =
        List.sort_uniq compare (List.map (fun n -> float_of_int (n + 1)) raw_bounds)
      in
      QCheck.assume (bounds <> []);
      incr hist_n;
      let fam =
        Obs.Metrics.histogram
          (Printf.sprintf "test_obs_prop_hist_%d" !hist_n)
          ~buckets:(Array.of_list bounds)
      in
      Obs.enable ();
      List.iter (fun v -> Obs.Metrics.observe fam (float_of_int v)) raw_obs;
      match Obs.Metrics.histogram_snapshot fam with
      | None -> false
      | Some (bounds', counts, sum, count) ->
        Array.length counts = Array.length bounds' + 1
        && Array.fold_left ( + ) 0 counts = count
        && count = List.length raw_obs
        (* integer-valued observations: the sum is exact *)
        && sum = List.fold_left (fun a v -> a +. float_of_int v) 0.0 raw_obs)

(* ---- sink-fault degradation ---------------------------------------- *)

let test_sink_fault_degrades () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  let path = Filename.temp_file "bgr_obs_fault" ".json" in
  (match Fault.parse_plan "obs.sink:n=1" with
  | Error m -> Alcotest.failf "fault plan: %s" m
  | Ok plan ->
    Fault.with_plan plan (fun () ->
        Obs.Trace.to_chrome_file path;
        Obs.Trace.span "first" (fun () -> ());
        (* the first write tripped *)
        Obs.Trace.span "second" (fun () -> ());
        (* sink gone, still no raise *)
        Obs.Trace.close_sinks ());
    check_int "both spans still retained in memory" 2 (List.length (Obs.Trace.completed ()));
    check_bool "degradation left a warning" true (Obs.warnings () <> []));
  Obs.disable ();
  Obs.reset ();
  Sys.remove path

(* ---- sink replacement warns ---------------------------------------- *)

let test_double_sink_install_warns () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  let p1 = Filename.temp_file "bgr_obs_dbl" ".json" in
  let p2 = Filename.temp_file "bgr_obs_dbl" ".json" in
  Obs.Trace.to_chrome_file p1;
  check_bool "first install is silent" true (Obs.warnings () = []);
  Obs.Trace.to_chrome_file p2;
  let warned =
    List.exists
      (fun w ->
        let wl = String.length w in
        let rec has i = i + 8 <= wl && (String.sub w i 8 = "reopened" || has (i + 1)) in
        has 0)
      (Obs.warnings ())
  in
  check_bool "replacing an open sink records a warning" true warned;
  Obs.Trace.span "x" (fun () -> ());
  Obs.Trace.close_sinks ();
  (* the replacement sink is the live one: it got the event stream *)
  check_bool "second sink received the events" true
    (String.length (read_file p2) > String.length (read_file p1));
  Obs.disable ();
  Obs.reset ();
  Sys.remove p1;
  Sys.remove p2

(* ---- prometheus edge cases ----------------------------------------- *)

let contains_block text block =
  let bl = String.length block and tl = String.length text in
  let rec scan i = i + bl <= tl && (String.sub text i bl = block || scan (i + 1)) in
  scan 0

let test_prom_label_escaping () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  let c = Obs.Metrics.counter "test_obs_escape_total" ~labels:[ "path" ] in
  Obs.Metrics.inc c ~labels:[ ("path", "a\"b\\c\nd") ];
  let text = Obs.Metrics.render_prometheus () in
  check_bool "label value is exposition-escaped" true
    (contains_block text "test_obs_escape_total{path=\"a\\\"b\\\\c\\nd\"} 1\n");
  check_bool "no raw newline leaks into the sample line" true
    (not (contains_block text "a\"b\\c\nd"));
  Obs.disable ();
  Obs.reset ()

let test_histogram_no_observations () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  ignore (Obs.Metrics.histogram "test_obs_empty_hist_seconds" ~buckets:[| 0.5; 2.0 |]);
  let text = Obs.Metrics.render_prometheus () in
  check_bool "zero-observation histogram renders all-zero buckets" true
    (contains_block text
       "# TYPE test_obs_empty_hist_seconds histogram\n\
        test_obs_empty_hist_seconds_bucket{le=\"0.5\"} 0\n\
        test_obs_empty_hist_seconds_bucket{le=\"2\"} 0\n\
        test_obs_empty_hist_seconds_bucket{le=\"+Inf\"} 0\n\
        test_obs_empty_hist_seconds_sum 0\n\
        test_obs_empty_hist_seconds_count 0\n");
  Obs.disable ();
  Obs.reset ()

(* ---- the flight recorder ------------------------------------------- *)

let ft_ref = ref 0.0

let with_flight_clock f =
  Flight.reset_for_tests ();
  Flight.set_clock_for_tests (Some (fun () -> !ft_ref));
  ft_ref := 0.0;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_clock_for_tests None;
      Flight.set_enabled true;
      Flight.reset_for_tests ())
    f

let flight_events d =
  List.concat_map (fun rg -> rg.Flight.rg_events) d.Flight.f_rings

let test_flight_roundtrip () =
  with_flight_clock (fun () ->
      ft_ref := 0.25;
      Flight.record Flight.k_phase ~a:(Flight.phase_code "initial_route") ~b:0 ~c:0 ~d:0;
      ft_ref := 0.5;
      Flight.record Flight.k_deletion
        ~a:(Flight.phase_code "improve_delay")
        ~b:(Flight.criterion_code "delay")
        ~c:42
        ~d:((7 lsl 32) lor 10);
      ft_ref := 1.0;
      Flight.record Flight.k_heartbeat ~a:2 ~b:3 ~c:11 ~d:(Flight.margin_encode (-12.5));
      let s = Flight.dump_string ~reason:"unit" in
      check_string "magic leads the image" Flight.magic (String.sub s 0 6);
      match Flight.read_string s with
      | Error e -> Alcotest.failf "read_string: %s" (Bgr_error.to_string e)
      | Ok d -> (
        check_string "reason round-trips" "unit" d.Flight.f_reason;
        check_int "pid stamped" (Unix.getpid ()) d.Flight.f_pid;
        check_bool "not torn" false d.Flight.f_torn;
        check_bool "no warnings" true (d.Flight.f_warnings = []);
        match flight_events d with
        | [ p; del; hb ] ->
          check_int "phase kind" Flight.k_phase p.Flight.e_kind;
          check_int "phase code" (Flight.phase_code "initial_route") p.Flight.e_a;
          check_int "timestamp is µs under the test clock" 250_000 p.Flight.e_t_us;
          check_int "deletion kind" Flight.k_deletion del.Flight.e_kind;
          check_string "criterion name survives" "delay"
            (Flight.criterion_name del.Flight.e_b);
          check_int "net id" 42 del.Flight.e_c;
          check_int "edge packs the wide argument" 7 (del.Flight.e_d lsr 32);
          check_int "deletions-before packs too" 10 (del.Flight.e_d land 0xFFFFFFFF);
          check_bool "heartbeat margin decodes" true
            (Flight.margin_decode hb.Flight.e_d = -12.5)
        | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)))

let test_flight_ring_wrap () =
  with_flight_clock (fun () ->
      let n = 5000 in
      for i = 0 to n - 1 do
        Flight.record Flight.k_deletion ~a:0 ~b:0 ~c:i ~d:0
      done;
      check_int "recorded counts every event" n (Flight.recorded ());
      match Flight.read_string (Flight.dump_string ~reason:"wrap") with
      | Error e -> Alcotest.failf "read_string: %s" (Bgr_error.to_string e)
      | Ok d ->
        let ring =
          match d.Flight.f_rings with [ r ] -> r | _ -> Alcotest.fail "expected one ring"
        in
        check_int "total survives the wrap" n ring.Flight.rg_total;
        check_int "retained = ring capacity" 4096 (List.length ring.Flight.rg_events);
        (match ring.Flight.rg_events with
        | oldest :: _ ->
          check_int "oldest retained event is n - capacity" (n - 4096) oldest.Flight.e_c
        | [] -> Alcotest.fail "no events retained");
        (match List.rev ring.Flight.rg_events with
        | newest :: _ -> check_int "newest event retained" (n - 1) newest.Flight.e_c
        | [] -> ()))

let test_flight_torn_and_corrupt () =
  with_flight_clock (fun () ->
      Flight.record Flight.k_phase ~a:0 ~b:0 ~c:0 ~d:0;
      let s = Flight.dump_string ~reason:"salvage" in
      (* a torn final frame (the dumping process died mid-write) is
         salvaged: the ring frame is dropped with a warning *)
      (match Flight.read_string (String.sub s 0 (String.length s - 3)) with
      | Error e -> Alcotest.failf "torn tail must salvage: %s" (Bgr_error.to_string e)
      | Ok d ->
        check_bool "torn flag set" true d.Flight.f_torn;
        check_bool "salvage leaves a warning" true (d.Flight.f_warnings <> []);
        check_string "header frame still read" "salvage" d.Flight.f_reason);
      (* damage before the final frame is a structured Parse error *)
      let corrupt = Bytes.of_string s in
      Bytes.set corrupt 12 (Char.chr (Char.code (Bytes.get corrupt 12) lxor 0xFF));
      match Flight.read_string (Bytes.to_string corrupt) with
      | Ok _ -> Alcotest.fail "mid-file corruption must not parse"
      | Error e -> check_bool "code is Parse" true (e.Bgr_error.code = Bgr_error.Parse))

let test_flight_margin_codec () =
  check_bool "nan survives the round trip as nan" true
    (Float.is_nan (Flight.margin_decode (Flight.margin_encode nan)));
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "%g round-trips within a milli-ps" v)
        true
        (Float.abs (Flight.margin_decode (Flight.margin_encode v) -. v) <= 0.001))
    [ 0.0; -12.5; 110.6; -99999.0; 123456.789 ];
  check_bool "saturation stays finite and ordered" true
    (Flight.margin_decode (Flight.margin_encode 1e30)
    > Flight.margin_decode (Flight.margin_encode (-1e30)))

let test_flight_disabled () =
  with_flight_clock (fun () ->
      Flight.record Flight.k_phase ~a:0 ~b:0 ~c:0 ~d:0;
      let before = Flight.recorded () in
      Flight.set_enabled false;
      Flight.record Flight.k_phase ~a:1 ~b:0 ~c:0 ~d:0;
      check_int "disabled record is a no-op" before (Flight.recorded ());
      Flight.set_enabled true;
      Flight.record Flight.k_phase ~a:2 ~b:0 ~c:0 ~d:0;
      check_int "re-enabled records again" (before + 1) (Flight.recorded ()))

let test_flight_dump_file () =
  with_flight_clock (fun () ->
      Flight.record Flight.k_pool_round ~a:0 ~b:1 ~c:9 ~d:3;
      let path = Filename.temp_file "bgr_obs_flight" ".bgrf" in
      check_bool "dump_file succeeds" true (Flight.dump_file ~trigger:2 ~reason:"test" path);
      let d =
        match Flight.read ~path with
        | Ok d -> d
        | Error e -> Alcotest.failf "read: %s" (Bgr_error.to_string e)
      in
      Sys.remove path;
      check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
      let dump_ev =
        List.find_opt (fun e -> e.Flight.e_kind = Flight.k_dump) (flight_events d)
      in
      match dump_ev with
      | Some e -> check_int "the dump records its own trigger" 2 e.Flight.e_a
      | None -> Alcotest.fail "dump_file must record a k_dump event")

(* Satellite: the recorder must keep working while the tracer's sink
   is degrading — a crashing sink and a crashing process often arrive
   together, and the flight record is the artifact of last resort. *)
let test_sink_fault_with_flight_active () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  Flight.reset_for_tests ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Flight.reset_for_tests ())
  @@ fun () ->
  match Fault.parse_plan "obs.sink:n=1" with
  | Error m -> Alcotest.failf "fault plan: %s" m
  | Ok plan ->
    Fault.with_plan plan (fun () ->
        let path = Filename.temp_file "bgr_obs_flightsink" ".json" in
        Obs.Trace.to_chrome_file path;
        Flight.record Flight.k_phase ~a:0 ~b:0 ~c:0 ~d:0;
        Obs.Trace.span "tripwire" (fun () -> ());
        (* the sink just died; the recorder must not have noticed *)
        Flight.record Flight.k_phase ~a:1 ~b:0 ~c:0 ~d:0;
        Obs.Trace.close_sinks ();
        Sys.remove path;
        check_bool "sink degradation warned" true (Obs.warnings () <> []);
        match Flight.read_string (Flight.dump_string ~reason:"degraded-sink") with
        | Error e -> Alcotest.failf "flight dump: %s" (Bgr_error.to_string e)
        | Ok d ->
          check_int "both events recorded across the sink failure" 2
            (List.length (flight_events d)))

(* Satellite: the --metrics scrape target is rewritten atomically and
   durably (temp + fsync + rename) — a scraper or a post-crash boot
   must never observe a half-written exposition. *)
let test_metrics_atomic_rewrite () =
  let path = Filename.temp_file "bgr_obs_atomic" ".prom" in
  Obs.write_file_atomic path "first exposition\n";
  check_string "content lands" "first exposition\n" (read_file path);
  Obs.write_file_atomic path "second exposition, longer than the first\n";
  check_string "rewrite replaces wholesale" "second exposition, longer than the first\n"
    (read_file path);
  check_bool "no temp-file residue" false (Sys.file_exists (path ^ ".tmp"));
  (* failure leaves the previous content untouched *)
  (match Obs.write_file_atomic (Filename.concat path "not-a-dir") "x" with
  | () -> Alcotest.fail "writing under a file must fail"
  | exception Sys_error _ -> ());
  check_string "failed write leaves the target intact"
    "second exposition, longer than the first\n" (read_file path);
  Sys.remove path

(* ---- router.log instants ------------------------------------------- *)

let mini_input () = (Suite.mini ()).Suite.input

let test_router_log () =
  Obs.set_clock_for_tests None;
  Obs.enable ();
  Obs.reset ();
  ignore (Flow.run (mini_input ()));
  let logs =
    List.filter (fun sp -> sp.Obs.Trace.sp_name = "router.log") (Obs.Trace.completed ())
  in
  check_bool "router.log instants recorded" true (logs <> []);
  Obs.disable ();
  Obs.reset ()

(* ---- bit-identity: observability never changes a routing decision -- *)

let load_corpus name =
  let path = Filename.concat corpus_dir name in
  match
    Result.bind (Design_io.read_result path) Design_check.validate
    |> Result.map_error (Bgr_error.with_file path)
  with
  | Ok bundle -> Design_io.to_flow_input bundle
  | Error e -> Alcotest.failf "%s: %s" name (Bgr_error.to_string e)

(* Exact fingerprint: floats as hex so the comparison is bitwise, plus
   the order-sensitive deletion hash (same idiom as test_parallel). *)
let fingerprint (outcome : Flow.outcome) =
  let m = outcome.Flow.o_measurement in
  Printf.sprintf "delay=%h area=%h len=%h viol=%d del=%d tracks=[%s] hash=%d"
    m.Flow.m_delay_ps m.Flow.m_area_mm2 m.Flow.m_length_mm m.Flow.m_violations
    m.Flow.m_deletions
    (String.concat ";" (Array.to_list (Array.map string_of_int m.Flow.m_tracks)))
    (Router.deletion_hash outcome.Flow.o_router)

let test_bit_identity () =
  Obs.set_clock_for_tests None;
  List.iter
    (fun (name, domains) ->
      let input = load_corpus name in
      let options = { Router.default_options with Router.domains } in
      Obs.disable ();
      Obs.reset ();
      let plain = fingerprint (Flow.run ~options input) in
      let trace_path = Filename.temp_file "bgr_obs_id" ".json" in
      let jsonl_path = Filename.temp_file "bgr_obs_id" ".jsonl" in
      Obs.enable ();
      Obs.Trace.to_chrome_file trace_path;
      Obs.Trace.to_jsonl_file jsonl_path;
      let traced = fingerprint (Flow.run ~options input) in
      Obs.Trace.close_sinks ();
      check_bool (name ^ ": the traced run actually wrote a trace") true
        (read_file trace_path <> "");
      Obs.disable ();
      Obs.reset ();
      Sys.remove trace_path;
      Sys.remove jsonl_path;
      check_string
        (Printf.sprintf "%s, %d domain(s): tracing on = tracing off" name domains)
        plain traced)
    [ ("valid_mini.bgr", 1); ("valid_mini.bgr", 4); ("valid_gen.bgr", 1); ("valid_gen.bgr", 4) ]

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "span recorded on exception" `Quick test_span_survives_exception;
          Alcotest.test_case "chrome trace_event golden" `Quick test_chrome_golden;
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "span ids, trace ids, foreign spans" `Quick
            test_span_ids_and_foreign;
          Alcotest.test_case "foreign parent links depth-0 spans" `Quick
            test_parent_span_links_roots ] );
      ( "metrics",
        [ Alcotest.test_case "prometheus golden + shape" `Quick test_prometheus_golden;
          Alcotest.test_case "snapshot codec round trip + merge" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "label-value escaping" `Quick test_prom_label_escaping;
          Alcotest.test_case "histogram with zero observations" `Quick
            test_histogram_no_observations;
          QCheck_alcotest.to_alcotest prop_histogram_counts ] );
      ( "flight",
        [ Alcotest.test_case "record/dump/read round trip" `Quick test_flight_roundtrip;
          Alcotest.test_case "ring wrap keeps the newest events" `Quick test_flight_ring_wrap;
          Alcotest.test_case "torn tail salvages, corruption rejects" `Quick
            test_flight_torn_and_corrupt;
          Alcotest.test_case "margin codec (nan round trip)" `Quick test_flight_margin_codec;
          Alcotest.test_case "disabled recorder is a no-op" `Quick test_flight_disabled;
          Alcotest.test_case "dump_file records its trigger" `Quick test_flight_dump_file ] );
      ( "resilience",
        [ Alcotest.test_case "sink fault degrades to warning" `Quick test_sink_fault_degrades;
          Alcotest.test_case "sink fault with the recorder active" `Quick
            test_sink_fault_with_flight_active;
          Alcotest.test_case "metrics rewrite is atomic + durable" `Quick
            test_metrics_atomic_rewrite;
          Alcotest.test_case "double sink install warns" `Quick test_double_sink_install_warns;
          Alcotest.test_case "router.log instants recorded" `Quick test_router_log ] );
      ( "determinism",
        [ Alcotest.test_case "deletion hash identical with tracing on" `Slow test_bit_identity ]
      ) ]
