(* Load test for the routing daemon: an in-process server under
   concurrent closed-loop clients.

     serve_load [--clients K] [--jobs-per-client M] [--cap N] [--bench-out PATH]
                [--worker-exe BGR_SERVE] [--hang-n K] [--kill-n K]
                [--heartbeat-timeout-ms MS] [--quarantine-kills N]
                [--scrape-ms MS]

   K client domains each submit M routing jobs (the MINI design,
   wait-mode) over their own connection.  Admission sheds are counted
   and retried after a short pause, so the drive pushes the daemon into
   its overload regime without losing work.  The report: throughput,
   latency percentiles, shed/retry counts, and the registry payload on
   one BENCH_METRICS_JSON line (persisted via --bench-out).  Every
   job's deletion hash is checked against the uninterrupted in-process
   run: load must never change the answer.

   Before the drive the bench also charges the always-on flight
   recorder: per-event record cost times the events one route records,
   as a fraction of the route's wall clock ([--overhead-reps N] routing
   reps, default 5), reported as serve_load_recorder_overhead_pct in
   the payload and gated under 2 % — with the deletion hash checked
   bit-identical with the recorder off and on.

   --worker-exe switches the daemon to worker isolation (the argument
   is the bgr_serve binary); --hang-n / --kill-n then install a
   BGR_FAULT_PLAN chaos mix where each job's K-th attempt hangs its
   worker / SIGKILLs it, so the drive exercises the watchdog and
   crash-resume machinery under concurrency.

   --scrape-ms adds a scraping client: its own connection polling the
   stats opcode (alternating json and Prometheus text) every MS
   milliseconds for the whole drive, asserting mid-run freshness — the
   exposition must be well-formed and its job counters must advance
   while jobs are still completing, i.e. without any drain. *)

let arg_int name default =
  let v = ref default in
  Array.iteri
    (fun i a ->
      if a = name && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with Some n -> v := n | None -> ())
    Sys.argv;
  !v

let arg_str name =
  let v = ref None in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then v := Some Sys.argv.(i + 1))
    Sys.argv;
  !v

let bench_out_path () =
  let from_argv = ref None in
  Array.iteri
    (fun i a ->
      if a = "--bench-out" && i + 1 < Array.length Sys.argv then
        from_argv := Some Sys.argv.(i + 1)
      else if String.length a > 12 && String.sub a 0 12 = "--bench-out=" then
        from_argv := Some (String.sub a 12 (String.length a - 12)))
    Sys.argv;
  !from_argv

(* load-driver metric families (client-side view of the daemon) *)
let g_throughput =
  Obs.Metrics.gauge ~help:"Completed routing jobs per second under load"
    "serve_load_throughput_jobs_per_s"

let g_latency =
  Obs.Metrics.gauge ~help:"Client-observed job latency percentiles (ms)"
    ~labels:[ "quantile" ] "serve_load_latency_ms"

let g_shed =
  Obs.Metrics.gauge ~help:"Submissions shed by admission control during the drive"
    "serve_load_shed_total"

let g_overhead =
  Obs.Metrics.gauge
    ~help:"Flight-recorder routing overhead, percent of recorder-off wall clock"
    "serve_load_recorder_overhead_pct"

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

type client_report = { latencies : float list; shed : int; failures : string list }

let () =
  let clients = arg_int "--clients" 4 in
  let jobs_per_client = arg_int "--jobs-per-client" 3 in
  let cap = arg_int "--cap" 4 in
  let worker_exe = arg_str "--worker-exe" in
  let hang_n = arg_int "--hang-n" 0 in
  let kill_n = arg_int "--kill-n" 0 in
  let heartbeat_timeout_ms = arg_int "--heartbeat-timeout-ms" 10_000 in
  let quarantine_kills = arg_int "--quarantine-kills" 3 in
  let scrape_ms = arg_int "--scrape-ms" 0 in
  (* The plan is read from the environment once per process, so it must
     be in place before any worker subprocess starts.  Worker fault
     sites never trip in this process, so loading it here is inert. *)
  let fault_plan =
    (if hang_n > 0 then [ Printf.sprintf "serve.worker.hang:n=%d" hang_n ] else [])
    @ if kill_n > 0 then [ Printf.sprintf "serve.worker.kill:n=%d" kill_n ] else []
  in
  if fault_plan <> [] then Unix.putenv "BGR_FAULT_PLAN" (String.concat ";" fault_plan);
  Obs.enable ();
  let input = (Suite.mini ()).Suite.input in
  let design =
    let fp = Flow.floorplan_of_input input in
    Design_io.to_string ~floorplan:fp ~constraints:input.Flow.constraints input.Flow.netlist
  in
  let options = { Router.default_options with Router.domains = 1 } in
  let reference = (Flow.run ~options input).Flow.o_measurement.Flow.m_deletion_hash in
  (* The flight recorder is always on, so its cost is baked into every
     number this bench reports.  Charge it explicitly.  A wall-clock
     A/B cannot resolve a sub-2 % delta on a ~35 ms route on a shared
     machine (run-to-run swing is an order of magnitude larger), so
     the attribution is composed from quiet measurements instead:
     the hot per-event record cost (tight loop, ring wrap included)
     times the events one route records, over the route's best
     wall clock.  The recorder's inertness is still checked exactly —
     hashes with it off and on must match the reference bit-for-bit. *)
  let overhead_reps = arg_int "--overhead-reps" 5 in
  let time_route () =
    let t = Unix.gettimeofday () in
    let h = (Flow.run ~options input).Flow.o_measurement.Flow.m_deletion_hash in
    (Unix.gettimeofday () -. t, h)
  in
  ignore (time_route ());
  Flight.set_enabled false;
  let _, h_off = time_route () in
  Flight.set_enabled true;
  let events_before = Flight.recorded () in
  let t_on = ref infinity and h_on = ref 0 in
  for _ = 1 to overhead_reps do
    let dt, h = time_route () in
    if dt < !t_on then t_on := dt;
    h_on := h
  done;
  let events_per_route = (Flight.recorded () - events_before) / overhead_reps in
  let per_event_s =
    let n = 2_000_000 in
    let t = Unix.gettimeofday () in
    for i = 1 to n do
      Flight.record Flight.k_heartbeat ~a:1 ~b:2 ~c:i ~d:(-7)
    done;
    (Unix.gettimeofday () -. t) /. float_of_int n
  in
  let recorder_overhead_pct =
    float_of_int events_per_route *. per_event_s /. !t_on *. 100.0
  in
  Obs.Metrics.set g_overhead recorder_overhead_pct;
  Printf.printf
    "recorder overhead: %d events/route x %.0f ns over %.1f ms routed = %.3f%% (gate < 2%%)\n%!"
    events_per_route (per_event_s *. 1e9) (!t_on *. 1000.0) recorder_overhead_pct;
  if h_off <> reference || !h_on <> reference then begin
    Printf.printf "FAILURE: recorder toggling changed the deletion hash (off %d, on %d, ref %d)\n"
      h_off !h_on reference;
    exit 1
  end;
  if recorder_overhead_pct >= 2.0 then begin
    Printf.printf "FAILURE: flight-recorder overhead %.3f%% breaches the 2%% gate\n"
      recorder_overhead_pct;
    exit 1
  end;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bgrload%d" (Unix.getpid ()))
  in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket_path = Filename.concat root "s.sock" in
  let cfg =
    { (Serve.default_config ~socket_path ~spool_root:(Filename.concat root "spool")) with
      Serve.queue_cap = cap;
      job_domains = 1;
      isolation =
        (match worker_exe with
        | None -> Serve.In_process
        | Some exe -> Serve.Workers [| exe; "worker" |]);
      heartbeat_timeout_ms = float_of_int heartbeat_timeout_ms;
      quarantine_kills }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Printf.printf "serve load: %d clients x %d jobs, admission cap %d\n%!" clients
    jobs_per_client cap;
  let hash_of json =
    Result.to_option (Qjson.parse json)
    |> Fun.flip Option.bind (Qjson.member "deletion_hash")
    |> Fun.flip Option.bind Qjson.to_str
    |> Fun.flip Option.bind int_of_string_opt
  in
  let t0 = Unix.gettimeofday () in
  (* The scraping client: proof the stats plane answers mid-run.  It
     keeps polling on its own connection until the drive ends, so every
     sample lands while the daemon is busy, not after the drain. *)
  let scrape_stop = Atomic.make false in
  let scraper () =
    if scrape_ms <= 0 then (0, 0, [])
    else
      match Serve_client.connect socket_path with
      | Error e -> (0, 0, [ Printf.sprintf "scraper: %s" e.Bgr_error.message ])
      | Ok c ->
        let scrapes = ref 0 and fresh = ref 0 and fails = ref [] in
        let jobs_total body =
          (* sum of serve_jobs_total series in the Prometheus text *)
          List.fold_left
            (fun acc line ->
              if String.length line > 16 && String.sub line 0 16 = "serve_jobs_total" then
                match String.rindex_opt line ' ' with
                | None -> acc
                | Some i -> (
                  match
                    float_of_string_opt
                      (String.sub line (i + 1) (String.length line - i - 1))
                  with
                  | Some v -> acc +. v
                  | None -> acc)
              else acc)
            0.0
            (String.split_on_char '\n' body)
        in
        let last_total = ref (-1.0) in
        while not (Atomic.get scrape_stop) do
          let prom = !scrapes mod 2 = 1 in
          (match Serve_client.request ~timeout_s:30.0 c (Wire.Stats { prom }) with
          | Ok (Wire.Rstats { body; prom = p }) ->
            incr scrapes;
            if p <> prom || body = "" then
              fails := Printf.sprintf "scraper: bad rstats (prom %b)" prom :: !fails
            else if prom then begin
              if not (String.length body > 0 && body.[0] = '#') then
                fails := "scraper: prom exposition lacks # comments" :: !fails;
              let total = jobs_total body in
              if total > !last_total then begin
                incr fresh;
                last_total := total
              end
            end
            else (
              match Qjson.parse body with
              | Ok _ -> ()
              | Error m -> fails := Printf.sprintf "scraper: json scrape: %s" m :: !fails)
          | Ok _ -> fails := "scraper: unexpected reply to stats" :: !fails
          | Error e ->
            fails := Printf.sprintf "scraper: %s" e.Bgr_error.message :: !fails;
            Atomic.set scrape_stop true);
          Unix.sleepf (float_of_int scrape_ms /. 1000.0)
        done;
        Serve_client.close c;
        (!scrapes, !fresh, !fails)
  in
  let scraper_domain = Domain.spawn scraper in
  let client k () =
    match Serve_client.connect socket_path with
    | Error e -> { latencies = []; shed = 0; failures = [ e.Bgr_error.message ] }
    | Ok c ->
      let shed = ref 0 and lats = ref [] and fails = ref [] in
      for j = 1 to jobs_per_client do
        let name = Printf.sprintf "c%d-j%d" k j in
        let rec submit () =
          let js = Unix.gettimeofday () in
          match
            Serve_client.request ~timeout_s:300.0 c
              (Wire.Route
                 { wait = true; progress = false; timing_driven = true; deadline_ms = None;
                   name = Some name; design })
          with
          | Ok (Wire.Overloaded _) ->
            (* shed: back off briefly, resubmit (closed loop) *)
            incr shed;
            Unix.sleepf 0.05;
            submit ()
          | Ok (Wire.Accepted _) -> (
            match Serve_client.next_reply ~timeout_s:300.0 c with
            | Ok (Wire.Result { ok = true; json; _ }) ->
              lats := (Unix.gettimeofday () -. js) *. 1000.0 :: !lats;
              if hash_of json <> Some reference then
                fails := Printf.sprintf "%s: wrong hash in %s" name json :: !fails
            | Ok (Wire.Result { ok = false; json; _ }) ->
              fails := Printf.sprintf "%s: failed: %s" name json :: !fails
            | Ok _ -> fails := Printf.sprintf "%s: unexpected reply" name :: !fails
            | Error e -> fails := Printf.sprintf "%s: %s" name e.Bgr_error.message :: !fails)
          | Ok _ -> fails := Printf.sprintf "%s: unexpected reply" name :: !fails
          | Error e -> fails := Printf.sprintf "%s: %s" name e.Bgr_error.message :: !fails
        in
        submit ()
      done;
      Serve_client.close c;
      { latencies = !lats; shed = !shed; failures = !fails }
  in
  let reports =
    Array.init clients (fun k -> Domain.spawn (client k)) |> Array.map Domain.join
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Stop the scraper before the drain: every counted sample was
     answered by a busy daemon. *)
  Atomic.set scrape_stop true;
  let scrapes, fresh_scrapes, scrape_fails = Domain.join scraper_domain in
  (* drain the daemon *)
  (match Serve_client.connect socket_path with
  | Ok c ->
    ignore (Serve_client.request ~timeout_s:30.0 c Wire.Shutdown);
    Serve_client.close c
  | Error _ -> ());
  let stats = Domain.join server in
  let lats =
    Array.of_list (List.concat_map (fun r -> r.latencies) (Array.to_list reports))
  in
  Array.sort compare lats;
  let shed = Array.fold_left (fun a r -> a + r.shed) 0 reports in
  let failures = List.concat_map (fun r -> r.failures) (Array.to_list reports) in
  let completed = Array.length lats in
  let throughput = float_of_int completed /. wall_s in
  let p50 = percentile lats 0.50 and p90 = percentile lats 0.90 and p99 = percentile lats 0.99 in
  Obs.Metrics.set g_throughput throughput;
  Obs.Metrics.set ~labels:[ ("quantile", "0.5") ] g_latency p50;
  Obs.Metrics.set ~labels:[ ("quantile", "0.9") ] g_latency p90;
  Obs.Metrics.set ~labels:[ ("quantile", "0.99") ] g_latency p99;
  Obs.Metrics.set g_shed (float_of_int shed);
  Printf.printf "completed %d jobs in %.2f s (%.2f jobs/s)\n" completed wall_s throughput;
  Printf.printf "latency ms: p50 %.0f  p90 %.0f  p99 %.0f\n" p50 p90 p99;
  Printf.printf "admission sheds: %d (all resubmitted and completed)\n" shed;
  Printf.printf
    "daemon stats: accepted %d, completed %d, failed %d, retried %d, rejected %d, worker \
     kills %d, quarantined %d\n"
    stats.Serve.s_accepted stats.Serve.s_completed stats.Serve.s_failed
    stats.Serve.s_retried stats.Serve.s_rejected stats.Serve.s_killed
    stats.Serve.s_quarantined;
  if scrape_ms > 0 then begin
    Printf.printf "SERVE_LOAD_SCRAPES total=%d fresh=%d\n" scrapes fresh_scrapes;
    if scrapes = 0 then Printf.printf "FAILURE: scraper took no samples\n";
    if fresh_scrapes < 2 then
      Printf.printf "FAILURE: stats plane never advanced mid-run (fresh=%d)\n" fresh_scrapes;
    if scrapes = 0 || fresh_scrapes < 2 then exit 1
  end;
  let failures = failures @ scrape_fails in
  List.iter (fun f -> Printf.printf "FAILURE: %s\n" f) failures;
  if failures <> [] then exit 1;
  if completed <> clients * jobs_per_client then begin
    Printf.printf "FAILURE: %d of %d jobs completed\n" completed (clients * jobs_per_client);
    exit 1
  end;
  Printf.printf "determinism: all %d results carry the uninterrupted hash %d\n" completed
    reference;
  let payload = Obs.Metrics.render_json () in
  Printf.printf "BENCH_METRICS_JSON %s\n" payload;
  (match bench_out_path () with
  | None -> ()
  | Some path -> (
    match
      let oc = open_out path in
      output_string oc payload;
      output_char oc '\n';
      close_out oc
    with
    | () -> Printf.printf "wrote metrics payload to %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "warning: cannot write bench metrics to %s: %s\n%!" path msg))
