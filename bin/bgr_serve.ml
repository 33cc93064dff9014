(* CLI for the routing daemon.

     bgr_serve daemon --socket S --spool DIR     serve until drained
     bgr_serve worker --dir JOBDIR               one isolated routing attempt
     bgr_serve submit --socket S design.bgr      route a design bundle
     bgr_serve wait --socket S JOB               block until JOB finishes
     bgr_serve resume --socket S JOB             revive a dead-lettered job
     bgr_serve cancel --socket S JOB             cancel a queued or running job
     bgr_serve revive --socket S [--force] JOB   re-queue a dead or quarantined job
     bgr_serve status --socket S [JOB]           daemon or job status
     bgr_serve watch --socket S JOB              live progress tail of JOB
     bgr_serve stats --socket S [--prom]         live metrics snapshot
     bgr_serve analyze --socket S JOB            quality summary of JOB
     bgr_serve dump --socket S                   flight-recorder snapshot
     bgr_serve shutdown --socket S               ask the daemon to drain *)

open Cmdliner

let exit_overloaded = 12
let exit_canceled = 13
let exit_quarantined = 14

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix domain socket the daemon serves on (keep the path short: the OS caps it).")

let fail_error (e : Bgr_error.t) =
  Printf.eprintf "bgr_serve: %s\n%!" (Bgr_error.to_string e);
  exit (Bgr_error.exit_code e.Bgr_error.code)

let exit_of_code_name name =
  match Bgr_error.code_of_name name with
  | Some c -> Bgr_error.exit_code c
  | None -> (
    (* Daemon verdicts outside the pipeline taxonomy. *)
    match name with
    | "canceled" -> exit_canceled
    | "quarantined" -> exit_quarantined
    | _ -> exit_overloaded)

let fail_reply code message =
  Printf.eprintf "bgr_serve: daemon refused: [%s] %s\n%!" code message;
  exit (exit_of_code_name code)

let connect socket =
  match Serve_client.connect socket with Ok c -> c | Error e -> fail_error e

(* A Result reply carries the job's stored JSON; surface it verbatim
   plus the grep-friendly hash line the crash-recovery CI keys on. *)
let print_result_json json =
  print_endline json;
  match Qjson.parse json with
  | Error _ -> ()
  | Ok j -> (
    (match
       Option.bind
         (Option.bind (Qjson.member "deletion_hash" j) Qjson.to_str)
         int_of_string_opt
     with
    | Some h -> Printf.printf "deletion hash %d\n" h
    | None -> ());
    match Option.bind (Qjson.member "ok" j) (function Qjson.Bool b -> Some b | _ -> None) with
    | Some false ->
      let code =
        Option.value ~default:"internal"
          (Option.bind (Qjson.member "code" j) Qjson.to_str)
      in
      exit (exit_of_code_name code)
    | _ -> ())

let handle_common_reply = function
  | Wire.Rerror { code; message } -> fail_reply code message
  | Wire.Overloaded { reason; depth; cap } ->
    Printf.eprintf "bgr_serve: overloaded (%s): %d of %d slots in use\n%!" reason depth cap;
    exit exit_overloaded
  | reply -> reply

(* Read replies until the final Result, echoing any progress frames
   (one json line each) as they arrive. *)
let rec await_result c =
  match Serve_client.next_reply c with
  | Error e -> fail_error e
  | Ok (Wire.Progress { json; _ }) ->
    print_endline json;
    flush stdout;
    await_result c
  | Ok (Wire.Result { json; _ }) -> print_result_json json
  | Ok reply -> ignore (handle_common_reply reply)

(* --- daemon ------------------------------------------------------------ *)

let daemon_cmd =
  let spool_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR" ~doc:"Spool directory (jobs/ and dead/ live under it).")
  in
  let cap_arg =
    Arg.(
      value & opt int 16
      & info [ "cap" ] ~docv:"N"
          ~doc:"Admission cap: queued plus running jobs beyond it are refused as overloaded.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 2
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Attempts per job before it moves to the dead-letter directory.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 250.0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry backoff; it doubles with every further attempt.")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:"Router scoring domains per job (0 = auto).  Jobs run one at a time either way.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-job wall budget when the submission names none.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Rewrite the Prometheus metrics exposition there atomically: at startup, on \
             SIGUSR1, every $(b,--metrics-interval-s), and when the daemon drains.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 0.0
      & info [ "metrics-interval-s" ] ~docv:"S"
          ~doc:
            "Also rewrite the $(b,--metrics) file every S seconds, so kill -9 loses at most \
             one interval of counters (0 = only startup/SIGUSR1/drain writes).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.json"
          ~doc:
            "Record the daemon's spans as a Chrome trace_event file and stitch each worker's \
             spans and metrics back in (one Perfetto timeline across processes).")
  in
  let backoff_max_arg =
    Arg.(
      value & opt float 30_000.0
      & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Cap on the (jittered) retry backoff.")
  in
  let in_process_arg =
    Arg.(
      value & flag
      & info [ "in-process" ]
          ~doc:
            "Run routing attempts on the executor domain instead of isolated worker \
             subprocesses.  Disables the hang watchdog, cancel-while-running and the memory \
             ceiling.")
  in
  let heartbeat_arg =
    Arg.(
      value & opt float 10_000.0
      & info [ "heartbeat-timeout-ms" ] ~docv:"MS"
          ~doc:"Watchdog: SIGKILL a worker whose heartbeats go silent this long.")
  in
  let grace_arg =
    Arg.(
      value & opt float 30_000.0
      & info [ "hard-grace-ms" ] ~docv:"MS"
          ~doc:"SIGKILL a worker still alive this long past its wall deadline.")
  in
  let mem_limit_arg =
    Arg.(
      value & opt int 0
      & info [ "mem-limit-mb" ] ~docv:"MB"
          ~doc:"Address-space ceiling per worker (0 = none).")
  in
  let quarantine_arg =
    Arg.(
      value & opt int 3
      & info [ "quarantine-kills" ] ~docv:"N"
          ~doc:
            "Quarantine a job after its workers were killed this many times; a quarantined \
             job only runs again via $(b,revive --force).")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No operational log lines.") in
  let run socket spool cap attempts backoff backoff_max domains deadline metrics
      metrics_interval trace in_process heartbeat grace mem_limit quarantine quiet =
    Obs.enable ();
    Obs.Trace.set_pid (Unix.getpid ());
    Option.iter Obs.Trace.to_chrome_file trace;
    let log line = if not quiet then Printf.eprintf "[bgr_serve] %s\n%!" line in
    let isolation =
      if in_process then Serve.In_process
      else Serve.Workers [| Sys.executable_name; "worker" |]
    in
    let cfg =
      { (Serve.default_config ~socket_path:socket ~spool_root:spool) with
        Serve.queue_cap = cap;
        max_attempts = attempts;
        backoff_base_ms = backoff;
        backoff_max_ms = backoff_max;
        job_domains = domains;
        default_deadline_ms = deadline;
        install_signals = true;
        isolation;
        heartbeat_timeout_ms = heartbeat;
        hard_deadline_grace_ms = grace;
        mem_limit_mb = mem_limit;
        quarantine_kills = quarantine;
        stitch_workers = (trace <> None && not in_process);
        metrics_path = metrics;
        metrics_interval_s = metrics_interval;
        log }
    in
    match Serve.run cfg with
    | exception Bgr_error.Error e -> fail_error e
    | stats ->
      Obs.Trace.close_sinks ();
      List.iter (fun w -> log (Printf.sprintf "obs: %s" w)) (Obs.warnings ());
      Printf.printf
        "drained: requeued %d, accepted %d, completed %d, failed %d, retried %d, rejected %d, \
         protocol errors %d, canceled %d, quarantined %d, worker kills %d\n"
        stats.Serve.s_requeued stats.Serve.s_accepted stats.Serve.s_completed
        stats.Serve.s_failed stats.Serve.s_retried stats.Serve.s_rejected
        stats.Serve.s_protocol_errors stats.Serve.s_canceled stats.Serve.s_quarantined
        stats.Serve.s_killed
  in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Serve routing jobs until SIGTERM (or a shutdown request) drains it.")
    Term.(
      const run $ socket_arg $ spool_arg $ cap_arg $ attempts_arg $ backoff_arg
      $ backoff_max_arg $ domains_arg $ deadline_arg $ metrics_arg $ metrics_interval_arg
      $ trace_arg $ in_process_arg $ heartbeat_arg $ grace_arg $ mem_limit_arg
      $ quarantine_arg $ quiet_arg)

(* --- worker ------------------------------------------------------------ *)

(* The subprocess the daemon spawns per routing attempt.  Not meant for
   interactive use; it reports BGRW1 frames on stdout. *)
let worker_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Spool job directory (contains JOB and design.bgr).")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N" ~doc:"Router scoring domains (0 = auto).")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Wall budget when the job manifest names none.")
  in
  let mem_limit_arg =
    Arg.(
      value & opt int 0
      & info [ "mem-limit-mb" ] ~docv:"MB" ~doc:"Address-space ceiling (0 = none).")
  in
  let obs_arg =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Record this attempt's spans and metrics into per-attempt files in the job \
             directory and report an obs summary frame (the daemon's stitch handshake).")
  in
  let trace_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID" ~doc:"Trace id to stamp on every recorded span.")
  in
  let parent_span_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "parent-span" ] ~docv:"N"
          ~doc:"Daemon span id this attempt's top-level spans hang off in the merged trace.")
  in
  let run dir domains default_deadline mem_limit obs trace_id parent_span =
    Worker.main ~domains ?default_deadline_ms:default_deadline ~mem_limit_mb:mem_limit
      ?trace_id ?parent_span ~obs ~dir ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one isolated routing attempt on a spool job directory (spawned by the daemon; \
          reports over stdout).")
    Term.(
      const run $ dir_arg $ domains_arg $ default_deadline_arg $ mem_limit_arg $ obs_arg
      $ trace_id_arg $ parent_span_arg)

(* --- submit ------------------------------------------------------------ *)

let submit_cmd =
  let design_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DESIGN" ~doc:"Design bundle (.bgr) to route.")
  in
  let wait_arg =
    Arg.(value & flag & info [ "wait"; "w" ] ~doc:"Block until the job finishes; print its result.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"ID" ~doc:"Job id to use instead of a generated one.")
  in
  let unconstrained_arg =
    Arg.(value & flag & info [ "no-constraints"; "u" ] ~doc:"Route without timing constraints.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Wall budget for this job's improvement phases.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"With $(b,--wait): also print each progress frame (one json line) as it arrives.")
  in
  let run socket design wait name unconstrained deadline progress =
    let text =
      try Lineio.read_all design
      with Sys_error msg ->
        fail_error (Bgr_error.make ~file:design Bgr_error.Io_error "%s" msg)
    in
    let wait = wait || progress in
    let c = connect socket in
    let req =
      Wire.Route
        { wait;
          progress;
          timing_driven = not unconstrained;
          deadline_ms = deadline;
          name;
          design = text }
    in
    (match handle_common_reply (Result.fold ~ok:Fun.id ~error:fail_error (Serve_client.request c req)) with
    | Wire.Accepted { job } ->
      Printf.printf "accepted %s\n%!" job;
      if wait then await_result c
    | Wire.Result { json; _ } -> print_result_json json
    | _ -> fail_reply "internal" "unexpected reply to submit");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a design bundle for routing.")
    Term.(
      const run $ socket_arg $ design_arg $ wait_arg $ name_arg $ unconstrained_arg
      $ deadline_arg $ progress_arg)

(* --- wait / resume ----------------------------------------------------- *)

let job_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.")

let wait_like name ~doc =
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Also print each progress frame (one json line) while the job runs.")
  in
  let run socket progress job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Resume { wait = true; progress; job })))
     with
    | Wire.Result { json; _ } -> print_result_json json
    | Wire.Accepted _ -> await_result c
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg $ progress_arg $ job_pos)

let wait_cmd = wait_like "wait" ~doc:"Block until a job finishes; print its result."

let resume_cmd =
  wait_like "resume"
    ~doc:
      "Re-queue a job (reviving it from the dead-letter directory if needed) and wait for the \
       result."

(* --- cancel / revive --------------------------------------------------- *)

let cancel_cmd =
  let run socket job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Cancel { job })))
     with
    | Wire.Info { json } -> print_endline json
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a job: drop it from the queue, or kill its running worker.  Its waiters get \
          a structured canceled error.")
    Term.(const run $ socket_arg $ job_pos)

let revive_cmd =
  let wait_arg =
    Arg.(value & flag & info [ "wait"; "w" ] ~doc:"Block until the revived job finishes.")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:"Required for quarantined jobs (ones that repeatedly killed their worker).")
  in
  let run socket wait force job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Revive { wait; force; job })))
     with
    | Wire.Result { json; _ } -> print_result_json json
    | Wire.Accepted { job = id } ->
      Printf.printf "accepted %s\n%!" id;
      if wait then await_result c
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "revive"
       ~doc:
         "Re-queue a dead-lettered job; with $(b,--force), also a quarantined one (attempt \
          and kill counters reset).")
    Term.(const run $ socket_arg $ wait_arg $ force_arg $ job_pos)

(* --- status / analyze / shutdown --------------------------------------- *)

let status_cmd =
  let job_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.") in
  let run socket job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Status { job })))
     with
    | Wire.Info { json } -> print_endline json
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Daemon status, or one job's state.")
    Term.(const run $ socket_arg $ job_arg)

let watch_cmd =
  let run socket job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Watch { job })))
     with
    | Wire.Result { json; _ } ->
      (* Already finished: the stored verdict is the whole story. *)
      print_result_json json
    | Wire.Info { json } ->
      print_endline json;
      flush stdout;
      await_result c
    | _ -> fail_reply "internal" "unexpected reply to watch");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Tail a job's live progress: one json line per worker heartbeat (phase, pass, \
          deletions, worst margin), then the final result.")
    Term.(const run $ socket_arg $ job_pos)

let stats_cmd =
  let prom_arg =
    Arg.(
      value & flag
      & info [ "prom" ] ~doc:"Prometheus text exposition instead of the json snapshot.")
  in
  let run socket prom =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Stats { prom })))
     with
    | Wire.Rstats { body; _ } -> print_string body
    | _ -> fail_reply "internal" "unexpected reply to stats");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape the daemon's live metrics registry (no drain needed): json by default, \
          Prometheus text with $(b,--prom).")
    Term.(const run $ socket_arg $ prom_arg)

let analyze_cmd =
  let run socket job =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error
            (Serve_client.request c (Wire.Analyze { job })))
     with
    | Wire.Info { json } -> print_endline json
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Solution-quality summary of a job's recorded .bgrq log.")
    Term.(const run $ socket_arg $ job_pos)

let dump_cmd =
  let run socket =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error (Serve_client.request c Wire.Dump))
     with
    | Wire.Info { json } -> print_endline json
    | _ -> fail_reply "internal" "unexpected reply to dump");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Snapshot the daemon's flight recorder into the spool root (flight.bgrf) and ask \
          the running worker, if any, to dump its own; feed the files to $(b,bgr_analyze \
          postmortem).")
    Term.(const run $ socket_arg)

let shutdown_cmd =
  let run socket =
    let c = connect socket in
    (match
       handle_common_reply
         (Result.fold ~ok:Fun.id ~error:fail_error (Serve_client.request c Wire.Shutdown))
     with
    | Wire.Info { json } -> print_endline json
    | _ -> fail_reply "internal" "unexpected reply");
    Serve_client.close c
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain: finish the running job, keep the rest spooled.")
    Term.(const run $ socket_arg)

let main =
  let doc = "Routing-as-a-service daemon and client for the DAC'94 global router" in
  Cmd.group (Cmd.info "bgr_serve" ~doc)
    [ daemon_cmd; worker_cmd; submit_cmd; wait_cmd; resume_cmd; cancel_cmd; revive_cmd;
      status_cmd; watch_cmd; stats_cmd; analyze_cmd; dump_cmd; shutdown_cmd ]

let () = exit (Cmd.eval main)
