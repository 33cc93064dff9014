(* The daemon.  Two domains: the event loop (this one) and the executor
   (spawned, the sole routing orchestrator).  Under [Workers] isolation
   the executor additionally forks one worker subprocess per routing
   attempt and supervises it ({!Worker}).  See serve.mli. *)

type isolation = In_process | Workers of string array

type config = {
  socket_path : string;
  spool_root : string;
  queue_cap : int;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_max_ms : float;
  job_domains : int;
  default_deadline_ms : int option;
  install_signals : bool;
  isolation : isolation;
  heartbeat_timeout_ms : float;
  hard_deadline_grace_ms : float;
  mem_limit_mb : int;
  quarantine_kills : int;
  stitch_workers : bool;
  metrics_path : string option;
  metrics_interval_s : float;
  log : string -> unit;
}

let default_config ~socket_path ~spool_root =
  { socket_path;
    spool_root;
    queue_cap = 16;
    max_attempts = 2;
    backoff_base_ms = 250.0;
    backoff_max_ms = 30_000.0;
    job_domains = 0;
    default_deadline_ms = None;
    install_signals = false;
    isolation = In_process;
    heartbeat_timeout_ms = 10_000.0;
    hard_deadline_grace_ms = 30_000.0;
    mem_limit_mb = 0;
    quarantine_kills = 3;
    stitch_workers = false;
    metrics_path = None;
    metrics_interval_s = 0.0;
    log = ignore }

type stats = {
  s_requeued : int;
  s_accepted : int;
  s_completed : int;
  s_failed : int;
  s_retried : int;
  s_rejected : int;
  s_protocol_errors : int;
  s_canceled : int;
  s_quarantined : int;
  s_killed : int;
}

(* --- metrics ----------------------------------------------------------- *)

let m_queue_depth = Obs.Metrics.gauge ~help:"Jobs queued or running" "serve_queue_depth"

let m_jobs =
  Obs.Metrics.counter ~help:"Job admissions and outcomes" ~labels:[ "outcome" ]
    "serve_jobs_total"

let m_rejections =
  Obs.Metrics.counter ~help:"Submissions refused by admission control"
    ~labels:[ "reason" ] "serve_rejections_total"

let m_retries = Obs.Metrics.counter ~help:"Job attempt retries" "serve_retries_total"

let m_latency =
  Obs.Metrics.histogram ~help:"Queue-to-completion job latency (ms)"
    ~buckets:[| 10.; 30.; 100.; 300.; 1000.; 3000.; 10000.; 30000. |]
    "serve_job_latency_ms"

let m_protocol_errors =
  Obs.Metrics.counter ~help:"Malformed frames or requests answered with an error"
    "serve_protocol_errors_total"

let m_connections = Obs.Metrics.counter ~help:"Accepted connections" "serve_connections_total"

let m_worker_spawns =
  Obs.Metrics.counter ~help:"Routing worker subprocesses spawned" "serve_worker_spawns_total"

let m_worker_kills =
  Obs.Metrics.counter ~help:"Routing workers killed, by watchdog reason"
    ~labels:[ "reason" ] "serve_worker_kills_total"

let m_worker_heartbeats =
  Obs.Metrics.counter ~help:"Heartbeat frames received from workers"
    "serve_worker_heartbeats_total"

let m_cancels =
  Obs.Metrics.counter ~help:"Cancel requests received" "serve_cancel_requests_total"

let m_progress_frames =
  Obs.Metrics.counter ~help:"Progress frames fanned out to watch subscribers"
    "serve_progress_frames_total"

let m_watch_shed =
  Obs.Metrics.counter
    ~help:"Watch subscriptions shed because the subscriber read too slowly"
    "serve_watch_shed_total"

let m_stats_requests =
  Obs.Metrics.counter ~help:"Live stats snapshots served" "serve_stats_requests_total"

(* --- shared state between the two domains ------------------------------ *)

type completion_kind = K_done | K_failed | K_canceled | K_quarantined | K_interrupted

type completion = {
  c_id : string;
  c_kind : completion_kind;
  c_json : string;
  c_latency_ms : float;
}

type shared = {
  mutex : Mutex.t;
  cond : Condition.t;  (** work available, or [stop] *)
  queue : Spool.job Queue.t;
  mutable running : string option;
  mutable stop : bool;  (** drain: executor exits after the current job *)
  mutable executor_done : bool;
  mutable completions : completion list;  (** reversed; loop drains it *)
  mutable retried : int;
  mutable killed : int;  (** worker kills (watchdog or external) *)
  mutable cancel : string option;  (** kill this job's worker, answer canceled *)
  mutable worker_pid : int option;
      (** the running attempt's worker pid — the [dump] opcode's
          SIGQUIT target *)
  mutable progress : Worker.progress option;
      (** running job's latest heartbeat *)
  mutable progress_events : (string * Worker.progress) list;
      (** reversed; the loop fans these out to watch subscribers *)
  mutable progress_pending : int;  (** length of [progress_events] *)
  mutable progress_dropped : int;  (** events dropped at the bound *)
  wake_w : Unix.file_descr;
}

(* The executor (or an in-process quality hook) publishes one progress
   event.  Bounded: the event list is transient UI fan-out, so when
   the loop falls behind we drop rather than grow — the final result
   is never carried this way. *)
let progress_bound = 1024

let locked sh f =
  Mutex.lock sh.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mutex) f

let wake sh =
  try ignore (Unix.write_substring sh.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let depth_unlocked sh = Queue.length sh.queue + match sh.running with Some _ -> 1 | None -> 0

let push_progress sh id (p : Worker.progress) =
  locked sh (fun () ->
      sh.progress <- Some p;
      if sh.progress_pending >= progress_bound then
        sh.progress_dropped <- sh.progress_dropped + 1
      else begin
        sh.progress_events <- (id, p) :: sh.progress_events;
        sh.progress_pending <- sh.progress_pending + 1
      end);
  wake sh

(* --- job results ------------------------------------------------------- *)

let canceled_json id ~attempts =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str id);
         ("ok", Qjson.Bool false);
         ("code", Qjson.Str "canceled");
         ("error", Qjson.Str (Printf.sprintf "job %s canceled by operator request" id));
         ("attempts", Qjson.int attempts) ])

let quarantined_json id (e : Bgr_error.t) ~attempts ~kills ~last_kill =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str id);
         ("ok", Qjson.Bool false);
         ("code", Qjson.Str "quarantined");
         ("error", Qjson.Str (Bgr_error.to_string e));
         ("attempts", Qjson.int attempts);
         ("kills", Qjson.int kills);
         ("last_kill", Qjson.Str last_kill) ])

(* --- the executor ------------------------------------------------------ *)

let worker_args cfg dir =
  [ "--dir"; dir; "--domains"; string_of_int cfg.job_domains ]
  @ (match cfg.default_deadline_ms with
    | None -> []
    | Some ms -> [ "--default-deadline-ms"; string_of_int ms ])
  @ if cfg.mem_limit_mb > 0 then [ "--mem-limit-mb"; string_of_int cfg.mem_limit_mb ]
    else []

let supervise_attempt cfg sh prefix spool (job : Spool.job) =
  let id = job.Spool.j_id in
  let dir = Spool.job_dir spool id in
  let argv = Array.append prefix (Array.of_list (worker_args cfg dir)) in
  let hard_deadline_ms =
    match
      match job.Spool.j_deadline_ms with
      | Some ms -> Some ms
      | None -> cfg.default_deadline_ms
    with
    | None -> infinity
    | Some ms -> float_of_int ms +. cfg.hard_deadline_grace_ms
  in
  Obs.Metrics.inc m_worker_spawns;
  Obs.Trace.span ~attrs:[ ("job", Obs.Trace.Str id) ] "serve.worker" @@ fun () ->
  (* The stitch handshake is decided here, inside the serve.worker
     span, so the worker's depth-0 spans hang off exactly this span in
     the merged timeline. *)
  let stitch_args =
    if not cfg.stitch_workers then []
    else
      [ "--obs" ]
      @ (match Obs.Trace.trace_id () with
        | None -> []
        | Some tid -> [ "--trace-id"; tid ])
      @
      match Obs.Trace.current_span_id () with
      | None -> []
      | Some n -> [ "--parent-span"; string_of_int n ]
  in
  let argv = Array.append argv (Array.of_list stitch_args) in
  let obs_summary = ref None in
  let result =
    Worker.supervise ~heartbeat_timeout_ms:cfg.heartbeat_timeout_ms ~hard_deadline_ms
      ~canceled:(fun () -> locked sh (fun () -> sh.cancel = Some id))
      ~on_progress:(fun p ->
        Obs.Metrics.inc m_worker_heartbeats;
        Flight.record Flight.k_heartbeat ~a:(Flight.phase_code p.Worker.p_phase)
          ~b:p.Worker.p_pass ~c:p.Worker.p_deletions
          ~d:(Flight.margin_encode p.Worker.p_worst_margin_ps);
        push_progress sh id p)
      ~on_obs:(fun json -> obs_summary := Some json)
      ~on_spawn:(fun pid ->
        locked sh (fun () -> sh.worker_pid <- Some pid);
        cfg.log (Printf.sprintf "job %s: worker pid %d" id pid))
      ~on_dump:(fun path -> cfg.log (Printf.sprintf "job %s: flight record at %s" id path))
      ~log:cfg.log ~argv ()
  in
  locked sh (fun () -> sh.worker_pid <- None);
  (match !obs_summary with
  | Some summary_json when cfg.stitch_workers ->
    let r = Stitch.merge ~dir ~summary_json () in
    cfg.log
      (Printf.sprintf "job %s: stitched %d worker spans, %d metric series" id r.Stitch.st_spans
         r.Stitch.st_series)
  | _ -> ());
  result

let run_job cfg spool sh (job : Spool.job) =
  let id = job.Spool.j_id in
  let t0 = Unix.gettimeofday () in
  let current = ref job in
  let was_canceled = ref false in
  let quarantine = ref false in
  let giveup () = locked sh (fun () -> sh.stop || sh.cancel = Some id) in
  (* One trace id per job: the daemon's serve.job/serve.worker spans
     and (under stitching) the worker's own spans all carry it, so a
     single id query in the merged trace selects the whole job. *)
  Obs.Trace.set_trace_id (Some ("job-" ^ id));
  let outcome =
    Fun.protect ~finally:(fun () -> Obs.Trace.set_trace_id None) @@ fun () ->
    Obs.Trace.span ~attrs:[ ("job", Obs.Trace.Str id) ] "serve.job" @@ fun () ->
    Retry.run ~max_attempts:cfg.max_attempts ~base_ms:cfg.backoff_base_ms
      ~max_ms:cfg.backoff_max_ms ~jitter_seed:(Hashtbl.hash id) ~giveup
      ~on_retry:(fun ~attempt e ->
        Obs.Metrics.inc m_retries;
        Flight.record Flight.k_retry ~a:(attempt land 0xFF) ~b:0 ~c:0 ~d:0;
        locked sh (fun () -> sh.retried <- sh.retried + 1);
        cfg.log
          (Printf.sprintf "job %s: attempt %d failed (%s); retrying" id attempt
             (Bgr_error.to_string e)))
      (fun ~attempt:_ ->
        current := Spool.record_attempt spool !current;
        match Fault.check ~phase:"serve" "serve.job" with
        | exception Bgr_error.Error e -> Error e
        | () -> (
          match cfg.isolation with
          | In_process ->
            let dir = Spool.job_dir spool id in
            let budget =
              Worker.budget_of ?default_deadline_ms:cfg.default_deadline_ms !current
            in
            let on_quality, quality_finish =
              Qlog.sink ~warn:cfg.log (Filename.concat dir Qlog.default_filename)
            in
            (* In-process attempts have no heartbeat stream; quality
               samples stand in so [watch] works under both isolations. *)
            let on_quality s =
              push_progress sh id
                { Worker.p_phase = s.Router.qs_phase;
                  p_pass = s.Router.qs_pass;
                  p_deletions = s.Router.qs_deletions;
                  p_worst_margin_ps = s.Router.qs_worst_margin_ps };
              match on_quality with Some f -> f s | None -> ()
            in
            Result.map
              (fun o ->
                Worker.result_json id o.Flow.o_measurement
                  ~attempts:(!current).Spool.j_attempts)
              (Fun.protect ~finally:(fun () -> ignore (quality_finish ())) (fun () ->
                   Worker.attempt ~domains:cfg.job_domains ~budget ~on_quality ~dir
                     !current))
          | Workers prefix -> (
            match supervise_attempt cfg sh prefix spool !current with
            | Ok json -> Ok json
            | Error (Worker.Failed { code; message }) ->
              let code =
                Option.value (Bgr_error.code_of_name code) ~default:Bgr_error.Internal
              in
              Error (Bgr_error.make code "%s" message)
            | Error (Worker.Spawn_error msg) ->
              Error
                (Bgr_error.make ~phase:"serve" Bgr_error.Fault "worker spawn failed: %s"
                   msg)
            | Error (Worker.Killed { reason = Worker.Canceled; _ }) ->
              was_canceled := true;
              Error (Bgr_error.make ~phase:"serve" Bgr_error.Validate "job %s canceled" id)
            | Error (Worker.Killed { reason; detail }) ->
              let reason_s = Worker.kill_reason_string reason in
              Obs.Metrics.inc ~labels:[ ("reason", reason_s) ] m_worker_kills;
              locked sh (fun () -> sh.killed <- sh.killed + 1);
              current := Spool.record_kill spool !current ~reason:reason_s;
              cfg.log
                (Printf.sprintf "job %s: worker killed (%s): %s [kill %d, quarantine at %d]"
                   id reason_s detail (!current).Spool.j_kills cfg.quarantine_kills);
              if reason = Worker.Hard_deadline then
                Error
                  (Bgr_error.make ~phase:"serve" Bgr_error.Deadline
                     "worker exceeded the hard wall deadline (%s)" detail)
              else if (!current).Spool.j_kills >= cfg.quarantine_kills then begin
                quarantine := true;
                Error
                  (Bgr_error.make ~phase:"serve" Bgr_error.Internal
                     "quarantined after %d worker kills (last: %s)"
                     (!current).Spool.j_kills reason_s)
              end
              else
                Error
                  (Bgr_error.make ~phase:"serve" Bgr_error.Fault "worker killed (%s): %s"
                     reason_s detail))))
  in
  locked sh (fun () -> sh.progress <- None);
  let attempts = !current.Spool.j_attempts in
  let latency_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Obs.Metrics.observe m_latency latency_ms;
  let c_kind, c_json =
    match outcome.Retry.result with
    | Ok json ->
      Spool.mark_done spool id ~json;
      Obs.Metrics.inc ~labels:[ ("outcome", "completed") ] m_jobs;
      cfg.log
        (Printf.sprintf "job %s: done in %.0f ms (%d attempt%s)" id latency_ms attempts
           (if attempts = 1 then "" else "s"));
      (K_done, json)
    | Error e ->
      if !was_canceled || (outcome.Retry.gave_up && locked sh (fun () -> sh.cancel = Some id))
      then begin
        let json = canceled_json id ~attempts in
        Spool.retire spool id ~json;
        Obs.Metrics.inc ~labels:[ ("outcome", "canceled") ] m_jobs;
        cfg.log (Printf.sprintf "job %s: canceled after %d attempt(s)" id attempts);
        (K_canceled, json)
      end
      else if outcome.Retry.gave_up then begin
        (* Drain interrupted a still-owed retry: the job is neither
           done nor dead.  Leave it spooled; the next daemon life's
           supervisor pass re-queues it. *)
        cfg.log (Printf.sprintf "job %s: drain interrupted its retry; remains spooled" id);
        (K_interrupted, "")
      end
      else if !quarantine then begin
        let json =
          quarantined_json id e ~attempts ~kills:(!current).Spool.j_kills
            ~last_kill:(!current).Spool.j_last_kill
        in
        Spool.quarantine spool id ~json;
        Obs.Metrics.inc ~labels:[ ("outcome", "quarantined") ] m_jobs;
        cfg.log
          (Printf.sprintf "job %s: QUARANTINED after %d worker kills (last: %s)" id
             (!current).Spool.j_kills (!current).Spool.j_last_kill);
        (K_quarantined, json)
      end
      else begin
        let json = Worker.error_json id e ~attempts in
        Spool.retire spool id ~json;
        Obs.Metrics.inc ~labels:[ ("outcome", "failed") ] m_jobs;
        cfg.log
          (Printf.sprintf "job %s: dead-lettered after %d attempt%s: %s" id attempts
             (if attempts = 1 then "" else "s")
             (Bgr_error.to_string e));
        (K_failed, json)
      end
  in
  locked sh (fun () ->
      sh.completions <- { c_id = id; c_kind; c_json; c_latency_ms = latency_ms } :: sh.completions);
  wake sh

let executor cfg spool sh () =
  let rec loop () =
    Mutex.lock sh.mutex;
    while Queue.is_empty sh.queue && not sh.stop do
      Condition.wait sh.cond sh.mutex
    done;
    if sh.stop then begin
      sh.executor_done <- true;
      Mutex.unlock sh.mutex;
      wake sh
    end
    else begin
      let job = Queue.pop sh.queue in
      sh.running <- Some job.Spool.j_id;
      Mutex.unlock sh.mutex;
      (try run_job cfg spool sh job
       with e ->
         (* Last-ditch containment: an unstructured exception must not
            kill the executor; the job is dead-lettered as Internal. *)
         let err =
           Bgr_error.make ~phase:"serve" Bgr_error.Internal "unexpected exception: %s"
             (Printexc.to_string e)
         in
         let json = Worker.error_json job.Spool.j_id err ~attempts:job.Spool.j_attempts in
         (try Spool.retire spool job.Spool.j_id ~json with _ -> ());
         locked sh (fun () ->
             sh.completions <-
               { c_id = job.Spool.j_id; c_kind = K_failed; c_json = json; c_latency_ms = 0.0 }
               :: sh.completions);
         wake sh);
      locked sh (fun () ->
          sh.running <- None;
          sh.progress <- None;
          if sh.cancel = Some job.Spool.j_id then sh.cancel <- None);
      loop ()
    end
  in
  loop ()

(* --- connections ------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : string;  (** unconsumed input *)
  mutable wbuf : string;  (** unsent output *)
  mutable greeted : bool;  (** client magic verified *)
  mutable closing : bool;  (** close once [wbuf] drains *)
  mutable waits : string list;  (** job ids this connection waits on *)
}

type loop_state = {
  cfg : config;
  spool : Spool.t;
  sh : shared;
  wake_r : Unix.file_descr;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  queued : (string, unit) Hashtbl.t;  (** ids in the queue (not yet popped) *)
  waiters : (string, conn list) Hashtbl.t;
  watchers : (string, conn list) Hashtbl.t;
      (** progress subscribers; a watcher is also a waiter, so it gets
          the final [Result] through the waiter path *)
  watch_seq : (string, int) Hashtbl.t;  (** per-job progress sequence *)
  mutable draining : bool;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable protocol_errors : int;
  mutable canceled : int;
  mutable quarantined : int;
  requeued : int;
}

let send st conn reply =
  ignore st;
  conn.wbuf <- conn.wbuf ^ Wire.encode_reply reply

let close_conn st conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  conn.waits <- [];
  st.conns <- List.filter (fun c -> c != conn) st.conns

let protocol_error st conn (e : Bgr_error.t) =
  st.protocol_errors <- st.protocol_errors + 1;
  Obs.Metrics.inc m_protocol_errors;
  st.cfg.log (Printf.sprintf "protocol error: %s" e.Bgr_error.message);
  send st conn
    (Wire.Rerror { code = Bgr_error.code_name e.Bgr_error.code; message = e.Bgr_error.message });
  conn.closing <- true

let set_depth_metric st =
  let d = locked st.sh (fun () -> depth_unlocked st.sh) in
  Obs.Metrics.set m_queue_depth (float_of_int d)

let enqueue st job =
  locked st.sh (fun () ->
      Queue.add job st.sh.queue;
      Hashtbl.replace st.queued job.Spool.j_id ();
      Condition.signal st.sh.cond);
  set_depth_metric st

let add_waiter st conn id =
  conn.waits <- id :: conn.waits;
  let l = Option.value (Hashtbl.find_opt st.waiters id) ~default:[] in
  Hashtbl.replace st.waiters id (conn :: l)

let add_watcher st conn id =
  let l = Option.value (Hashtbl.find_opt st.watchers id) ~default:[] in
  if not (List.memq conn l) then Hashtbl.replace st.watchers id (conn :: l)

(* A subscriber that stops reading must not grow the daemon's write
   buffer forever: past this bound its subscription is shed (the final
   result, carried by the waiter path, is still owed). *)
let watch_buffer_cap = 1 lsl 20

let progress_json id seq (p : Worker.progress) =
  Qjson.to_string
    (Qjson.Obj
       [ ("job", Qjson.Str id);
         ("seq", Qjson.int seq);
         ("phase", Qjson.Str p.Worker.p_phase);
         ("pass", Qjson.int p.Worker.p_pass);
         ("deletions", Qjson.int p.Worker.p_deletions);
         ("worst_margin_ps", Qjson.num p.Worker.p_worst_margin_ps) ])

(* Fan queued progress events out to each job's watchers.  Events the
   executor pushed before the completion are drained first in the same
   loop iteration, so progress frames always precede the result frame
   on the wire. *)
let deliver_progress st =
  let events, dropped =
    locked st.sh (fun () ->
        let evs = List.rev st.sh.progress_events in
        let d = st.sh.progress_dropped in
        st.sh.progress_events <- [];
        st.sh.progress_pending <- 0;
        st.sh.progress_dropped <- 0;
        (evs, d))
  in
  if dropped > 0 then
    st.cfg.log (Printf.sprintf "progress: %d events dropped (loop behind)" dropped);
  List.iter
    (fun (id, p) ->
      let seq = 1 + Option.value (Hashtbl.find_opt st.watch_seq id) ~default:0 in
      Hashtbl.replace st.watch_seq id seq;
      match Hashtbl.find_opt st.watchers id with
      | None | Some [] -> ()
      | Some conns ->
        let frame = Wire.Progress { job = id; seq; json = progress_json id seq p } in
        let keep =
          List.filter
            (fun conn ->
              if not (List.memq conn st.conns) then false
              else if String.length conn.wbuf > watch_buffer_cap then begin
                Obs.Metrics.inc m_watch_shed;
                st.cfg.log
                  (Printf.sprintf "watch: subscriber of %s reads too slowly; shedding" id);
                false
              end
              else begin
                Obs.Metrics.inc m_progress_frames;
                send st conn frame;
                true
              end)
            conns
        in
        if keep = [] then Hashtbl.remove st.watchers id
        else Hashtbl.replace st.watchers id keep)
    events

let answer_waiters st id reply =
  Hashtbl.remove st.watchers id;
  Hashtbl.remove st.watch_seq id;
  match Hashtbl.find_opt st.waiters id with
  | None -> ()
  | Some conns ->
    Hashtbl.remove st.waiters id;
    List.iter
      (fun conn ->
        if List.memq conn st.conns then begin
          conn.waits <- List.filter (fun w -> w <> id) conn.waits;
          send st conn reply
        end)
      conns

let overloaded st conn ~reason =
  st.rejected <- st.rejected + 1;
  Obs.Metrics.inc ~labels:[ ("reason", reason) ] m_rejections;
  let depth, cap = (locked st.sh (fun () -> depth_unlocked st.sh), st.cfg.queue_cap) in
  send st conn (Wire.Overloaded { reason; depth; cap })

let reply_error st conn (e : Bgr_error.t) =
  send st conn
    (Wire.Rerror { code = Bgr_error.code_name e.Bgr_error.code; message = Bgr_error.to_string e })

let status_json st =
  let depth, running, retried, killed =
    locked st.sh (fun () -> (depth_unlocked st.sh, st.sh.running, st.sh.retried, st.sh.killed))
  in
  Qjson.to_string
    (Qjson.Obj
       [ ("queue_depth", Qjson.int depth);
         ("queue_cap", Qjson.int st.cfg.queue_cap);
         ( "running",
           match running with None -> Qjson.Null | Some id -> Qjson.Str id );
         ("draining", Qjson.Bool st.draining);
         ( "isolation",
           Qjson.Str (match st.cfg.isolation with In_process -> "in-process" | Workers _ -> "workers") );
         ("requeued", Qjson.int st.requeued);
         ("accepted", Qjson.int st.accepted);
         ("completed", Qjson.int st.completed);
         ("failed", Qjson.int st.failed);
         ("canceled", Qjson.int st.canceled);
         ("quarantined", Qjson.int st.quarantined);
         ("rejected", Qjson.int st.rejected);
         ("protocol_errors", Qjson.int st.protocol_errors);
         ("retried", Qjson.int retried);
         ("worker_kills", Qjson.int killed);
         ( "obs_warnings",
           Qjson.Arr (List.map (fun w -> Qjson.Str w) (Obs.warnings ())) ) ])

let job_state_string st id =
  match Spool.state_of st.spool id with
  | None -> None
  | Some (Spool.Done _) -> Some "done"
  | Some (Spool.Dead _) -> Some "dead"
  | Some (Spool.Quarantined _) -> Some "quarantined"
  | Some (Spool.Pending _) ->
    let running = locked st.sh (fun () -> st.sh.running = Some id) in
    if running then Some "running"
    else if Hashtbl.mem st.queued id then Some "queued"
    else Some "pending"

let start_drain st reason =
  if not st.draining then begin
    st.draining <- true;
    st.cfg.log (Printf.sprintf "draining (%s)" reason);
    locked st.sh (fun () ->
        st.sh.stop <- true;
        Condition.broadcast st.sh.cond)
  end

let validation_error fmt = Printf.ksprintf (Bgr_error.make ~phase:"serve" Bgr_error.Validate "%s") fmt

let handle_route st conn ~wait ~progress ~timing_driven ~deadline_ms ~name ~design =
  if st.draining then overloaded st conn ~reason:"draining"
  else if locked st.sh (fun () -> depth_unlocked st.sh) >= st.cfg.queue_cap then
    overloaded st conn ~reason:"queue full"
  else begin
    match name with
    | Some n when not (Wire.valid_job_id n) ->
      reply_error st conn (validation_error "invalid job name %S" n)
    | Some n when Spool.exists st.spool n ->
      reply_error st conn (validation_error "job id %S is already taken" n)
    | _ -> (
      (* Reject malformed designs at admission, before spooling: the
         submitter is still connected and a parse error can never
         succeed on retry anyway. *)
      match
        Result.bind (Design_io.of_string_result ~file:"<submission>" design)
          Design_check.validate
      with
      | Error e -> reply_error st conn e
      | Ok _ ->
        let id = match name with Some n -> n | None -> Spool.fresh_id st.spool in
        let job =
          { Spool.j_id = id;
            j_timing_driven = timing_driven;
            j_deadline_ms = deadline_ms;
            j_attempts = 0;
            j_kills = 0;
            j_last_kill = "";
            j_kill_history = [] }
        in
        (* Durable acceptance before the acknowledgement. *)
        (match Spool.accept st.spool job ~design_text:design with
        | exception Bgr_error.Error e ->
          st.cfg.log (Printf.sprintf "accept of %s failed: %s" id e.Bgr_error.message);
          reply_error st conn e
        | () ->
          st.accepted <- st.accepted + 1;
          Obs.Metrics.inc ~labels:[ ("outcome", "accepted") ] m_jobs;
          enqueue st job;
          send st conn (Wire.Accepted { job = id });
          if wait then begin
            add_waiter st conn id;
            if progress then add_watcher st conn id
          end))
  end

let handle_resume st conn ~wait ~progress ~job:id =
  let subscribe conn id =
    if wait then begin
      add_waiter st conn id;
      if progress then add_watcher st conn id
    end
  in
  if not (Wire.valid_job_id id) then
    reply_error st conn (validation_error "invalid job id %S" id)
  else
    match Spool.state_of st.spool id with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some (Spool.Done json) -> send st conn (Wire.Result { job = id; ok = true; json })
    | Some (Spool.Quarantined _) ->
      reply_error st conn
        (validation_error
           "job %s is quarantined (it repeatedly killed its worker); use revive with force \
            to retry anyway"
           id)
    | Some (Spool.Dead _) ->
      if st.draining then overloaded st conn ~reason:"draining"
      else if locked st.sh (fun () -> depth_unlocked st.sh) >= st.cfg.queue_cap then
        overloaded st conn ~reason:"queue full"
      else (
        match Spool.revive st.spool id with
        | Error e -> reply_error st conn e
        | Ok job ->
          st.cfg.log (Printf.sprintf "job %s: revived from the dead-letter dir" id);
          enqueue st job;
          send st conn (Wire.Accepted { job = id });
          subscribe conn id)
    | Some (Spool.Pending job) ->
      let live =
        locked st.sh (fun () -> st.sh.running = Some id) || Hashtbl.mem st.queued id
      in
      if st.draining && not live then overloaded st conn ~reason:"draining"
      else begin
        (* An accepted job bypasses the admission cap: it was admitted
           in a previous daemon life. *)
        if not live then enqueue st job;
        send st conn (Wire.Accepted { job = id });
        subscribe conn id
      end

let handle_cancel st conn ~job:id =
  if not (Wire.valid_job_id id) then
    reply_error st conn (validation_error "invalid job id %S" id)
  else begin
    Obs.Metrics.inc m_cancels;
    match Spool.state_of st.spool id with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some (Spool.Done _) ->
      reply_error st conn (validation_error "job %s already completed" id)
    | Some (Spool.Dead _) ->
      reply_error st conn (validation_error "job %s is already dead-lettered" id)
    | Some (Spool.Quarantined _) ->
      reply_error st conn (validation_error "job %s is already quarantined" id)
    | Some (Spool.Pending _) -> (
      (* Decide under the lock, so the executor cannot pop the job
         between our check and the queue edit. *)
      let decision =
        locked st.sh (fun () ->
            if st.sh.running = Some id then `Running
            else begin
              let keep = Queue.create () in
              let found = ref false in
              Queue.iter
                (fun (j : Spool.job) ->
                  if j.Spool.j_id = id then found := true else Queue.add j keep)
                st.sh.queue;
              Queue.clear st.sh.queue;
              Queue.transfer keep st.sh.queue;
              if !found then `Dequeued else `Idle
            end)
      in
      match decision with
      | `Running -> (
        match st.cfg.isolation with
        | In_process ->
          reply_error st conn
            (validation_error
               "job %s is running in-process and cannot be canceled (worker isolation is \
                off)"
               id)
        | Workers _ ->
          locked st.sh (fun () -> st.sh.cancel <- Some id);
          st.cfg.log (Printf.sprintf "job %s: cancel requested; killing its worker" id);
          send st conn
            (Wire.Info
               { json =
                   Qjson.to_string
                     (Qjson.Obj
                        [ ("job", Qjson.Str id); ("cancel_requested", Qjson.Bool true) ]) }))
      | `Dequeued | `Idle -> (
        Hashtbl.remove st.queued id;
        let attempts =
          match Spool.load_job st.spool id with Ok j -> j.Spool.j_attempts | Error _ -> 0
        in
        let json = canceled_json id ~attempts in
        match Spool.retire st.spool id ~json with
        | exception Bgr_error.Error e -> reply_error st conn e
        | () ->
          st.canceled <- st.canceled + 1;
          Obs.Metrics.inc ~labels:[ ("outcome", "canceled") ] m_jobs;
          answer_waiters st id
            (Wire.Rerror
               { code = "canceled"; message = Printf.sprintf "job %s canceled" id });
          set_depth_metric st;
          st.cfg.log (Printf.sprintf "job %s: canceled before it ran" id);
          send st conn
            (Wire.Info
               { json =
                   Qjson.to_string
                     (Qjson.Obj [ ("job", Qjson.Str id); ("canceled", Qjson.Bool true) ]) }))
      )
  end

let handle_revive st conn ~wait ~force ~job:id =
  if not (Wire.valid_job_id id) then
    reply_error st conn (validation_error "invalid job id %S" id)
  else
    match Spool.state_of st.spool id with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some (Spool.Done json) -> send st conn (Wire.Result { job = id; ok = true; json })
    | Some (Spool.Pending _) ->
      reply_error st conn
        (validation_error "job %s is not dead-lettered or quarantined (use resume)" id)
    | Some (Spool.Dead _ | Spool.Quarantined _) ->
      if st.draining then overloaded st conn ~reason:"draining"
      else if locked st.sh (fun () -> depth_unlocked st.sh) >= st.cfg.queue_cap then
        overloaded st conn ~reason:"queue full"
      else (
        match Spool.revive ~force st.spool id with
        | Error e -> reply_error st conn e
        | Ok job ->
          st.cfg.log
            (Printf.sprintf "job %s: revived%s" id
               (if force then " (forced out of quarantine)" else ""));
          enqueue st job;
          send st conn (Wire.Accepted { job = id });
          if wait then add_waiter st conn id)

let handle_analyze st conn ~job:id =
  if not (Wire.valid_job_id id) then
    reply_error st conn (validation_error "invalid job id %S" id)
  else begin
    let dir =
      List.find_opt Sys.file_exists
        [ Spool.job_dir st.spool id; Spool.dead_dir st.spool id;
          Spool.quarantine_dir st.spool id ]
    in
    match dir with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some dir -> (
      let path = Filename.concat dir Qlog.default_filename in
      if not (Sys.file_exists path) then
        reply_error st conn
          (Bgr_error.make ~phase:"serve" ~file:path Bgr_error.Io_error
             "job %s recorded no quality log" id)
      else
        match Qlog.read ~path with
        | Error e -> reply_error st conn e
        | Ok rr ->
          List.iter (fun w -> st.cfg.log (Printf.sprintf "analyze %s: %s" id w)) rr.Qlog.warnings;
          send st conn (Wire.Info { json = Quality.to_json (Quality.summarize rr.Qlog.records) }))
  end

let handle_status st conn = function
  | None -> send st conn (Wire.Info { json = status_json st })
  | Some id -> (
    match job_state_string st id with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some state ->
      let attempts, kills, last_kill, kill_history =
        match Spool.load_job st.spool id with
        | Ok j -> (j.Spool.j_attempts, j.Spool.j_kills, j.Spool.j_last_kill, j.Spool.j_kill_history)
        | Error _ -> (0, 0, "", [])
      in
      let progress =
        if state = "running" then locked st.sh (fun () -> st.sh.progress) else None
      in
      let fields =
        [ ("job", Qjson.Str id);
          ("state", Qjson.Str state);
          ("attempts", Qjson.int attempts);
          ("kills", Qjson.int kills);
          ("last_kill", Qjson.Str last_kill);
          ("kill_history", Qjson.Arr (List.map (fun r -> Qjson.Str r) kill_history)) ]
        @
        match progress with
        | None -> []
        | Some p ->
          [ ("phase", Qjson.Str p.Worker.p_phase);
            ("pass", Qjson.int p.Worker.p_pass);
            ("deletions", Qjson.int p.Worker.p_deletions);
            ("worst_margin_ps", Qjson.num p.Worker.p_worst_margin_ps) ]
      in
      send st conn (Wire.Info { json = Qjson.to_string (Qjson.Obj fields) }))

let handle_watch st conn ~job:id =
  if not (Wire.valid_job_id id) then
    reply_error st conn (validation_error "invalid job id %S" id)
  else
    match Spool.state_of st.spool id with
    | None -> reply_error st conn (validation_error "unknown job %S" id)
    | Some (Spool.Done json) -> send st conn (Wire.Result { job = id; ok = true; json })
    (* A watch asks for a future; a dead-lettered or quarantined job
       has none.  Answer with a structured error naming the state (not
       a bare stored-result frame, and never silence) so the client can
       tell "it will never progress" from "it failed". *)
    | Some (Spool.Dead _) ->
      send st conn
        (Wire.Rerror
           { code = "dead-lettered";
             message =
               Printf.sprintf
                 "job %s is dead-lettered and will not progress; resume it to retry (its \
                  stored result is available via resume or revive)"
                 id })
    | Some (Spool.Quarantined _) ->
      send st conn
        (Wire.Rerror
           { code = "quarantined";
             message =
               Printf.sprintf
                 "job %s is quarantined (it repeatedly killed its worker) and will not \
                  progress; revive it with force to retry anyway"
                 id })
    | Some (Spool.Pending _) ->
      let state = Option.value (job_state_string st id) ~default:"pending" in
      send st conn
        (Wire.Info
           { json =
               Qjson.to_string
                 (Qjson.Obj
                    [ ("job", Qjson.Str id);
                      ("watching", Qjson.Bool true);
                      ("state", Qjson.Str state) ]) });
      add_waiter st conn id;
      add_watcher st conn id

(* Served from the event loop, straight out of the live registry: no
   drain, no file, no executor involvement. *)
let handle_stats st conn ~prom =
  Obs.Metrics.inc m_stats_requests;
  let body =
    if prom then Obs.Metrics.render_prometheus () else Obs.Metrics.render_json ()
  in
  send st conn (Wire.Rstats { prom; body })

(* The on-demand forensic snapshot: dump the daemon's own rings into
   the spool root, and SIGQUIT the running worker (if any) so it dumps
   [flight-aN.bgrf] into its job directory too. *)
let handle_dump st conn =
  let path = Filename.concat st.cfg.spool_root Flight.default_filename in
  let ok = Flight.dump_file ~trigger:2 ~reason:"opcode" path in
  if not ok then st.cfg.log (Printf.sprintf "dump: cannot write %s" path);
  let worker = locked st.sh (fun () -> st.sh.worker_pid) in
  (match worker with
  | None -> ()
  | Some pid ->
    st.cfg.log (Printf.sprintf "dump: requesting a flight dump from worker %d" pid);
    (try Unix.kill pid Sys.sigquit with Unix.Unix_error _ -> ()));
  send st conn
    (Wire.Info
       { json =
           Qjson.to_string
             (Qjson.Obj
                [ ("dumped", Qjson.Bool ok);
                  ("path", Qjson.Str path);
                  ( "worker_signaled",
                    match worker with
                    | Some pid -> Qjson.int pid
                    | None -> Qjson.Bool false ) ]) })

(* The flight record's [k_serve_op] vocabulary is the wire's opcode
   byte, duplicated here as literals because [Wire] keeps its codec
   internal. *)
let request_opcode = function
  | Wire.Route _ -> 0x01
  | Wire.Resume _ -> 0x02
  | Wire.Analyze _ -> 0x03
  | Wire.Status _ -> 0x04
  | Wire.Shutdown -> 0x05
  | Wire.Cancel _ -> 0x06
  | Wire.Revive _ -> 0x07
  | Wire.Watch _ -> 0x08
  | Wire.Stats _ -> 0x09
  | Wire.Dump -> 0x0A

let handle_request st conn req =
  Flight.record Flight.k_serve_op ~a:(request_opcode req) ~b:0 ~c:0 ~d:0;
  match req with
  | Wire.Route { wait; progress; timing_driven; deadline_ms; name; design } ->
    handle_route st conn ~wait ~progress ~timing_driven ~deadline_ms ~name ~design
  | Wire.Resume { wait; progress; job } -> handle_resume st conn ~wait ~progress ~job
  | Wire.Cancel { job } -> handle_cancel st conn ~job
  | Wire.Revive { wait; force; job } -> handle_revive st conn ~wait ~force ~job
  | Wire.Analyze { job } -> handle_analyze st conn ~job
  | Wire.Status { job } -> handle_status st conn job
  | Wire.Watch { job } -> handle_watch st conn ~job
  | Wire.Stats { prom } -> handle_stats st conn ~prom
  | Wire.Dump -> handle_dump st conn
  | Wire.Shutdown ->
    start_drain st "shutdown request";
    send st conn (Wire.Info { json = "{\"draining\":true}" })

(* Parse as much of [conn.rbuf] as possible: the magic greeting first,
   then complete frames. *)
let process_input st conn =
  if not conn.greeted then begin
    match Frame.greet ~magic:Wire.magic conn.rbuf with
    | None -> ()
    | Some (Ok rest) ->
      conn.greeted <- true;
      conn.rbuf <- rest
    | Some (Error _) ->
      protocol_error st conn
        (Bgr_error.make ~phase:"serve" Bgr_error.Parse
           "bad magic: the peer does not speak %s" (String.trim Wire.magic))
  end;
  if conn.greeted && not conn.closing then begin
    let continue = ref true in
    while !continue do
      match Frame.extract ~phase:"serve" ~max_len:Wire.max_payload conn.rbuf ~pos:0 with
      | Frame.Need _ -> continue := false
      | Frame.Bad e ->
        protocol_error st conn e;
        continue := false
      | Frame.Frame (payload, used) -> (
        conn.rbuf <- String.sub conn.rbuf used (String.length conn.rbuf - used);
        match Wire.decode_request payload with
        | Error e ->
          protocol_error st conn e;
          continue := false
        | Ok req ->
          handle_request st conn req;
          if conn.closing then continue := false)
    done
  end

let read_conn st conn =
  if Fault.trip "serve.read" then begin
    st.cfg.log "fault: serve.read tripped; dropping connection";
    close_conn st conn
  end
  else begin
    let buf = Bytes.create 65536 in
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn st conn
    | n ->
      conn.rbuf <- conn.rbuf ^ Bytes.sub_string buf 0 n;
      process_input st conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn st conn
  end

let write_conn st conn =
  if Fault.trip "serve.write" then begin
    st.cfg.log "fault: serve.write tripped; dropping connection";
    close_conn st conn
  end
  else if conn.wbuf <> "" then begin
    match Unix.write_substring conn.fd conn.wbuf 0 (String.length conn.wbuf) with
    | n ->
      conn.wbuf <- String.sub conn.wbuf n (String.length conn.wbuf - n);
      if conn.wbuf = "" && conn.closing then close_conn st conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn st conn
  end

let accept_conn st =
  match Unix.accept ~cloexec:true st.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    st.cfg.log (Printf.sprintf "accept failed: %s" (Unix.error_message e))
  | fd, _ -> (
    match Fault.check ~phase:"serve" "serve.accept" with
    | exception Bgr_error.Error e ->
      st.cfg.log (Printf.sprintf "fault: %s; connection refused" e.Bgr_error.message);
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | () ->
      Unix.set_nonblock fd;
      Obs.Metrics.inc m_connections;
      (* Greet first: the server banner lets clients fail fast when
         they dialled something that is not a bgr daemon. *)
      st.conns <-
        { fd; rbuf = ""; wbuf = Wire.magic; greeted = false; closing = false; waits = [] }
        :: st.conns)

let deliver_completions st =
  let completions, executor_done =
    locked st.sh (fun () ->
        let cs = List.rev st.sh.completions in
        st.sh.completions <- [];
        (cs, st.sh.executor_done))
  in
  List.iter
    (fun c ->
      Hashtbl.remove st.queued c.c_id;
      locked st.sh (fun () -> if st.sh.cancel = Some c.c_id then st.sh.cancel <- None);
      (match c.c_kind with
      | K_done -> st.completed <- st.completed + 1
      | K_failed -> st.failed <- st.failed + 1
      | K_canceled -> st.canceled <- st.canceled + 1
      | K_quarantined -> st.quarantined <- st.quarantined + 1
      | K_interrupted -> ());
      match c.c_kind with
      | K_interrupted ->
        (* Still spooled: its waiters get the drain notice at exit. *)
        ()
      | K_done -> answer_waiters st c.c_id (Wire.Result { job = c.c_id; ok = true; json = c.c_json })
      | K_failed ->
        answer_waiters st c.c_id (Wire.Result { job = c.c_id; ok = false; json = c.c_json })
      | K_canceled ->
        answer_waiters st c.c_id
          (Wire.Rerror { code = "canceled"; message = Printf.sprintf "job %s canceled" c.c_id })
      | K_quarantined ->
        answer_waiters st c.c_id
          (Wire.Rerror
             { code = "quarantined";
               message =
                 Printf.sprintf "job %s quarantined after repeated worker kills" c.c_id }))
    completions;
  if completions <> [] then set_depth_metric st;
  executor_done

(* --- socket setup ------------------------------------------------------ *)

let bind_socket cfg =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_UNIX cfg.socket_path in
  let try_bind () = Unix.bind fd addr in
  (try
     match try_bind () with
     | () -> ()
     | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
       (* A socket file is already there: a live daemon, or a stale
          corpse after kill -9.  Probe it. *)
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       let live =
         match Unix.connect probe addr with
         | () -> true
         | exception Unix.Unix_error _ -> false
       in
       (try Unix.close probe with Unix.Unix_error _ -> ());
       if live then
         Bgr_error.raise_error ~phase:"serve" ~file:cfg.socket_path Bgr_error.Io_error
           "a daemon is already serving this socket";
       (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
       try_bind ()
   with
  | Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Bgr_error.raise_error ~phase:"serve" ~file:cfg.socket_path Bgr_error.Io_error
      "cannot bind: %s" (Unix.error_message e));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

(* --- the event loop ---------------------------------------------------- *)

let sig_drain = Atomic.make false

let sig_metrics = Atomic.make false

(* Atomic rewrite of the Prometheus textfile: a scraper (or kill -9)
   sees either the previous complete snapshot or the new one, never a
   torn file. *)
let write_metrics_file cfg =
  match cfg.metrics_path with
  | None -> ()
  | Some path -> (
    match Spool.write_file_atomic path (Obs.Metrics.render_prometheus ()) with
    | () -> ()
    | exception Bgr_error.Error e ->
      cfg.log (Printf.sprintf "metrics: cannot write %s: %s" path e.Bgr_error.message))

let run cfg =
  (* A peer that vanishes mid-write must cost us an EPIPE, not the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let spool = Spool.open_root cfg.spool_root in
  let listen_fd = bind_socket cfg in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let sh =
    { mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      running = None;
      stop = false;
      executor_done = false;
      completions = [];
      retried = 0;
      killed = 0;
      cancel = None;
      worker_pid = None;
      progress = None;
      progress_events = [];
      progress_pending = 0;
      progress_dropped = 0;
      wake_w }
  in
  (* Supervisor pass: every accepted-but-unfinished job rides again.
     Quarantined jobs are deliberately absent: [Spool.scan] walks
     jobs/ only. *)
  let pending = Spool.scan spool in
  List.iter (fun w -> cfg.log (Printf.sprintf "spool: %s" w)) (Spool.scan_warnings spool);
  List.iter
    (fun (j : Spool.job) ->
      cfg.log
        (Printf.sprintf "requeueing job %s (attempts so far: %d)" j.Spool.j_id
           j.Spool.j_attempts);
      Queue.add j sh.queue)
    pending;
  let st =
    { cfg;
      spool;
      sh;
      wake_r;
      listen_fd;
      conns = [];
      queued = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      watchers = Hashtbl.create 16;
      watch_seq = Hashtbl.create 16;
      draining = false;
      accepted = 0;
      completed = 0;
      failed = 0;
      rejected = 0;
      protocol_errors = 0;
      canceled = 0;
      quarantined = 0;
      requeued = List.length pending }
  in
  List.iter (fun (j : Spool.job) -> Hashtbl.replace st.queued j.Spool.j_id ()) pending;
  set_depth_metric st;
  Atomic.set sig_drain false;
  Atomic.set sig_metrics false;
  if cfg.install_signals then begin
    let request_drain _ =
      Atomic.set sig_drain true;
      wake sh
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
    (* SIGUSR1: flush the metrics file on demand, without draining. *)
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Atomic.set sig_metrics true;
           wake sh));
    (* SIGQUIT: dump the flight recorder and keep serving — the
       operator's kill -QUIT is the [dump] opcode without a socket. *)
    Flight.install_sigquit_dump
      ~path:(fun () -> Filename.concat cfg.spool_root Flight.default_filename)
      ()
  end;
  let exec_domain = Domain.spawn (executor cfg spool sh) in
  cfg.log
    (Printf.sprintf "serving on %s (spool %s, cap %d, %s isolation, %d requeued)"
       cfg.socket_path cfg.spool_root cfg.queue_cap
       (match cfg.isolation with In_process -> "in-process" | Workers _ -> "worker")
       st.requeued);
  write_metrics_file cfg;
  let last_metrics_write = ref (Obs.now_s ()) in
  let finished = ref false in
  while not !finished do
    if Atomic.get sig_drain then start_drain st "signal";
    if
      Atomic.compare_and_set sig_metrics true false
      || cfg.metrics_interval_s > 0.0
         && Obs.now_s () -. !last_metrics_write >= cfg.metrics_interval_s
    then begin
      write_metrics_file cfg;
      last_metrics_write := Obs.now_s ()
    end;
    let rfds = st.listen_fd :: st.wake_r :: List.map (fun c -> c.fd) st.conns in
    let wfds = List.filter_map (fun c -> if c.wbuf <> "" then Some c.fd else None) st.conns in
    let readable, writable, _ =
      match Unix.select rfds wfds [] 0.5 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem st.wake_r readable then begin
      let buf = Bytes.create 64 in
      let rec drain_pipe () =
        match Unix.read st.wake_r buf 0 64 with
        | 64 -> drain_pipe ()
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      drain_pipe ()
    end;
    if List.mem st.listen_fd readable then accept_conn st;
    List.iter
      (fun conn -> if List.mem conn.fd readable then read_conn st conn)
      (List.filter (fun c -> List.memq c st.conns) st.conns);
    deliver_progress st;
    let executor_done = deliver_completions st in
    List.iter
      (fun conn -> if List.mem conn.fd writable || conn.wbuf <> "" then write_conn st conn)
      (List.filter (fun c -> List.memq c st.conns) st.conns);
    if st.draining && executor_done && locked sh (fun () -> sh.completions = []) then
      finished := true
  done;
  (* Drained: tell the waiters their jobs stay spooled, flush, leave. *)
  List.iter
    (fun conn ->
      List.iter
        (fun id ->
          send st conn
            (Wire.Rerror
               { code = "draining";
                 message =
                   Printf.sprintf "daemon draining; job %s remains spooled for the next start"
                     id }))
        (List.sort_uniq compare conn.waits))
    st.conns;
  (* Monotonic flush deadline: a wall-clock step (NTP, suspend) must
     neither cut the flush short nor wedge it. *)
  let deadline = Obs.now_s () +. 2.0 in
  while List.exists (fun c -> c.wbuf <> "") st.conns && Obs.now_s () < deadline do
    let wfds = List.filter_map (fun c -> if c.wbuf <> "" then Some c.fd else None) st.conns in
    (match Unix.select [] wfds [] 0.2 with
    | _, writable, _ ->
      List.iter
        (fun conn -> if List.mem conn.fd writable then write_conn st conn)
        (List.filter (fun c -> List.memq c st.conns) st.conns)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Domain.join exec_domain;
  (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close sh.wake_w with Unix.Unix_error _ -> ());
  (* Final flush after the executor joined: the file carries the whole
     life's counters even when nothing ever scraped the stats plane. *)
  write_metrics_file cfg;
  let left = locked sh (fun () -> Queue.length sh.queue) in
  cfg.log
    (Printf.sprintf "drained: %d completed, %d failed, %d still spooled" st.completed
       st.failed left);
  { s_requeued = st.requeued;
    s_accepted = st.accepted;
    s_completed = st.completed;
    s_failed = st.failed;
    s_retried = locked sh (fun () -> sh.retried);
    s_rejected = st.rejected;
    s_protocol_errors = st.protocol_errors;
    s_canceled = st.canceled;
    s_quarantined = st.quarantined;
    s_killed = locked sh (fun () -> sh.killed) }
