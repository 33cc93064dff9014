(** Process isolation for routing attempts.

    In the daemon's [Workers] isolation mode each routing attempt runs
    in a forked-and-exec'd [bgr_serve worker] subprocess, so a hung,
    OOM-killed or crashing attempt costs one child process, never the
    daemon.  The two halves meet over a pipe on the worker's stdout:

    {ul
    {- {!main} — the worker process.  Re-opens the job's spool
       directory, runs the single attempt through the ordinary
       [Persist.route]/[Persist.resume] path, and reports over the
       pipe: the ["BGRW1\n"] magic, then CRC frames ({!event})
       carrying periodic heartbeats (driven off the router's
       quality-sample cadence), and finally one [Done] or [Fail]
       frame.  Exits with the documented [Bgr_error] exit code.}
    {- {!supervise} — the daemon side.  Spawns the child with
       [Unix.create_process] (Domain-safe, unlike a bare fork),
       follows the pipe, and SIGKILLs the child on heartbeat silence,
       hard wall-deadline overrun or a cancel request.  EOF plus
       [waitpid] classify the outcome.}}

    The frame spec is documented in docs/FORMATS.md; the supervision
    semantics in docs/serving.md. *)

val magic : string
(** ["BGRW1\n"], sent by the worker before its first frame. *)

type event =
  | Heartbeat of { phase : string; pass : int; deletions : int; worst_margin_ps : float }
      (** liveness plus progress; emitted at spawn and then once per
          router quality sample.  [worst_margin_ps] is the sample's
          worst constraint margin ([nan] before the first sample or on
          unconstrained runs). *)
  | Done of { json : string }  (** the complete RESULT json *)
  | Fail of { code : string; message : string }
      (** structured failure: [code] is a {!Bgr_error.code_name} (or
          ["oom"]), [message] its rendering *)
  | Obs_summary of { json : string }
      (** the worker's observability summary (pid, trace epoch, span
          count, artifact file names — see docs/FORMATS.md), sent just
          before the terminal frame when the worker runs with [~obs];
          the daemon stitches the attempt's spans and metrics from it *)
  | Dump of { path : string }
      (** the worker wrote its flight-recorder dump ([BGRF1]) to
          [path] — in response to the supervisor's SIGQUIT dump
          request, or spontaneously just before a [Fail] frame *)

val encode_event : event -> string
(** The complete frame (length, payload, CRC). *)

val decode_event : string -> (event, Bgr_error.t) result
(** Decode a frame payload (opcode byte onward). *)

(** {1 Shared attempt machinery}

    Used by both isolation modes, so [In_process] and [Workers] runs
    produce bit-identical results and jsons. *)

val result_json : string -> Flow.measurement -> attempts:int -> string
val error_json : string -> Bgr_error.t -> attempts:int -> string

val budget_of : ?default_deadline_ms:int -> Spool.job -> Budget.t
(** The job's own deadline, else the daemon default, else unlimited. *)

val attempt :
  domains:int ->
  budget:Budget.t ->
  ?on_quality:(Router.quality_sample -> unit) ->
  dir:string ->
  Spool.job ->
  (Flow.outcome, Bgr_error.t) result
(** One attempt: [Persist.route] the first time, [Persist.resume] once
    a journal exists — a retry after a mid-route fault (or a killed
    worker) continues the interrupted run bit-identically. *)

(** {1 The worker process} *)

val oom_exit_code : int
(** [70] — the worker's exit code after [Out_of_memory], recognized by
    the supervisor even when the OOM frame itself failed to flush. *)

val trace_chrome_file : attempt:int -> string
val trace_jsonl_file : attempt:int -> string
val metrics_file : attempt:int -> string
val obs_summary_file : attempt:int -> string
(** Per-attempt observability artifact names inside the job's spool
    directory ([trace-aN.json], [trace-aN.jsonl], [metrics-aN.json],
    [obs-aN.json]), keyed by the attempt ordinal so retries never
    clobber an earlier attempt's trace.  The metrics file is the
    worker registry's {!Obs.Metrics.render_json} dump, which
    {!Stitch.merge} folds back into the daemon.  The flight-recorder dump
    rides the same convention: {!Flight.attempt_filename}
    ([flight-aN.bgrf]). *)

val main :
  ?domains:int ->
  ?default_deadline_ms:int ->
  ?mem_limit_mb:int ->
  ?trace_id:string ->
  ?parent_span:int ->
  ?obs:bool ->
  dir:string ->
  unit ->
  'a
(** Run the worker process on spool job directory [dir]; never
    returns.  With [~obs:true] the worker records its own spans and
    metrics: it adopts [trace_id], parents its root span under the
    supervisor's [parent_span], writes the four per-attempt artifact
    files into [dir], and sends an [Obs_summary] frame before the
    terminal one.  Fault sites ["serve.worker.hang"] and
    ["serve.worker.kill"] are tripped here, {e attempt-gated}: each
    site is tripped once per attempt already recorded in the manifest
    and only the last answer acts, so [SITE:n=K] means "the K-th
    attempt's worker misbehaves" even though every attempt is a fresh
    process with fresh fault counters. *)

(** {1 The supervisor (daemon side)} *)

type kill_reason =
  | Hang  (** heartbeat silence beyond the watchdog timeout *)
  | Hard_deadline  (** still running past the wall deadline plus grace *)
  | Canceled  (** an operator [cancel] request *)
  | Signaled of int  (** died by an external signal (e.g. kill -9, OOM killer) *)
  | Oom  (** the worker reported [Out_of_memory] under its memory ceiling *)

val kill_reason_string : kill_reason -> string
(** ["hang"], ["hard-deadline"], ["canceled"], ["signal-N"] (N the
    conventional POSIX number, e.g. ["signal-9"] for SIGKILL), ["oom"]
    — the vocabulary recorded in the JOB manifest and the
    [serve_worker_kills_total] metric label. *)

type failure =
  | Failed of { code : string; message : string }
      (** the worker reported a structured error (or broke protocol:
          code ["internal"]) *)
  | Killed of { reason : kill_reason; detail : string }
      (** the watchdog (or the outside world) killed the worker *)
  | Spawn_error of string  (** the child could not be started at all *)

type progress = {
  p_phase : string;
  p_pass : int;
  p_deletions : int;
  p_worst_margin_ps : float;
}

type verdict = V_ok | V_kill of kill_reason * string

val watchdog_verdict :
  now_s:float ->
  started_s:float ->
  last_beat_s:float ->
  heartbeat_timeout_ms:float ->
  hard_deadline_ms:float ->
  canceled:bool ->
  verdict
(** The supervisor's per-poll watchdog decision, pure and
    clock-injectable: cancel wins, then heartbeat silence beyond
    [heartbeat_timeout_ms] ([Hang]), then total runtime beyond
    [hard_deadline_ms] ([Hard_deadline]).  A slow-but-alive worker —
    beats arriving within the timeout, however sparse — is never
    killed before the hard deadline. *)

val supervise :
  ?heartbeat_timeout_ms:float ->
  ?hard_deadline_ms:float ->
  ?canceled:(unit -> bool) ->
  ?on_progress:(progress -> unit) ->
  ?on_spawn:(int -> unit) ->
  ?on_obs:(string -> unit) ->
  ?on_dump:(string -> unit) ->
  log:(string -> unit) ->
  argv:string array ->
  unit ->
  (string, failure) result
(** Spawn [argv] (stdin /dev/null, stdout the report pipe, stderr
    inherited) and supervise it to completion; [Ok json] is the RESULT
    json from its [Done] frame.  [heartbeat_timeout_ms] (default
    10 000) arms the hang watchdog; [hard_deadline_ms] (default none)
    the wall ceiling; [canceled] is polled every 50 ms.  [on_spawn]
    receives the child pid (the cancel path and the chaos tests need
    it); [on_progress] each heartbeat; [on_obs] the [Obs_summary] json
    when the worker sends one; [on_dump] the path from a [Dump] frame.
    A watchdog kill first sends SIGQUIT — the dump request — and
    drains the pipe for up to 500 ms waiting for the worker's [Dump]
    frame before the SIGKILL, so the flight record survives the execution.
    Protocol-violation kills skip the grace: that pipe can no longer
    be trusted.  Trips ["serve.worker.spawn"] before forking,
    surfacing as [Spawn_error].  Never raises on child misbehavior:
    every outcome is classified into the {!failure} taxonomy. *)
