(** The routing daemon: a supervised, crash-safe routing-as-a-service
    loop over a Unix domain socket.

    One {!run} call is one daemon lifetime.  Inside it live exactly two
    domains:

    {ul
    {- the {e event loop} (the calling domain): [Unix.select] over the
       listening socket, the client connections and a self-pipe.  It
       frames and decodes requests ({!Wire}), answers cheap operations
       ([status], [analyze], [stats]) inline, fans worker progress out
       to [watch] subscribers, and feeds routing work to the executor
       through a bounded queue.  It never routes and never emits trace
       spans.}
    {- the {e executor}: a single spawned domain, the sole routing (and
       hence {!Par}) orchestrator.  It pops one job at a time, runs it
       under the retry policy ({!Retry}) with a fresh {!Budget} per
       attempt, and hands the completion back through the self-pipe.}}

    Crash safety is the {!Spool} contract: a submission is acknowledged
    only after its job directory is durably on disk, each attempt runs
    as a {!Persist} run inside that directory, and on startup a
    supervisor pass re-queues every accepted job that has no RESULT —
    so [kill -9] at any point loses no accepted job.

    Admission control: when the queue (plus the running job) holds
    [queue_cap] jobs, new submissions get a structured [overloaded]
    reply and are {e not} spooled.  Supervisor re-queues bypass the
    cap — they were already accepted in a previous life.

    Degradation: protocol garbage, oversized frames, bad CRCs, unknown
    opcodes and mid-request disconnects cost the offending connection
    only; injected faults at sites ["serve.accept"], ["serve.read"],
    ["serve.write"] and ["serve.job"] are contained the same way (the
    last one is retryable and feeds the retry/dead-letter machinery).

    Isolation: under [Workers] each routing attempt runs in a
    supervised worker subprocess ({!Worker}): a hang (watchdog on
    heartbeat silence), an OOM, an external [kill -9] or a hard
    wall-deadline overrun costs that child only — the kill reason is
    recorded in the job manifest, retryable kills resume the journal
    bit-identically, and a job that keeps killing its workers is
    {e quarantined} (excluded from startup re-queue; only a forced
    [revive] re-runs it).  [In_process] preserves the single-process
    behavior and keeps tests hermetic.

    Observability: a [watch] request (or [wait] with the progress
    flag) subscribes the connection to a job's live progress — worker
    heartbeats (or in-process quality samples) become [Progress] info
    frames, strictly increasing per-job sequence, until the final
    [Result]; a subscriber that stops reading is shed once the
    daemon's write buffer for it passes 1 MiB (the final result is
    still delivered).  A [stats] request answers with a live registry
    snapshot (Prometheus text or JSON) straight from the event loop.
    Under [stitch_workers] the worker's spans and counters are folded
    back into this process after every attempt, so traces and stats
    cover both sides of the fork.  None of this changes routing:
    deletion hashes are bit-identical with and without it.

    Shutdown: SIGTERM/SIGINT (when [install_signals]) or a [shutdown]
    request starts a {e drain}: no new admissions, the running job
    finishes, queued jobs stay spooled for the next start, waiters get
    a structured error, and {!run} returns.  A drain that lands during
    a backoff sleep interrupts it; the job stays spooled. *)

type isolation =
  | In_process  (** attempts run on the executor domain (the default) *)
  | Workers of string array
      (** argv {e prefix} of the worker command (e.g.
          [[| "/path/bgr_serve"; "worker" |]]); the daemon appends
          [--dir] and the per-job options *)

type config = {
  socket_path : string;
  spool_root : string;  (** the {!Spool} root directory *)
  queue_cap : int;  (** max queued + running jobs; beyond it: [overloaded] *)
  max_attempts : int;  (** attempts per job before dead-lettering *)
  backoff_base_ms : float;  (** retry backoff base (doubles per attempt) *)
  backoff_max_ms : float;  (** retry backoff cap (post-jitter) *)
  job_domains : int;  (** router scoring domains per job ([0] = auto) *)
  default_deadline_ms : int option;
      (** per-job wall budget when the submission names none *)
  install_signals : bool;
      (** install SIGTERM/SIGINT drain handlers (the CLI daemon does;
          in-process test servers must not) *)
  isolation : isolation;
  heartbeat_timeout_ms : float;
      (** watchdog: SIGKILL a worker silent this long ([Workers] only) *)
  hard_deadline_grace_ms : float;
      (** SIGKILL a worker still alive this long past its wall budget *)
  mem_limit_mb : int;  (** worker address-space ceiling; [0] = none *)
  quarantine_kills : int;  (** worker kills before the job is quarantined *)
  stitch_workers : bool;
      (** hand each worker [--obs]/[--trace-id]/[--parent-span] and
          fold its recorded spans and metrics back into this process
          ({!Stitch}) when the attempt ends ([Workers] only) *)
  metrics_path : string option;
      (** Prometheus textfile to rewrite atomically: once at startup,
          on SIGUSR1 (when [install_signals]), every
          [metrics_interval_s], and finally after the drain — so
          [kill -9] loses at most one interval of counters *)
  metrics_interval_s : float;
      (** period of the [metrics_path] rewrite; [0.] = only
          startup/SIGUSR1/drain writes *)
  log : string -> unit;  (** line logger for operational events *)
}

val default_config : socket_path:string -> spool_root:string -> config
(** [queue_cap = 16], [max_attempts = 2], [backoff_base_ms = 250.],
    [backoff_max_ms = 30_000.], [job_domains = 0], no default
    deadline, no signal handlers, [In_process] isolation (the CLI
    daemon overrides this to [Workers] on itself),
    [heartbeat_timeout_ms = 10_000.], [hard_deadline_grace_ms =
    30_000.], no memory ceiling, [quarantine_kills = 3], no worker
    stitching, no metrics file, silent log. *)

type stats = {
  s_requeued : int;  (** jobs the startup supervisor re-queued *)
  s_accepted : int;  (** new submissions durably accepted *)
  s_completed : int;  (** jobs finished with a RESULT *)
  s_failed : int;  (** jobs moved to the dead-letter dir *)
  s_retried : int;  (** attempt retries taken *)
  s_rejected : int;  (** submissions refused (overloaded or draining) *)
  s_protocol_errors : int;  (** malformed frames/requests answered *)
  s_canceled : int;  (** jobs canceled (queued or running) *)
  s_quarantined : int;  (** jobs quarantined after repeated worker kills *)
  s_killed : int;  (** worker processes killed (watchdog or external) *)
}

val run : config -> stats
(** Bind the socket, re-queue the spool, serve until drained.  Blocks
    the calling domain (spawn a [Domain] around it for an in-process
    server).  Structured [Io_error] when the socket cannot be bound.
    The socket file is unlinked on return. *)

(**/**)

val progress_json : string -> int -> Worker.progress -> string
(** Exposed for tests: the watch stream's progress-frame payload.
    Non-finite margins render as [null] ({!Qjson.num}), so a nan
    worst margin survives the wire as "no number yet". *)
