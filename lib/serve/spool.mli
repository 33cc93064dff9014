(** The daemon's crash-safe job store: one directory per accepted job.

    {v
    ROOT/jobs/<id>/JOB          job manifest (kind, options, attempts)
    ROOT/jobs/<id>/design.bgr   the submitted design bundle
    ROOT/jobs/<id>/MANIFEST, journal.bgrj, snapshot.bgrs, quality.bgrq
                                the Persist run-dir files of the attempt
    ROOT/jobs/<id>/RESULT       one JSON line, written atomically on success
    ROOT/dead/<id>/...          the whole directory, journal intact, after
                                the job is dead-lettered; plus an ERROR json
    ROOT/quarantine/<id>/...    same shape as dead/, for jobs that
                                repeatedly killed their worker process
    v}

    A job is {e accepted} once [JOB] and [design.bgr] are on disk
    (both written atomically and fsynced) — the daemon only sends the
    [accepted] reply after that, so a [kill -9] at any later moment
    loses nothing: the startup {!scan} finds every accepted job whose
    [RESULT] is missing and re-queues it. *)

type job = {
  j_id : string;
  j_timing_driven : bool;
  j_deadline_ms : int option;
  j_attempts : int;  (** attempts already started (across daemon restarts) *)
  j_kills : int;  (** worker processes killed on this job (hang/OOM/signal) *)
  j_last_kill : string;  (** latest kill reason, [""] when none *)
  j_kill_history : string list;
      (** every kill reason in order, oldest first ([j_last_kill] is
          its last element); persisted in the manifest's optional
          [kill_history] line, reset by {!revive} *)
}

val job_file : string
val result_file : string
val error_file : string
(** ["JOB"], ["RESULT"], ["ERROR"]. *)

val write_file_atomic : string -> string -> unit
(** Atomic durable write (temp file, fsync, rename) — the discipline
    every spool mutation uses, exported for the daemon's periodic
    metrics-file rewrite.  Raises a structured [Io_error] on
    failure. *)

type t

val open_root : string -> t
(** Create [ROOT], [ROOT/jobs], [ROOT/dead] and [ROOT/quarantine] as
    needed.  Structured [Io_error] when a directory cannot be
    created. *)

val root : t -> string

val job_dir : t -> string -> string
(** [ROOT/jobs/<id>] — also the Persist run directory of the job. *)

val dead_dir : t -> string -> string

val quarantine_dir : t -> string -> string

val fresh_id : t -> string
(** The next free generated id ["job-NNNNNN"], scanning [jobs/],
    [dead/] and [quarantine/] so ids never collide across restarts. *)

val exists : t -> string -> bool
(** The id names a spooled (live, dead or quarantined) job. *)

val accept : t -> job -> design_text:string -> unit
(** Durably record an accepted job: create its directory, write
    [design.bgr] and [JOB] (atomic + fsync).  Raises [Io_error] on
    failure — the caller then {e rejects} the submission, because an
    acceptance that might not survive a crash must never be
    acknowledged. *)

val load_job : t -> string -> (job, Bgr_error.t) result
(** Reads the live job's manifest, falling back to the dead-letter and
    quarantine copies, so attempt counts stay visible after
    retirement. *)

val read_manifest : string -> (job, Bgr_error.t) result
(** Read [dir/JOB] directly — how a worker subprocess, handed only a
    spool job directory, recovers the job it must run. *)

val record_attempt : t -> job -> job
(** Bump the attempt counter and rewrite [JOB] {e before} the attempt
    runs, so a crash mid-attempt still counts it — a job that crashes
    the daemon cannot crash-loop forever. *)

val record_kill : t -> job -> reason:string -> job
(** Bump the kill counter and record the reason (["hang"],
    ["hard-deadline"], ["oom"], ["signal-N"]...) in [JOB], durably,
    before the job is re-queued — a job that keeps killing its worker
    accumulates evidence toward {!quarantine} across daemon
    restarts. *)

val mark_done : t -> string -> json:string -> unit
(** Write [RESULT] atomically. *)

val retire : t -> string -> json:string -> unit
(** Dead-letter the job: write [ERROR] into its directory, then move
    the whole directory (journal and snapshot intact, for post-mortem
    resume) under [dead/]. *)

val quarantine : t -> string -> json:string -> unit
(** Like {!retire}, but into [quarantine/]: the verdict for a job that
    repeatedly killed its worker process.  Unlike dead-lettered jobs,
    the startup {!scan} never re-queues a quarantined job and
    {!revive} refuses it without [~force] — a poison job must not eat
    workers forever on the operator's behalf. *)

type state =
  | Pending of job  (** accepted, no RESULT yet *)
  | Done of string  (** RESULT json *)
  | Dead of string  (** ERROR json, directory under dead/ *)
  | Quarantined of string  (** ERROR json, directory under quarantine/ *)

val state_of : t -> string -> state option
(** Disk-level state of a job id; [None] when unknown. *)

val revive : ?force:bool -> t -> string -> (job, Bgr_error.t) result
(** Move a dead-lettered job back under [jobs/] with its attempt and
    kill counters reset — the manual [resume] path after the operator
    fixed whatever killed it.  A {e quarantined} job additionally
    requires [~force:true] (default false); without it the call
    returns a [Validate] error naming the quarantine. *)

val scan : t -> job list
(** Every accepted-but-unfinished job (no [RESULT]), oldest id first —
    the startup supervisor re-queues exactly this list.  Entries whose
    [JOB] manifest is unreadable are skipped with a warning pushed to
    [scan_warnings]. *)

val scan_warnings : t -> string list
(** Warnings of the latest {!scan} (corrupt manifests found). *)
