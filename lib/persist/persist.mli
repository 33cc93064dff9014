(** Crash-safe routing runs: a run directory holding the design, the
    run manifest, the write-ahead deletion {!Journal} and the latest
    phase-boundary {!Snapshot}.

    {!route} is {!Flow.run} with persistence hooks installed: every
    primary deletion is journaled {e before} it is applied, and every
    completed phase fsyncs the journal and atomically replaces the
    snapshot.  {!resume} rebuilds the router from the stored design
    (the preparation pipeline is deterministic), restores the snapshot
    and/or replays the journal, truncates any torn journal tail with a
    recorded warning, and continues the run — finishing with the same
    {!Router.deletion_hash} as an uninterrupted run.

    Recovery rules:
    {ul
    {- With a snapshot: restore it, cross-check the rebuilt density
       charts against the recorded ones, skip the completed phases and
       discard journal records past the snapshot (the current phase
       re-runs deterministically from its boundary).}
    {- Without a snapshot (killed during [initial_route]): replay every
       intact journal record, verifying each record's
       [deletions_before]/[hash_before] chain against the live router,
       then let the run continue selecting from where the journal
       ends — [initial_route] is memoryless.}
    {- A torn final record (the kill landed mid-append) is truncated
       with a warning; corruption anywhere else is a structured
       [Parse] error.}} *)

val design_file : string
val manifest_file : string
val journal_file : string
val snapshot_file : string
(** File names inside a run directory: ["design.bgr"], ["MANIFEST"],
    ["journal.bgrj"], ["snapshot.bgrs"]. *)

val route :
  ?options:Router.options ->
  ?timing_driven:bool ->
  ?budget:Budget.t ->
  ?on_quality:(Router.quality_sample -> unit) ->
  dir:string ->
  design_text:string ->
  Flow.input ->
  Flow.outcome
(** Run the full flow with persistence: create [dir] (if needed), store
    [design_text] and the manifest, journal every deletion and snapshot
    every phase boundary.  The routing result is bit-identical to
    {!Flow.run} with the same options.  Metrology always uses the
    default left-edge channel router, which the manifest therefore
    need not record: a resume measures like the run it continues.
    [on_quality] is the quality
    hook of {!Flow.run} — a run recorded into a [.bgrq] log alongside
    the journal keeps the identical deletion hash. *)

type resume_report = {
  rr_outcome : Flow.outcome;
  rr_replayed : int;
      (** journal records re-applied edge by edge (killed during
          [initial_route]; [0] when a snapshot covered them) *)
  rr_discarded : int;
      (** intact post-snapshot records discarded — that phase re-ran
          deterministically from its boundary *)
  rr_completed_at_load : string list;
      (** phases already complete when the run resumed *)
  rr_warnings : string list;
      (** torn-tail truncations, discarded tails, missing files *)
}

val resume :
  ?domains:int ->
  ?budget:Budget.t ->
  ?on_quality:(Router.quality_sample -> unit) ->
  dir:string ->
  unit ->
  (resume_report, Bgr_error.t) result
(** Resume an interrupted {!route} from its run directory and carry it
    to completion (the resumed run keeps journaling and snapshotting,
    so a resume can itself be killed and resumed).  [domains] overrides
    the scoring-engine domain count ([0] = auto); the deletion sequence
    is bit-identical for every value.  Errors are structured: an
    unreadable directory is [Io_error], a corrupt manifest, design,
    snapshot or journal body is [Parse], and a journal whose records
    contradict the rebuilt router's deletion-hash chain is [Internal]. *)
