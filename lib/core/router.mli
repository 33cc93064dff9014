(** The edge-deletion global router (Fig. 2) with the selection
    heuristics of Sec. 3.4 and the improvement phases of Sec. 3.5.

    Lifecycle:
    {ol
    {- {!create} builds every net's routing graph over an already
       feedthrough-assigned floorplan, registers channel densities and
       seeds the timing state;}
    {- {!initial_route} repeatedly selects one non-bridge edge across
       {e all} nets and deletes it ("the interconnection wiring of all
       nets is determined concurrently") until every net graph is a
       tree;}
    {- {!recover_violations}, {!improve_delay} and {!improve_area}
       rip up and reroute nets one by one;}
    {- {!run} chains all of the above.}}

    Pass [sta = None] (or a constraint-free STA) for the paper's
    "without constraints" baseline: all delay criteria tie and the
    selection degenerates to the pure density heuristics. *)

type cl_estimator =
  | Tentative_tree  (** Dijkstra shortest-path union (Sec. 3.2) *)
  | Star_bbox  (** half-perimeter estimate — ablation A3 *)

type delay_model =
  | Lumped_c  (** the paper's capacitance model, Eq. 1 *)
  | Elmore_rc
      (** per-sink Elmore RC delays through the tentative tree — the
          Sec. 2.1 extension; the selection heuristics still use the
          capacitive first-order term for [LM(e,P)], exactly as the
          paper notes ("the routing flow and the heuristic criteria ...
          are not influenced by this delay model change") *)

type options = {
  cl_estimator : cl_estimator;
  delay_model : delay_model;
  area_first_ordering : bool;
      (** use the area-improvement criterion ordering ([C_d] first,
          then density, [Gl]/[LD] last) from the start — ablation A1 *)
  max_recover_passes : int;
  max_delay_passes : int;
  max_area_passes : int;
  domains : int;
      (** domain count of the parallel scoring engine: [0] (the
          default) resolves to the [BGR_DOMAINS] environment variable
          or the available cores; [1] forces the strictly sequential
          engine; [n > 1] scores candidate edges on [n] domains.  The
          routing result is bit-identical for every value: candidates
          are {e scored} in parallel (each deletable edge's [C_d],
          [Gl], [LD], tentative-tree [CL] and density parameters are
          pure functions of the routing state, cached per edge) while
          the winning deletion is selected and {e applied}
          sequentially. *)
}

val default_options : options

type t

type phase_report = {
  reroutes : int;  (** nets ripped up and rerouted *)
  passes : int;
}

val create :
  ?options:options ->
  Floorplan.t ->
  Feedthrough.assignment ->
  Sta.t option ->
  t

val floorplan : t -> Floorplan.t
val assignment : t -> Feedthrough.assignment
val sta : t -> Sta.t option
val density : t -> Density.t
val options : t -> options

val n_deletions : t -> int
(** Edge deletions performed so far (including pruned stubs). *)

val deletion_hash : t -> int
(** Order-sensitive hash of the whole [(net, edge)] deletion sequence,
    cascaded prunes included — the fingerprint the determinism tests
    compare across domain counts: equal hashes mean the parallel and
    sequential engines deleted exactly the same edges in exactly the
    same order. *)

val n_domains : t -> int
(** Domains the scoring engine actually runs on ([1] = sequential). *)

val pool_warnings : t -> string list
(** Degradation warnings recorded by the scoring pool (worker deaths,
    spawn failures); empty for the sequential engine. *)

val n_recognized_pairs : t -> int
(** Differential pairs routed with mirrored deletions. *)

val initial_route : t -> unit

val route_sequential : ?congestion_weight:float -> ?order:int list -> t -> unit
(** Baseline: route nets one at a time, as the sequential timing-driven
    routers the paper compares its concurrent scheme against ([6][7][8]
    in its references).  Each net in [order] (default: the netlist
    order) picks its tree by a congestion-priced Dijkstra — a trunk's
    cost grows by [congestion_weight] (default 0.5) track-heights per
    unit of current channel density over its span — and then every
    other candidate edge of that net is deleted before the next net is
    considered.  Unlike {!initial_route}, the result depends on the net
    ordering; recognized differential pairs still mirror. *)

val recover_violations : ?guard:(unit -> unit) -> ?max_passes:int -> t -> phase_report
val improve_delay : ?guard:(unit -> unit) -> ?max_passes:int -> t -> phase_report
val improve_area : ?guard:(unit -> unit) -> ?max_passes:int -> t -> phase_report
(** The improvement phases.  [guard] is called before every pass (it
    may raise to abandon the phase); [max_passes] caps the pass count
    below the configured maximum. *)

type stop_reason =
  | Finished
  | Deadline of { phase : string }  (** budget ran out while this phase was due *)
  | Fault_stop of { phase : string; error : Bgr_error.t }
      (** an injected fault (site ["router.improve"]) fired *)

type run_report = {
  completed_phases : string list;  (** in execution order *)
  stopped_because : stop_reason;
  rolled_back : bool;
      (** a mid-phase stop discarded partial reroutes and restored the
          last checkpoint *)
}

val stop_reason_string : stop_reason -> string

(** {1 Checkpoints and crash safety}

    The hooks below are the router side of the write-ahead persistence
    subsystem ([lib/persist]): the commit hook observes every primary
    deletion {e before} it is applied, and the checkpoint hook fires at
    each phase boundary with the consistent state to snapshot. *)

type checkpoint
(** Consistent routing state: each net's live candidate-edge set plus
    the deletion counters.  Edge ids are stable across router rebuilds
    because routing graphs are constructed deterministically. *)

val checkpoint : t -> checkpoint

val checkpoint_make : deletions:int -> del_hash:int -> live:int list array -> checkpoint
(** Reassemble a checkpoint from its serialized parts (snapshot load). *)

val checkpoint_stats : checkpoint -> int * int
(** [(deletions, deletion hash)] recorded in the checkpoint. *)

val checkpoint_live : checkpoint -> int list array
(** Per-net live edge ids (a copy). *)

val restore : t -> checkpoint -> unit
(** Bring the router back to the checkpointed state: every net's
    candidate graph is rebuilt and reduced to the recorded live set,
    pairs are re-recognized, timing is refreshed, and the deletion
    counters are rewound to the checkpoint's — so a restored run
    continues the same deletion-hash chain.  No-op when the state
    already matches. *)

type deletion_commit = {
  dc_phase : string;  (** phase the selection ran in *)
  dc_area_mode : bool;  (** heuristic ordering in force *)
  dc_net : int;
  dc_edge : int;
  dc_deletions_before : int;  (** {!n_deletions} before this deletion *)
  dc_hash_before : int;  (** {!deletion_hash} before this deletion *)
}
(** One committed primary deletion as seen by the write-ahead hook.
    Cascaded prunes and the mirrored partner deletion are deterministic
    consequences and are {e not} separately committed — a mirrored pair
    costs one record. *)

val set_commit_hook : t -> (deletion_commit -> unit) option -> unit
(** Install (or clear) the write-ahead hook, called before each
    committed deletion is applied. *)

val set_checkpoint_hook :
  t -> (phase:string -> completed:string list -> checkpoint -> unit) option -> unit
(** Install (or clear) the phase-boundary hook {!run} fires after each
    completed phase, with the full completed list so far. *)

(** {1 Solution-quality telemetry}

    The quality hook is the router side of [lib/analyze]: the
    orchestrator installs it (never a pool worker), the router pushes
    {!quality_sample} records through it — every {e quality_cadence}
    committed deletions, at the end of every improvement pass, and at
    every phase boundary — and the subscriber persists them (the
    [.bgrq] event log).  Recording is observational only: building a
    sample reads warm caches and O(channels + sinks) aggregates, so the
    deletion sequence (and {!deletion_hash}) is byte-identical with the
    hook on or off, at any domain count.  A raising hook is disabled
    with an [Obs] warning, like a failed trace sink. *)

type quality_kind =
  | Q_cadence  (** bounded-cadence sample inside a phase *)
  | Q_pass  (** end of one improvement pass *)
  | Q_phase  (** phase boundary (carries per-constraint margins) *)

type quality_sample = {
  qs_kind : quality_kind;
  qs_phase : string;  (** same names as the journal and the span stream *)
  qs_pass : int;  (** pass number ([0] outside improvement passes) *)
  qs_deletions : int;
      (** {!n_deletions} at sample time — correlates with the journal's
          [deletions_before] chain *)
  qs_worst_margin_ps : float;  (** [nan] without timing state *)
  qs_worst_constraint : int;  (** id of the worst constraint; [-1] none *)
  qs_total_negative_ps : float;  (** sum of negative margins *)
  qs_violations : int;
  qs_ep_slack_min_ps : float;  (** endpoint-slack extremes; [nan] without sinks *)
  qs_ep_slack_max_ps : float;
  qs_density : int array;  (** bridge density [C_M] per channel *)
  qs_criteria : (string * int) list;
      (** committed deletions since the previous sample, by the
          criterion that separated winner from runner-up (the
          [bgr_deletions_total] label vocabulary) *)
  qs_margins : float array;  (** per-constraint margins; [Q_phase] only *)
}

val set_quality_hook : t -> (quality_sample -> unit) option -> unit
(** Install (or clear) the quality hook; resets the criterion
    accumulator. *)

val sample_quality : ?sta:Sta.t -> t -> phase:string -> quality_sample
(** Build one [Q_phase] sample of the current state without draining
    the criterion counts — the orchestrator's probe for out-of-router
    boundaries (e.g. the post-metrology final sample, where [sta]
    overrides the router's timing state with the measured one). *)

val apply_deletion : t -> net:int -> edge:int -> unit
(** Replay one journaled primary deletion (cascades and mirroring
    included) without invoking the commit hook.  Raises a structured
    [Bgr_error.Error] ([Internal]) when the record does not name a live
    deletable candidate — a corrupt journal must never crash. *)

val run : ?budget:Budget.t -> ?completed:string list -> t -> run_report
(** [initial_route] + the three improvement phases + a final timing
    cleanup, with a checkpoint after each phase.  The initial routing
    always completes — every net has a verifiable tree in any outcome —
    and from then on the budget is consulted between phases and before
    every improvement pass.  On budget exhaustion (or an injected
    fault) the router stops at the last consistent state: partial
    passes are rolled back to the previous checkpoint, and the report
    says which phases completed and why the run stopped.  The stop
    point is a deterministic program point, so with a zero wall-clock
    budget the result is bit-identical across domain counts.

    [completed] lists phases already done (a resumed run): they are
    skipped, the current state is taken as the initial rollback
    checkpoint, and the returned [completed_phases] includes them.
    Because every phase is deterministic, a resumed run finishes with
    the same {!deletion_hash} as an uninterrupted one. *)

val is_routed : t -> bool
(** No non-bridge edge remains anywhere. *)

(** {1 Results} *)

val tree_edges : t -> int -> int list
(** Final (or current tentative) wiring tree of a net, as edge ids into
    {!routing_graph}. *)

val routing_graph : t -> int -> Routing_graph.t

val net_length_um : t -> int -> float

val total_length_mm : t -> float

val wire_caps : t -> float array
(** Current [CL(n)] per net, fF. *)

(** {1 Audit and repair access} *)

val mirrored : t -> int -> bool
(** The net currently routes as half of a recognized mirrored pair. *)

val partner_map_copy : t -> int -> int array
(** Copy of the net's partner edge map ([[||]] when not mirrored) —
    input to {!Diff_pair.mirror_problems}. *)

val drop_pair_recognition : t -> int -> unit
(** Forget the recognition of this net's pair (both sides): the repair
    for a broken mirroring invariant — the nets route independently
    from here on. *)

val rebuild_derived : t -> unit
(** Rebuild all derived state — bridge sets, candidate lists, density
    charts, tentative trees, wire caps, timing weights — from the
    primal live graphs.  The repair step of [Verify.audit]: fixes any
    corruption of derived state; primal damage (a disconnected net) is
    left for the audit to report. *)

type chan_pin = { cp_x : int; cp_from_top : bool }

type chan_net = {
  cn_net : int;
  cn_lo : int;  (** leftmost connection column (closed) *)
  cn_hi : int;  (** rightmost connection column (closed) *)
  cn_pins : chan_pin list;
  cn_pitch : int;
}

val channel_nets : t -> channel:int -> chan_net list
(** Per-channel net segments (with their vertical connection points)
    derived from the final trees — the channel router's input. *)

val reroute_net : t -> int -> unit
(** Rip up and reroute one net (and its recognized differential
    partner) with the current heuristics — exposed for experiments. *)

val set_area_mode : t -> bool -> unit
(** Toggle the area-improvement criterion ordering: delay count first,
    then density conditions, with [Gl]/[LD] last (Sec. 3.5). *)

val penalty : float -> float -> float
(** The penalty function of Eq. 4:
    [pen x limit = 1 - x/limit] when [x >= 0], [exp (-x/limit)]
    otherwise (clamped against overflow) — exposed for testing and for
    external cost models. *)
