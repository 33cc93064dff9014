(** Static timing analysis over [G_D] under a constraint set.

    For each constraint [P] the delay constraint graph [G_d(P)] — the
    sub-DAG of vertices lying on some source-to-sink path — is fixed by
    topology and computed once.  Arrivals [lp(v)] (the "original longest
    path delay to v" of Eq. 2) and margins
    [M(P) = tau_P - critical delay] are recomputed by {!refresh} after
    wiring-capacitance updates; {!timing_revision} lets callers cache
    values derived from them. *)

type t

exception Unknown_node of string

val create : Delay_graph.t -> Path_constraint.t list -> t
(** @raise Unknown_node when a constraint names a node absent from the
    delay graph.
    @raise Dag.Cycle on combinational cycles. *)

val delay_graph : t -> Delay_graph.t

val n_constraints : t -> int

val constraint_ : t -> int -> Path_constraint.t

val refresh : t -> unit
(** Recompute arrivals and margins for every constraint. *)

val set_limit : t -> int -> float -> unit
(** Change a constraint's delay limit in place — the ECO entry point:
    tighten after routing, then run the router's violation-recovery
    phase.  Bumps the timing revision.
    @raise Path_constraint.Bad_constraint on a non-positive limit. *)

val refresh_for_nets : t -> int list -> unit
(** Recompute only the constraints whose [G_d(P)] contains an edge of
    one of the given nets. *)

val timing_revision : t -> int
(** Bumped by every refresh that changed at least one constraint. *)

val margin : t -> int -> float
(** [M(P)]: limit minus critical delay; negative on violation;
    [infinity] when no sink is reachable (vacuously met). *)

val critical_delay : t -> int -> float
(** Longest source-to-sink delay of the constraint ([neg_infinity] when
    no path exists). *)

val arrival : t -> int -> float array
(** Per-vertex longest-path arrival [lp(v)] from the constraint's
    sources (with flip-flop launch offsets applied). *)

val in_gd : t -> int -> int -> bool
(** [in_gd t ci v]: does vertex [v] belong to [G_d(P_ci)]? *)

val gd_edges_of_net : t -> ci:int -> net:int -> int list
(** Dag edge ids of the net that lie inside [G_d(P_ci)] (both endpoints
    in the mask) — the edges inspected by [LM(e,P)]. *)

val constraints_of_net : t -> int -> int list
(** [P(e)] for edges of this net: constraint indices whose [G_d]
    contains at least one of the net's edges (static). *)

val critical_path : t -> int -> int list
(** Vertex sequence of the constraint's current critical path ([] when
    no path). *)

val required : t -> int -> float array
(** Per-vertex required time under the constraint: the limit minus the
    longest remaining path to any of its sinks ([infinity] when the
    vertex reaches no sink). *)

val vertex_slack : t -> int -> float array
(** [required - arrival] per vertex; the minimum over [G_d(P)] vertices
    equals {!margin}. *)

type endpoint_report = {
  ep_vertex : int;  (** the sink *)
  ep_delay_ps : float;
  ep_slack_ps : float;
  ep_path : int list;  (** worst path reaching the sink *)
}

val endpoint_reports : t -> int -> endpoint_report list
(** STA-style timing report: the worst path into each reachable sink of
    the constraint, sorted worst (smallest slack) first. *)

val critical_nets : t -> int -> int list
(** Nets driven along the current critical path, in path order. *)

val margins : t -> float array
(** {!margin} of every constraint, indexed by constraint id — a cheap
    snapshot for quality telemetry (no path walks). *)

val endpoint_slacks : t -> int -> float list
(** Slack [tau_P - lp(sink)] of each reachable sink of the constraint,
    in sink order.  Same values as {!endpoint_reports} but without
    building the worst paths. *)

val endpoint_slack_extremes : t -> (float * float) option
(** [(min, max)] endpoint slack over every reachable sink of every
    constraint; [None] when no sink is reachable.  O(total sinks). *)

val worst : t -> (int * float) option
(** The constraint with the smallest margin, with that margin. *)

val worst_path_delay : t -> float
(** Maximum critical delay over all constraints ([neg_infinity] with no
    constraints). *)

val violations : t -> int list
(** Constraints with negative margin, most violated first. *)

(** {1 Static (zero-capacitance) analysis} *)

val static_net_order : Delay_graph.t -> Path_constraint.t list -> int list
(** All net ids "arranged in ascending order" of static slack
    (Sec. 3.1) — the feedthrough assignment order. *)
