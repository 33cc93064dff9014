(** The global delay graph [G_D] (Sec. 2.1, Fig. 1).

    "Because most cells have only one output terminal, the simplified
    graph ... is adequate for analyzing critical paths": vertices stand
    for cell output terminals (plus chip ports and flip-flop data/clock
    inputs, where paths start and end), and an edge [u -> v] carries the
    whole stage delay of Eq. 1 —

    {v T0(ti,to) + (sum F_in over the net's fanout) * Tf(u) + CL(n) * Td(u) v}

    — where [n] is the net driven by [u], [ti] the input pin of [v]'s
    cell on [n], and [to = v].  The [CL(n) * Td(u)] term is the only one
    that changes during routing, so each edge stores its static part and
    its [Td] coefficient; {!set_net_cap} refreshes all edges "driven by"
    a net in O(fanout). *)

type node =
  | Out of Netlist.pin  (** a cell output terminal *)
  | Seq_in of Netlist.pin  (** a flip-flop data/clock input: paths end here *)
  | Port_in of int  (** input port: paths start here *)
  | Port_out of int  (** output port: paths end here *)

type t

val port_td : float
(** Wire-delay drive factor assumed for input ports: 0.5 ps/fF (the
    load factor is 3.0 ps/fF). *)

val port_load_ff : float
(** Input capacitance presented by an output port: 1.5 fF. *)

val build : Netlist.t -> t

val netlist : t -> Netlist.t

val dag : t -> Dag.t
(** The underlying DAG.  Treat as read-only; weights are managed by
    {!set_net_cap}. *)

val vertex : t -> node -> int
(** @raise Not_found when the node does not exist (e.g. an output pin
    that drives nothing still has a vertex, but a non-sequential input
    has none). *)

val node : t -> int -> node

val n_vertices : t -> int

val driver_vertex : t -> int -> int
(** The [G_D] vertex driving a net. *)

val edges_of_net : t -> int -> int list
(** Dag edge ids whose delay includes [CL(net)] — "the G_d(P) edges
    corresponding to n" of Sec. 3.2. *)

val set_net_cap : t -> net:int -> cap_ff:float -> unit
(** Update [CL(net)] and refresh the dependent edge weights — the
    paper's lumped capacitance model: every sink of the net sees the
    same wire delay [CL * Td]. *)

val set_net_sink_delays : t -> net:int -> delay_of:(Netlist.endpoint -> float) -> unit
(** RC-model extension (Sec. 2.1 allows it): give each sink endpoint
    its own wire delay in ps, e.g. an Elmore delay through the routed
    tree.  Edge weights become [static + delay_of sink]; [net_cap]
    subsequently reports [nan] for the net until {!set_net_cap}
    restores the lumped model. *)

val sink_of_edge : t -> int -> Netlist.endpoint
(** The sink endpoint a delay-graph edge feeds.
    @raise Not_found for unknown edge ids. *)

val snapshot_weights : t -> float array
(** Raw weights of every Dag edge — the model-agnostic way to save and
    {!restore_weights} the timing state around a what-if analysis
    (works even when some nets carry per-sink Elmore delays, whose
    lumped capacitance is unknown). *)

val restore_weights : t -> float array -> unit
(** @raise Invalid_argument on a length mismatch. *)

val net_cap : t -> int -> float

val driver_td : t -> int -> float
(** The [Td] factor of the net's driving terminal — the coefficient of
    [CL(net)] in every edge of {!edges_of_net}. *)

val launch_offset : t -> int -> float
(** Extra arrival offset at a vertex used as a path source: the
    clock-to-output intrinsic delay for flip-flop outputs (Fig. 1 shows
    [T0] inside the flip-flops), 0 elsewhere. *)

val natural_sources : t -> int list
(** All [Port_in] and flip-flop output vertices. *)

val natural_sinks : t -> int list
(** All [Port_out] and [Seq_in] vertices. *)

val pp_node : t -> Format.formatter -> node -> unit
