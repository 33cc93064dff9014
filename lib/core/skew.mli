(** Clock-skew measurement over routed trees.

    Sec. 4.2 motivates multi-pitch wires: "Multi-pitch wires are
    required to reduce wire resistance and skews for very large fan-out
    nets like a clock."  Skew here is the spread (max - min) of the
    per-sink Elmore delays through the routed tree — wider wires cut
    the resistive term, pulling the far sinks toward the near ones. *)

val router_net_skew_ps : Router.t -> int -> float
(** Skew of a net's current tree inside a router: [max - min] Elmore
    sink delay, 0 for single-sink nets. *)

val widest_net : Netlist.t -> int option
(** The net with the largest pitch (ties broken by fanout) — the clock
    in the generated workloads. *)
