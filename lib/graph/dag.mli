(** Directed acyclic graphs with mutable edge weights and longest-path
    analysis — the substrate for the global delay graph [G_D] and the
    per-constraint graphs [G_d(P)] of Sec. 2.

    Edge weights change every time a net's estimated wiring capacitance
    changes, so weights are mutable while the topology (and its cached
    topological order) is append-only. *)

type t

exception Cycle of int
(** Raised by traversals when the graph has a directed cycle; carries a
    vertex on the cycle.  The delay graphs the router builds are acyclic
    by construction (flip-flops cut cycles), so this signals a modelling
    error in the caller. *)

val create : ?vertex_hint:int -> unit -> t

val add_vertex : t -> int

val n_vertices : t -> int

val n_edges : t -> int

val add_edge : t -> src:int -> dst:int -> weight:float -> int
(** Returns the new edge id. *)

val set_weight : t -> int -> float -> unit

val weight : t -> int -> float

val endpoints : t -> int -> int * int
(** [(src, dst)] of an edge id. *)

val iter_in : t -> int -> (edge_id:int -> src:int -> weight:float -> unit) -> unit

val iter_edges : t -> (edge_id:int -> src:int -> dst:int -> weight:float -> unit) -> unit

val topo_order : t -> int array
(** Topological order of all vertices (cached until the next
    [add_edge]/[add_vertex]).  @raise Cycle *)

val longest_from : t -> sources:(int * float) list -> float array
(** Per-vertex longest path length starting at any source, where each
    source carries an initial arrival offset ([neg_infinity] when
    unreachable from every source). *)

val longest_to : t -> sinks:(int * float) list -> float array
(** Per-vertex longest path length ending at any sink, each sink
    carrying a final offset ([neg_infinity] when no sink is
    reachable). *)

val reachable_from : t -> int list -> bool array

val coreachable_to : t -> int list -> bool array

val longest_path :
  t -> sources:(int * float) list -> sinks:int list -> (float * int list) option
(** The maximum source-to-sink path (including source offsets): its
    length and its vertex sequence.  [None] when no sink is reachable
    from any source. *)
