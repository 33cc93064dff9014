(** Differential-drive pair recognition (Sec. 4.1).

    "The one-to-one correspondence of edges in each routing graph is
    recognized by searching both graphs from driving terminal vertices.
    The correspondence is established if, and only if, routing graphs
    G_r(n1) and G_r(n2) are homogeneous and the relative positions of
    all adjacent vertices in G_r(n1) are the same as the corresponding
    ones in G_r(n2)."

    The two nets of a pair run at adjacent feedthrough columns and at
    nearby pin columns of the same cells, so corresponding vertices sit
    at identical channels and columns differing by at most a small
    offset (4).  Recognition performs a paired BFS
    from the driver terminals, matching incident edges by sorted
    (kind, channel, column) signatures. *)

val recognize : Routing_graph.t -> Routing_graph.t -> int array option
(** [recognize a b] is the live-edge map from [a]'s edge ids to [b]'s
    (entries for dead ids are [-1]), or [None] when the graphs are not
    homologous — the pair then falls back to independent routing. *)

val mirror_problems : Routing_graph.t -> Routing_graph.t -> map:int array -> string list
(** Audit an established recognition: [map] must send every live edge
    of the first graph to a distinct live edge of the second of
    homologous kind (same tag and channel/row), covering all of it.
    Returns the violations as human-readable strings; empty means the
    mirroring invariant holds ({!Verify.audit} uses this on resumed
    state). *)
