(** Single-source shortest paths over the live edges of a [Ugraph],
    and shortest-path-union ("tentative") trees.

    The router estimates every net's wire length with "the shortest
    paths from the driving terminal vertex to all other terminals ...
    The union of all paths is the tentative tree" (Sec. 3.2).  The
    optional [exclude_edge] implements the what-if evaluation of
    [LM(e,P)]: a tentative tree "assuming the deletion of e". *)

type result = {
  dist : float array;  (** [infinity] when unreachable *)
  parent_edge : int array;  (** entering edge id on a shortest path; -1 at source / unreachable *)
}

val shortest_paths :
  ?exclude_edge:int -> ?cost:(Ugraph.edge -> float) -> Ugraph.t -> source:int -> result
(** [cost] (default: the edge weight) lets callers price congestion
    into the search — used by the sequential baseline router. *)

val tentative_tree :
  ?exclude_edge:int ->
  ?cost:(Ugraph.edge -> float) ->
  Ugraph.t ->
  source:int ->
  targets:int list ->
  int list option
(** Union of the shortest-path edge sets from [source] to every target,
    deduplicated, in increasing id order.  [None] if any target is
    unreachable. *)

val edges_length : Ugraph.t -> int list -> float
(** Total weight of the given edge ids. *)
