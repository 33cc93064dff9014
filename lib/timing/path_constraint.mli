(** Critical path constraints (Sec. 2.2).

    A constraint [P] is "a trio (S_P, T_P, tau_P), where S_P and T_P are
    signal source and sink terminals, and tau_P is the delay limit".
    Sources and sinks are named as delay-graph nodes; the constraint set
    is what the VLSI designer requires of the chip. *)

type t = {
  cname : string;
  sources : Delay_graph.node list;
  sinks : Delay_graph.node list;
  limit_ps : float;
}

exception Bad_constraint of string

val make :
  name:string ->
  sources:Delay_graph.node list ->
  sinks:Delay_graph.node list ->
  limit_ps:float ->
  t
(** @raise Bad_constraint on empty endpoint sets or a non-positive
    limit. *)
