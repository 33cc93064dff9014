(** Text serialization of critical path constraint sets (Sec. 2.2).

    Format (`# bgr constraints v1`):
    {v
    constraint P0 limit 2350.0
    source ff0.Q
    source port:IN0
    sink ff3.D
    sink port:OUT2
    v}

    [source]/[sink] lines attach to the most recent [constraint].
    Terminal references are resolved against the netlist: [inst.term]
    must name an output (source) or a sequential input (sink);
    [port:NAME] resolves to the port's role on its net. *)

val to_string : Netlist.t -> Path_constraint.t list -> string

val of_string : netlist:Netlist.t -> string -> Path_constraint.t list
(** @raise Lineio.Parse_error on malformed text or unresolvable
    terminals. *)
