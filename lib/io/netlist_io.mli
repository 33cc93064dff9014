(** Text serialization of netlists.

    Format (`# bgr netlist v1`):
    {v
    library ecl_default
    port CLK south
    port IN0 south hint 12
    inst ff0 DFF
    net n1 drive ff0.Q sink g1.A sink port:OUT0
    net clk pitch 2 drive cb.Z sink ff0.CK
    diffpair z zn
    v}

    Endpoints are [inst.term] or [port:NAME]; nets list the driver
    first.  Writing then reading reproduces the netlist exactly (same
    ids, same order — asserted by the round-trip tests). *)

val endpoint_name : Netlist.t -> Netlist.endpoint -> string
(** Human-readable endpoint: [inst.term] or [port:NAME]. *)

val to_string : Netlist.t -> string

val of_string : libraries:Cell_lib.t list -> string -> Netlist.t
(** @raise Lineio.Parse_error on malformed text (including an unknown
    library name), [Netlist.Invalid] on structurally bad designs. *)
