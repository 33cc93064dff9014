(** Text serialization of placements (floorplans).

    Format (`# bgr placement v1`):
    {v
    rows 8
    width 120
    cell i0 0 12          # instance, row, origin column
    feed 0 15 0           # row, column, width flag (0 = unflagged)
    v}

    Instances are named; reading resolves them against the given
    netlist and rebuilds a validated {!Floorplan.t}. *)

val to_string : Floorplan.t -> string

val of_string : netlist:Netlist.t -> dims:Dims.t -> string -> Floorplan.t
(** @raise Lineio.Parse_error on malformed text,
    [Floorplan.Overlap] on illegal geometry. *)
