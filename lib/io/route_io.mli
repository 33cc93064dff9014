(** Export of routed results — the interchange format downstream tools
    (detailed routers, extractors) would consume.

    Format (`# bgr routes v1`):
    {v
    net n5 trunk 2 10 18      # channel, left column, right column
    net n5 branch 1 12        # feedthrough: row, column
    net n5 pin 2 14           # connection point: channel, column
    v}

    Net references are by name.  {!parse} returns the raw per-net
    descriptors; {!matches_router} checks an export against a router's
    live trees (the round-trip test in the suite). *)

type desc =
  | Trunk of { channel : int; x_lo : int; x_hi : int }
  | Branch of { row : int; x : int }
  | Pin of { channel : int; x : int }

val to_string : Router.t -> string
(** Dump every net's current tree. *)

val parse : netlist:Netlist.t -> string -> (int * desc list) list
(** Per-net descriptors, net ids resolved by name, in file order.
    @raise Lineio.Parse_error on malformed text or unknown nets. *)

val matches_router : Router.t -> (int * desc list) list -> bool
(** Whether the parsed routes describe exactly the router's trees. *)
