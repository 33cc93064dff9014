(** Text serialization of cell libraries, so a design bundle can carry
    its own masters instead of referencing a built-in library by name.

    Format (`# bgr library v1`):
    {v
    name ecl_default
    cell INV1 comb width 2
    in A fanin 1 offset 0 access both
    out Z tf 6 td 0.9 offset 1
    arc A Z 55
    cell DFF ff width 6 seq D CK
    ...
    cell FEED feed width 1
    v}

    [in]/[out]/[arc] lines attach to the most recent [cell]. *)

val to_string : Cell_lib.t -> string

val of_string : string -> Cell_lib.t
(** @raise Lineio.Parse_error on malformed text, [Cell.Malformed] on
    invalid masters. *)
