(** Axis-aligned bounding boxes on the (column, track-row) grid.

    Used for net bounding boxes and the half-perimeter wirelength lower
    bound of Table 3 (the paper assumes "the wire length for each net to
    be half the perimeter of the rectangle containing the net
    terminals"). *)

type t = { x_lo : int; x_hi : int; y_lo : int; y_hi : int }
(** Closed bounds: the box covers [x_lo..x_hi] x [y_lo..y_hi]. *)

val of_point : x:int -> y:int -> t
(** Degenerate box containing a single point. *)

val add_point : t -> x:int -> y:int -> t
(** Grow the box to contain the point. *)

val of_points : (int * int) list -> t option
(** Bounding box of a point list ([None] on the empty list). *)

val width : t -> int
(** [x_hi - x_lo]. *)

val height : t -> int
(** [y_hi - y_lo]. *)

val half_perimeter : t -> int
(** [width + height] — the HPWL lower bound for a net confined to the
    box. *)

val union : t -> t -> t

val mem : t -> x:int -> y:int -> bool

val equal : t -> t -> bool
