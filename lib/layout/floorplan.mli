(** Row-based floorplans for bipolar standard-cell chips.

    Geometry convention (grid units):
    - columns [0 .. width-1] are horizontal wiring pitches;
    - cell rows [0 .. n_rows-1] stack bottom-up;
    - channels [0 .. n_rows]: channel [c] runs {e below} row [c]
      (channel [n_rows] is above the top row).  A terminal of a row-[r]
      cell with [Both_sides] access can enter channel [r] or [r+1] —
      the two candidate "terminal positions" of Fig. 3.
    - [South] ports live in channel [0], [North] ports in channel
      [n_rows].

    Feedthrough slots are the columns contributed by [Feed_through]
    cells; a slot connects channel [r] to channel [r+1] at its column
    (ordinary bipolar cells cannot be crossed, Sec. 4.3).  Slots carry a
    width flag: [0] = free for any net, [w>0] = reserved for w-pitch
    nets (set by feed-cell insertion). *)

type placed = { inst : int; row : int; x : int }
(** A netlist instance at its row and origin column. *)

type slot = {
  slot_id : int;
  slot_row : int;
  slot_x : int;
  width_flag : int;  (** 0 = unflagged *)
}

type t

exception Overlap of Bgr_error.t
(** Raised by {!make} when two cells in a row overlap, a cell exceeds
    the chip width, or a slot collides with a logic cell.  The carried
    {!Bgr_error.t} has code [Geometry] and a message naming the
    offending instance, row or channel. *)

val make :
  netlist:Netlist.t ->
  dims:Dims.t ->
  n_rows:int ->
  width:int ->
  cells:placed list ->
  slots:(int * int * int) list ->
  ?blockages:(int * int * int) list ->
  unit ->
  t
(** [make ~netlist ~dims ~n_rows ~width ~cells ~slots ()] builds and
    validates a floorplan.  [slots] are [(row, x, width_flag)] triples;
    slot ids are assigned in (row, x) order.  Every non-feed instance of
    the netlist must be placed exactly once.  Port columns are taken
    from their [column_hint] or distributed evenly along their side.
    [blockages] are [(channel, x_lo, x_hi)] closed column ranges a
    channel cannot route through (pre-routed straps, macros) — part of
    the paper's problem formulation ("blockages on the routing
    layers"); the routing graph refuses trunks across them, forcing
    detours through other channels. *)

val netlist : t -> Netlist.t
val dims : t -> Dims.t
val n_rows : t -> int
val n_channels : t -> int
(** [n_rows + 1]. *)

val width : t -> int

val row_cells : t -> int -> placed array
(** Cells of a row, sorted by origin column. *)

val row_slots : t -> int -> slot array
(** Feedthrough slots of a row, sorted by column. *)

val slots : t -> slot array
(** All slots, indexed by [slot_id]. *)

val n_slots : t -> int

val place_of_instance : t -> int -> placed
(** @raise Not_found for unplaced (feed) instances. *)

val terminal_column : t -> Netlist.pin -> int
(** Absolute column of an instance terminal. *)

val terminal_row : t -> Netlist.pin -> int

val terminal_channels : t -> Netlist.pin -> int list
(** Channels from which the terminal is reachable, per its access
    attribute. *)

val port_column : t -> int -> int
(** Principal column of a port. *)

val port_candidates : t -> int -> int list
(** Candidate columns for the external terminal (principal column plus
    nearby alternatives inside the chip) — the multiple "external
    terminal positions" of Fig. 3. *)

val port_channel : t -> int -> int
(** Channel 0 for [South] ports, [n_rows] for [North]. *)

val channel_blockages : t -> int -> Interval.t list
(** Blocked column ranges of a channel (half-open intervals). *)

val trunk_blocked : t -> channel:int -> x1:int -> x2:int -> bool
(** Whether a horizontal segment between the two columns (inclusive)
    would cross a blockage. *)

val blockage_triples : t -> (int * int * int) list
(** All blockages as [(channel, x_lo, x_hi)] closed ranges, as given to
    {!make} — for serialization and floorplan rebuilds.  Blockages are
    chip-anchored: feed-cell insertion keeps them at their absolute
    columns. *)

val endpoint_column : t -> Netlist.endpoint -> int
val endpoint_channels : t -> Netlist.endpoint -> int list

val net_bbox : t -> int -> Rect.t
(** Bounding box of a net's endpoint positions in (column, channel)
    space — basis of the Table 3 half-perimeter lower bound. *)

val chip_height_um : t -> channel_tracks:int array -> float
(** Physical chip height given the routed track count per channel. *)

val channel_mid_y_um : t -> channel_tracks:int array -> int -> float
(** Physical y of a channel's vertical midpoint, rows and routed
    channel heights below it included.  With all-zero [channel_tracks]
    this degenerates to pure row stacking. *)

val chip_area_mm2 : t -> channel_tracks:int array -> float
