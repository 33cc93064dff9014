(** Physical dimensioning of the routing grid.

    The global router works on an abstract grid: columns are wiring
    pitches, vertical distance is counted in cell-row heights and channel
    tracks.  [Dims] converts grid lengths to micrometres / millimetres
    and to wiring capacitance for the delay model (Eq. 1 uses [CL(n)],
    the capacitance of net [n]'s wiring). *)

type t = {
  pitch_um : float;  (** horizontal wiring pitch, micrometres *)
  row_height_um : float;  (** height of a cell row, micrometres *)
  track_um : float;  (** height of one channel track, micrometres *)
  cap_per_um : float;  (** total wiring capacitance per micrometre at 1-pitch width, fF *)
  cap_fringe_per_um : float;
      (** the width-independent (fringe/sidewall) part of [cap_per_um];
          widening a wire scales only the remaining area component, so
          the RC product genuinely falls with width — the physics
          behind Sec. 4.2's multi-pitch wires *)
  res_ohm_per_um : float;
      (** wiring resistance per micrometre at 1-pitch width, Ohm.
          Bipolar wires "are made wider than those in CMOS circuits to
          reduce current density, [so] the wire resistance is rather
          small" (Sec. 2.1) — the default keeps the RC product an order
          of magnitude below the capacitive term, which is what lets
          the paper adopt the capacitance-only model. *)
}

val default : t
(** Bipolar-era defaults: 8 um pitch, 120 um rows, 8 um tracks,
    0.2 fF/um (of which 0.08 fringe), 0.02 Ohm/um. *)

val cap_per_um_at : t -> width:float -> float
(** Capacitance per micrometre of a wire [width] pitches wide:
    area part scaled by the width plus the constant fringe. *)

val res_kohm_per_um_at : t -> width:float -> float
(** Resistance per micrometre (kOhm) at the given width. *)

val h_um : t -> int -> float
(** Physical length of a horizontal span of [n] pitches. *)

val v_um : t -> rows:int -> float
(** Physical length of a vertical run crossing [rows] cell rows. *)

val wire_cap : t -> um:float -> float
(** Capacitance (fF) of [um] micrometres of wire at 1-pitch width. *)

val mm_of_um : float -> float

val mm2_of_um2 : float -> float
