type t = {
  pitch_um : float;
  row_height_um : float;
  track_um : float;
  cap_per_um : float;
  cap_fringe_per_um : float;
  res_ohm_per_um : float;
}

let default =
  { pitch_um = 8.0;
    row_height_um = 120.0;
    track_um = 8.0;
    cap_per_um = 0.2;
    cap_fringe_per_um = 0.08;
    res_ohm_per_um = 0.02 }

let cap_per_um_at t ~width = ((t.cap_per_um -. t.cap_fringe_per_um) *. width) +. t.cap_fringe_per_um
let res_kohm_per_um_at t ~width = t.res_ohm_per_um /. width /. 1000.0

let h_um t n = float_of_int n *. t.pitch_um
let v_um t ~rows = float_of_int rows *. t.row_height_um
let wire_cap t ~um = um *. t.cap_per_um
let mm_of_um um = um /. 1000.0
let mm2_of_um2 um2 = um2 /. 1.0e6
