type placed = { inst : int; row : int; x : int }
type slot = { slot_id : int; slot_row : int; slot_x : int; width_flag : int }

type t = {
  netlist : Netlist.t;
  dims : Dims.t;
  n_rows : int;
  width : int;
  row_cells : placed array array;
  row_slots : slot array array;
  all_slots : slot array;
  place : (int, placed) Hashtbl.t;  (* instance id -> placement *)
  port_cols : int array;  (* port id -> principal column *)
  blockages : Interval.t list array;  (* per channel *)
}

exception Overlap of Bgr_error.t

let fail fmt =
  Format.kasprintf (fun s -> raise (Overlap (Bgr_error.make Bgr_error.Geometry "%s" s))) fmt

let cell_width netlist inst = (Netlist.instance netlist inst).Netlist.master.Cell.width
let inst_name netlist inst = (Netlist.instance netlist inst).Netlist.inst_name

let make ~netlist ~dims ~n_rows ~width ~cells ~slots ?(blockages = []) () =
  if n_rows <= 0 || width <= 0 then
    fail "floorplan needs positive rows and width, got %d rows x width %d" n_rows width;
  let row_cells = Array.make n_rows [] in
  let add_cell (p : placed) =
    if p.row < 0 || p.row >= n_rows then
      fail "instance %s placed in unknown row %d (floorplan has rows 0..%d)"
        (inst_name netlist p.inst) p.row (n_rows - 1);
    let w = cell_width netlist p.inst in
    if p.x < 0 || p.x + w > width then
      fail "row %d: instance %s at x=%d width %d exceeds chip width %d" p.row
        (inst_name netlist p.inst) p.x w width;
    row_cells.(p.row) <- p :: row_cells.(p.row)
  in
  List.iter add_cell cells;
  let by_x a b = Int.compare a.x b.x in
  let row_cells =
    Array.map (fun l -> Array.of_list (List.sort by_x l)) row_cells
  in
  (* Overlap check within each row. *)
  Array.iteri
    (fun r arr ->
      let last_end = ref (-1) in
      let check (p : placed) =
        if p.x < !last_end then
          fail "row %d: instance %s at x=%d overlaps its left neighbour" r
            (inst_name netlist p.inst) p.x;
        last_end := p.x + cell_width netlist p.inst
      in
      Array.iter check arr)
    row_cells;
  (* Slots: per row, sorted; must not collide with logic cells. *)
  let slot_lists = Array.make n_rows [] in
  let add_slot (row, x, width_flag) =
    if row < 0 || row >= n_rows then
      fail "feed slot in unknown row %d (floorplan has rows 0..%d)" row (n_rows - 1);
    if x < 0 || x >= width then
      fail "row %d: feed slot at x=%d outside the chip (width %d)" row x width;
    slot_lists.(row) <- (x, width_flag) :: slot_lists.(row)
  in
  List.iter add_slot slots;
  let next_id = ref 0 in
  let row_slots =
    Array.mapi
      (fun r l ->
        let sorted = List.sort (fun (x1, _) (x2, _) -> Int.compare x1 x2) l in
        let mk (x, width_flag) =
          let slot_id = !next_id in
          incr next_id;
          { slot_id; slot_row = r; slot_x = x; width_flag }
        in
        Array.of_list (List.map mk sorted))
      slot_lists
  in
  (* Slot/cell collision and duplicate-column checks. *)
  Array.iteri
    (fun r arr ->
      let prev = ref (-1) in
      let check s =
        if s.slot_x = !prev then fail "row %d: duplicate feed-slot column %d" r s.slot_x;
        prev := s.slot_x;
        let hits (p : placed) =
          p.x <= s.slot_x && s.slot_x < p.x + cell_width netlist p.inst
        in
        if Array.exists hits row_cells.(r) then
          fail "row %d: slot at x=%d collides with a logic cell" r s.slot_x
      in
      Array.iter check arr)
    row_slots;
  let all_slots = Array.concat (Array.to_list row_slots) in
  Array.sort (fun a b -> Int.compare a.slot_id b.slot_id) all_slots;
  let place = Hashtbl.create 256 in
  Array.iter (fun arr -> Array.iter (fun p -> Hashtbl.replace place p.inst p) arr) row_cells;
  (* Every non-feed instance must be placed. *)
  Array.iter
    (fun (i : Netlist.instance) ->
      if i.Netlist.master.Cell.kind <> Cell.Feed_through && not (Hashtbl.mem place i.Netlist.inst_id)
      then fail "instance %s not placed" i.Netlist.inst_name)
    (Netlist.instances netlist);
  (* Port principal columns: hint, else evenly spread along each side. *)
  let ports = Netlist.ports netlist in
  let port_cols = Array.make (Array.length ports) 0 in
  let spread side =
    let members =
      Array.to_list ports |> List.filter (fun (p : Netlist.port) -> p.Netlist.side = side)
    in
    let n = List.length members in
    List.iteri
      (fun i (p : Netlist.port) ->
        let default = (width * (i + 1)) / (n + 1) in
        let col = Option.value p.Netlist.column_hint ~default in
        port_cols.(p.Netlist.port_id) <- max 0 (min (width - 1) col))
      members
  in
  spread Netlist.North;
  spread Netlist.South;
  let blockage_lists = Array.make (n_rows + 1) [] in
  List.iter
    (fun (channel, x_lo, x_hi) ->
      if channel < 0 || channel > n_rows then
        fail "blockage in unknown channel %d (floorplan has channels 0..%d)" channel n_rows;
      if x_lo < 0 || x_hi >= width || x_hi < x_lo then
        fail "channel %d: blockage columns [%d,%d] outside the chip (width %d)" channel x_lo x_hi
          width;
      blockage_lists.(channel) <- Interval.make x_lo x_hi :: blockage_lists.(channel))
    blockages;
  { netlist;
    dims;
    n_rows;
    width;
    row_cells;
    row_slots;
    all_slots;
    place;
    port_cols;
    blockages = Array.map List.rev blockage_lists }

let netlist t = t.netlist
let dims t = t.dims
let n_rows t = t.n_rows
let n_channels t = t.n_rows + 1
let width t = t.width
let row_cells t r = t.row_cells.(r)
let row_slots t r = t.row_slots.(r)
let slots t = t.all_slots
let n_slots t = Array.length t.all_slots

let place_of_instance t inst =
  match Hashtbl.find_opt t.place inst with
  | Some p -> p
  | None -> raise Not_found

let terminal_column t (pin : Netlist.pin) =
  let p = place_of_instance t pin.Netlist.inst in
  let master = (Netlist.instance t.netlist pin.Netlist.inst).Netlist.master in
  let term = Cell.terminal master pin.Netlist.term in
  p.x + term.Cell.offset

let terminal_row t (pin : Netlist.pin) = (place_of_instance t pin.Netlist.inst).row

let terminal_channels t (pin : Netlist.pin) =
  let r = terminal_row t pin in
  let master = (Netlist.instance t.netlist pin.Netlist.inst).Netlist.master in
  let term = Cell.terminal master pin.Netlist.term in
  match term.Cell.access with
  | Cell.Top_only -> [ r + 1 ]
  | Cell.Bottom_only -> [ r ]
  | Cell.Both_sides -> [ r; r + 1 ]

let channel_blockages t c =
  if c < 0 || c >= n_channels t then invalid_arg "Floorplan.channel_blockages";
  t.blockages.(c)

let trunk_blocked t ~channel ~x1 ~x2 =
  let span = Interval.make x1 x2 in
  List.exists (Interval.overlaps span) (channel_blockages t channel)

let blockage_triples t =
  let acc = ref [] in
  Array.iteri
    (fun c l ->
      List.iter (fun i -> acc := (c, Interval.lo i, Interval.hi i - 1) :: !acc) l)
    t.blockages;
  List.rev !acc

let port_column t port_id = t.port_cols.(port_id)

let port_candidates t port_id =
  let c = t.port_cols.(port_id) in
  let spread = max 1 (t.width / 50) in
  [ c - spread; c; c + spread ]
  |> List.filter (fun x -> 0 <= x && x < t.width)
  |> List.sort_uniq Int.compare

let port_channel t port_id =
  match (Netlist.port t.netlist port_id).Netlist.side with
  | Netlist.South -> 0
  | Netlist.North -> t.n_rows

let endpoint_column t = function
  | Netlist.Pin pin -> terminal_column t pin
  | Netlist.Port port_id -> port_column t port_id

let endpoint_channels t = function
  | Netlist.Pin pin -> terminal_channels t pin
  | Netlist.Port port_id -> [ port_channel t port_id ]

let net_bbox t net_id =
  let net = Netlist.net t.netlist net_id in
  let points =
    List.map
      (fun ep ->
        let x = endpoint_column t ep in
        (* Use the endpoint's lowest accessible channel as its y; the
           bound is insensitive to the one-channel choice. *)
        let y = List.fold_left min max_int (endpoint_channels t ep) in
        (x, y))
      (net.Netlist.driver :: net.Netlist.sinks)
  in
  match Rect.of_points points with
  | Some r -> r
  | None -> assert false (* freeze guarantees >= 2 endpoints *)

let chip_height_um t ~channel_tracks =
  if Array.length channel_tracks <> n_channels t then
    invalid_arg "chip_height_um: one track count per channel expected";
  let rows_um = float_of_int t.n_rows *. t.dims.Dims.row_height_um in
  let tracks = Array.fold_left ( + ) 0 channel_tracks in
  rows_um +. (float_of_int tracks *. t.dims.Dims.track_um)

let channel_mid_y_um t ~channel_tracks c =
  if Array.length channel_tracks <> n_channels t then
    invalid_arg "channel_mid_y_um: one track count per channel expected";
  if c < 0 || c >= n_channels t then invalid_arg "channel_mid_y_um: unknown channel";
  let y = ref (float_of_int c *. t.dims.Dims.row_height_um) in
  for c' = 0 to c - 1 do
    y := !y +. (float_of_int channel_tracks.(c') *. t.dims.Dims.track_um)
  done;
  !y +. (float_of_int channel_tracks.(c) *. t.dims.Dims.track_um /. 2.0)

let chip_area_mm2 t ~channel_tracks =
  let h = chip_height_um t ~channel_tracks in
  let w = float_of_int t.width *. t.dims.Dims.pitch_um in
  Dims.mm2_of_um2 (h *. w)
