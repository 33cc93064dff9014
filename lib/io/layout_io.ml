let to_string fp =
  let netlist = Floorplan.netlist fp in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# bgr placement v1";
  line "rows %d" (Floorplan.n_rows fp);
  line "width %d" (Floorplan.width fp);
  List.iter
    (fun (c, lo, hi) -> line "block %d %d %d" c lo hi)
    (Floorplan.blockage_triples fp);
  for r = 0 to Floorplan.n_rows fp - 1 do
    Array.iter
      (fun (p : Floorplan.placed) ->
        line "cell %s %d %d" (Netlist.instance netlist p.Floorplan.inst).Netlist.inst_name r
          p.Floorplan.x)
      (Floorplan.row_cells fp r);
    Array.iter
      (fun (s : Floorplan.slot) -> line "feed %d %d %d" r s.Floorplan.slot_x s.Floorplan.width_flag)
      (Floorplan.row_slots fp r)
  done;
  Buffer.contents buf

let of_string ~netlist ~dims text =
  let insts = Hashtbl.create 256 in
  Array.iter
    (fun (i : Netlist.instance) -> Hashtbl.replace insts i.Netlist.inst_name i.Netlist.inst_id)
    (Netlist.instances netlist);
  let rows = ref None and width = ref None in
  let cells = ref [] and slots = ref [] and blockages = ref [] in
  let on_line (line, tokens) =
    match tokens with
    | [ "rows"; n ] -> rows := Some (Lineio.int_field ~line ~what:"rows" n)
    | [ "width"; n ] -> width := Some (Lineio.int_field ~line ~what:"width" n)
    | [ "cell"; name; r; x ] ->
      (match Hashtbl.find_opt insts name with
      | None -> Lineio.fail ~line "unknown instance %s" name
      | Some inst ->
        cells :=
          { Floorplan.inst;
            row = Lineio.int_field ~line ~what:"row" r;
            x = Lineio.int_field ~line ~what:"x" x }
          :: !cells)
    | [ "block"; c; lo; hi ] ->
      blockages :=
        ( Lineio.int_field ~line ~what:"channel" c,
          Lineio.int_field ~line ~what:"x_lo" lo,
          Lineio.int_field ~line ~what:"x_hi" hi )
        :: !blockages
    | [ "feed"; r; x; flag ] ->
      slots :=
        ( Lineio.int_field ~line ~what:"row" r,
          Lineio.int_field ~line ~what:"x" x,
          Lineio.int_field ~line ~what:"flag" flag )
        :: !slots
    | t :: _ -> Lineio.fail ~line "unknown directive %S" t
    | [] -> ()
  in
  List.iter on_line (Lineio.tokenize text);
  match (!rows, !width) with
  | Some n_rows, Some width ->
    Floorplan.make ~netlist ~dims ~n_rows ~width ~cells:(List.rev !cells) ~slots:(List.rev !slots)
      ~blockages:(List.rev !blockages) ()
  | None, _ -> Lineio.fail ~line:1 "missing rows line"
  | _, None -> Lineio.fail ~line:1 "missing width line"
