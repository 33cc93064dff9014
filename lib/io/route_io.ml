type desc =
  | Trunk of { channel : int; x_lo : int; x_hi : int }
  | Branch of { row : int; x : int }
  | Pin of { channel : int; x : int }

let descs_of_net router net =
  let rg = Router.routing_graph router net in
  Router.tree_edges router net
  |> List.map (fun eid ->
         match Routing_graph.edge_kind rg eid with
         | Routing_graph.Trunk { channel; span } ->
           Trunk { channel; x_lo = Interval.lo span; x_hi = Interval.hi span - 1 }
         | Routing_graph.Branch { row; x } -> Branch { row; x }
         | Routing_graph.Correspondence p ->
           Pin { channel = p.Routing_graph.channel; x = p.Routing_graph.x })
  |> List.sort compare

let to_string router =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let buf = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# bgr routes v1";
  for net = 0 to Netlist.n_nets netlist - 1 do
    let name = (Netlist.net netlist net).Netlist.net_name in
    List.iter
      (function
        | Trunk { channel; x_lo; x_hi } -> line "net %s trunk %d %d %d" name channel x_lo x_hi
        | Branch { row; x } -> line "net %s branch %d %d" name row x
        | Pin { channel; x } -> line "net %s pin %d %d" name channel x)
      (descs_of_net router net)
  done;
  Buffer.contents buf

let parse ~netlist text =
  let by_name = Hashtbl.create 64 in
  Array.iter
    (fun (n : Netlist.net) -> Hashtbl.replace by_name n.Netlist.net_name n.Netlist.net_id)
    (Netlist.nets netlist);
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  let add ~line name d =
    match Hashtbl.find_opt by_name name with
    | None -> Lineio.fail ~line "unknown net %s" name
    | Some id ->
      if not (Hashtbl.mem acc id) then order := id :: !order;
      Hashtbl.replace acc id (d :: Option.value (Hashtbl.find_opt acc id) ~default:[])
  in
  let on_line (line, tokens) =
    match tokens with
    | [ "net"; name; "trunk"; c; lo; hi ] ->
      add ~line name
        (Trunk
           { channel = Lineio.int_field ~line ~what:"channel" c;
             x_lo = Lineio.int_field ~line ~what:"x_lo" lo;
             x_hi = Lineio.int_field ~line ~what:"x_hi" hi })
    | [ "net"; name; "branch"; r; x ] ->
      add ~line name
        (Branch
           { row = Lineio.int_field ~line ~what:"row" r;
             x = Lineio.int_field ~line ~what:"x" x })
    | [ "net"; name; "pin"; c; x ] ->
      add ~line name
        (Pin
           { channel = Lineio.int_field ~line ~what:"channel" c;
             x = Lineio.int_field ~line ~what:"x" x })
    | t :: _ -> Lineio.fail ~line "unknown directive %S" t
    | [] -> ()
  in
  List.iter on_line (Lineio.tokenize text);
  List.rev_map (fun id -> (id, List.sort compare (Hashtbl.find acc id))) !order

let matches_router router parsed =
  let fp = Router.floorplan router in
  let netlist = Floorplan.netlist fp in
  let n_nets = Netlist.n_nets netlist in
  List.length parsed = n_nets
  && List.for_all (fun (net, descs) -> descs = descs_of_net router net) parsed
