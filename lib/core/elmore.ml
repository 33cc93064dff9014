type result = {
  delay_ps : (Netlist.endpoint * float) list;
  total_cap_ff : float;
  worst_ps : float;
}

let endpoint_load netlist = function
  | Netlist.Pin p ->
    let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
    (Cell.terminal master p.Netlist.term).Cell.fanin_ff
  | Netlist.Port _ -> Delay_graph.port_load_ff

let driver_td netlist (rg : Routing_graph.t) =
  let net = Netlist.net netlist rg.Routing_graph.net_id in
  match net.Netlist.driver with
  | Netlist.Pin p ->
    let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
    (Cell.terminal master p.Netlist.term).Cell.td_ps_per_ff
  | Netlist.Port _ -> Delay_graph.port_td

let analyze ?(width_scale = 1.0) ~dims ~netlist ~rg ~tree () =
  if width_scale <= 0.0 then invalid_arg "Elmore.analyze: width_scale must be positive";
  let g = rg.Routing_graph.graph in
  let driver = rg.Routing_graph.driver in
  (* Tree adjacency restricted to the given edges. *)
  let adj = Hashtbl.create 32 in
  let link v entry = Hashtbl.replace adj v (entry :: Option.value (Hashtbl.find_opt adj v) ~default:[]) in
  List.iter
    (fun eid ->
      let e = Ugraph.edge g eid in
      link e.Ugraph.u (eid, e.Ugraph.v);
      link e.Ugraph.v (eid, e.Ugraph.u))
    tree;
  (* Edge electrical values from the effective length (edge weight, jog
     surcharges included): capacitance scales with pitch, resistance
     inversely. *)
  let eff_width = float_of_int rg.Routing_graph.pitch *. width_scale in
  let c_edge eid = (Ugraph.edge g eid).Ugraph.weight *. Dims.cap_per_um_at dims ~width:eff_width in
  let r_edge eid =
    (Ugraph.edge g eid).Ugraph.weight *. Dims.res_kohm_per_um_at dims ~width:eff_width
  in
  let load v =
    if v = driver then 0.0
    else
      match rg.Routing_graph.vkind.(v) with
      | Routing_graph.Terminal ep -> endpoint_load netlist ep
      | Routing_graph.Position _ -> 0.0
  in
  (* BFS order from the driver, recording entering edges. *)
  let n = Ugraph.n_vertices g in
  let parent_edge = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let order = ref [] in
  let queue = Queue.create () in
  visited.(driver) <- true;
  Queue.add driver queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    order := v :: !order;
    List.iter
      (fun (eid, w) ->
        if not visited.(w) then begin
          visited.(w) <- true;
          parent_edge.(w) <- eid;
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Option.value (Hashtbl.find_opt adj v) ~default:[])
  done;
  let reverse_order = !order (* deepest first *) in
  (* Subtree capacitances: wire-only (charged by the driver's Td, as in
     Eq. 1) and full (wire + sink loads, seen by wire resistance). *)
  let c_wire = Array.make n 0.0 and c_full = Array.make n 0.0 in
  List.iter
    (fun v ->
      c_wire.(v) <- 0.0;
      c_full.(v) <- load v;
      List.iter
        (fun (eid, w) ->
          if parent.(w) = v then begin
            c_wire.(v) <- c_wire.(v) +. c_edge eid +. c_wire.(w);
            c_full.(v) <- c_full.(v) +. c_edge eid +. c_full.(w)
          end)
        (Option.value (Hashtbl.find_opt adj v) ~default:[]))
    reverse_order;
  (* Downstream accumulation of Elmore delays. *)
  let delay = Array.make n 0.0 in
  let td = driver_td netlist rg in
  delay.(driver) <- td *. c_wire.(driver);
  List.iter
    (fun v ->
      if v <> driver && parent.(v) >= 0 then begin
        let eid = parent_edge.(v) in
        delay.(v) <- delay.(parent.(v)) +. (r_edge eid *. ((c_edge eid /. 2.0) +. c_full.(v)))
      end)
    (List.rev reverse_order);
  (* Collect sink terminals. *)
  let delays = ref [] and worst = ref 0.0 in
  List.iter
    (fun v ->
      if v <> driver then begin
        match rg.Routing_graph.vkind.(v) with
        | Routing_graph.Terminal ep ->
          if not visited.(v) then
            invalid_arg "Elmore.analyze: tree does not reach every sink";
          delays := (ep, delay.(v)) :: !delays;
          if delay.(v) > !worst then worst := delay.(v)
        | Routing_graph.Position _ -> ()
      end)
    rg.Routing_graph.terminals;
  { delay_ps = List.rev !delays;
    total_cap_ff = c_full.(driver);
    worst_ps = !worst }
