type node =
  | Out of Netlist.pin
  | Seq_in of Netlist.pin
  | Port_in of int
  | Port_out of int

type net_edge = { de_id : int; de_static : float; de_td : float; de_sink : Netlist.endpoint }

type t = {
  netlist : Netlist.t;
  dag : Dag.t;
  vertex_of : (node, int) Hashtbl.t;
  node_of : node array;
  net_edges : net_edge list array;  (* per net *)
  net_caps : float array;
  driver_vertices : int array;  (* per net *)
  launch : float array;  (* per vertex *)
}

let netlist t = t.netlist
let dag t = t.dag
let vertex t n = Hashtbl.find t.vertex_of n
let node t v = t.node_of.(v)
let n_vertices t = Array.length t.node_of
let driver_vertex t net_id = t.driver_vertices.(net_id)
let edges_of_net t net_id = List.map (fun e -> e.de_id) t.net_edges.(net_id)
let net_cap t net_id = t.net_caps.(net_id)

let driver_td t net_id =
  match t.net_edges.(net_id) with
  | e :: _ -> e.de_td
  | [] -> 0.0
let launch_offset t v = t.launch.(v)

let set_net_cap t ~net ~cap_ff =
  t.net_caps.(net) <- cap_ff;
  List.iter (fun e -> Dag.set_weight t.dag e.de_id (e.de_static +. (cap_ff *. e.de_td))) t.net_edges.(net)

let set_net_sink_delays t ~net ~delay_of =
  t.net_caps.(net) <- nan;
  List.iter
    (fun e -> Dag.set_weight t.dag e.de_id (e.de_static +. delay_of e.de_sink))
    t.net_edges.(net)

let sink_of_edge t edge_id =
  let found = ref None in
  Array.iter
    (fun edges ->
      List.iter (fun e -> if e.de_id = edge_id then found := Some e.de_sink) edges)
    t.net_edges;
  match !found with Some s -> s | None -> raise Not_found

let snapshot_weights t = Array.init (Dag.n_edges t.dag) (fun e -> Dag.weight t.dag e)

let restore_weights t weights =
  if Array.length weights <> Dag.n_edges t.dag then
    invalid_arg "Delay_graph.restore_weights: edge count mismatch";
  Array.iteri (fun e w -> Dag.set_weight t.dag e w) weights

let is_ff_output netlist (p : Netlist.pin) =
  let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
  master.Cell.kind = Cell.Flipflop

let natural_sources t =
  let acc = ref [] in
  Array.iteri
    (fun v n ->
      match n with
      | Port_in _ -> acc := v :: !acc
      | Out p when is_ff_output t.netlist p -> acc := v :: !acc
      | Out _ | Seq_in _ | Port_out _ -> ())
    t.node_of;
  List.rev !acc

let natural_sinks t =
  let acc = ref [] in
  Array.iteri
    (fun v n ->
      match n with
      | Port_out _ | Seq_in _ -> acc := v :: !acc
      | Out _ | Port_in _ -> ())
    t.node_of;
  List.rev !acc

let pp_node t ppf = function
  | Out p ->
    Format.fprintf ppf "%s.%s" (Netlist.instance t.netlist p.Netlist.inst).Netlist.inst_name
      p.Netlist.term
  | Seq_in p ->
    Format.fprintf ppf "%s.%s(seq)" (Netlist.instance t.netlist p.Netlist.inst).Netlist.inst_name
      p.Netlist.term
  | Port_in q -> Format.fprintf ppf "in:%s" (Netlist.port t.netlist q).Netlist.port_name
  | Port_out q -> Format.fprintf ppf "out:%s" (Netlist.port t.netlist q).Netlist.port_name

let vertex_of_exn table node =
  match Hashtbl.find_opt table node with
  | Some v -> v
  | None -> invalid_arg "Delay_graph: missing vertex"

let port_tf = 3.0
let port_td = 0.5
let port_load_ff = 1.5

let build netlist =
  let dag = Dag.create ~vertex_hint:256 () in
  let vertex_of = Hashtbl.create 256 in
  let nodes = ref [] in
  let intern node =
    match Hashtbl.find_opt vertex_of node with
    | Some v -> v
    | None ->
      let v = Dag.add_vertex dag in
      Hashtbl.add vertex_of node v;
      nodes := node :: !nodes;
      v
  in
  (* Vertices for every instance output and every sequential input. *)
  Array.iter
    (fun (i : Netlist.instance) ->
      let master = i.Netlist.master in
      let on_terminal (term : Cell.terminal) =
        let pin = { Netlist.inst = i.Netlist.inst_id; term = term.Cell.t_name } in
        match term.Cell.dir with
        | Cell.Output -> ignore (intern (Out pin))
        | Cell.Input ->
          if Cell.is_sequential_input master term.Cell.t_name then ignore (intern (Seq_in pin))
      in
      Array.iter on_terminal master.Cell.terminals)
    (Netlist.instances netlist);
  (* Vertices for ports, by their role on the attached net. *)
  Array.iter
    (fun (n : Netlist.net) ->
      (match n.Netlist.driver with
      | Netlist.Port q -> ignore (intern (Port_in q))
      | Netlist.Pin _ -> ());
      List.iter
        (function
          | Netlist.Port q -> ignore (intern (Port_out q))
          | Netlist.Pin _ -> ())
        n.Netlist.sinks)
    (Netlist.nets netlist);
  (* Stage-delay edges per net. *)
  let n_nets = Netlist.n_nets netlist in
  let net_edges = Array.make n_nets [] in
  let driver_vertices = Array.make n_nets (-1) in
  let fanin_sum (n : Netlist.net) =
    let term_cap = function
      | Netlist.Pin p ->
        let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
        (Cell.terminal master p.Netlist.term).Cell.fanin_ff
      | Netlist.Port _ -> port_load_ff
    in
    List.fold_left (fun acc ep -> acc +. term_cap ep) 0.0 n.Netlist.sinks
  in
  let build_net (n : Netlist.net) =
    let u, tf_u, td_u =
      match n.Netlist.driver with
      | Netlist.Pin p ->
        let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
        let term = Cell.terminal master p.Netlist.term in
        (vertex_of_exn vertex_of (Out p), term.Cell.tf_ps_per_ff, term.Cell.td_ps_per_ff)
      | Netlist.Port q -> (vertex_of_exn vertex_of (Port_in q), port_tf, port_td)
    in
    driver_vertices.(n.Netlist.net_id) <- u;
    let load_static = fanin_sum n *. tf_u in
    let add_edge dst extra ~sink =
      let de_static = load_static +. extra in
      let de_id = Dag.add_edge dag ~src:u ~dst ~weight:de_static in
      net_edges.(n.Netlist.net_id) <-
        { de_id; de_static; de_td = td_u; de_sink = sink } :: net_edges.(n.Netlist.net_id)
    in
    let on_sink sink =
      match sink with
      | Netlist.Port q -> add_edge (vertex_of_exn vertex_of (Port_out q)) 0.0 ~sink
      | Netlist.Pin p ->
        let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
        if Cell.is_sequential_input master p.Netlist.term then
          add_edge (vertex_of_exn vertex_of (Seq_in p)) 0.0 ~sink
        else begin
          let on_arc (a : Cell.arc) =
            if a.Cell.from_input = p.Netlist.term then
              add_edge
                (vertex_of_exn vertex_of (Out { p with Netlist.term = a.Cell.to_output }))
                a.Cell.intrinsic_ps ~sink
          in
          List.iter on_arc master.Cell.arcs
        end
    in
    List.iter on_sink n.Netlist.sinks
  in
  Array.iter build_net (Netlist.nets netlist);
  let node_of = Array.make (Dag.n_vertices dag) (Port_in (-1)) in
  List.iter (fun node -> node_of.(Hashtbl.find vertex_of node) <- node) !nodes;
  (* Launch offsets: clock-to-output intrinsic at flip-flop outputs. *)
  let launch = Array.make (Dag.n_vertices dag) 0.0 in
  Array.iteri
    (fun v n ->
      match n with
      | Out p when is_ff_output netlist p ->
        let master = (Netlist.instance netlist p.Netlist.inst).Netlist.master in
        let best =
          List.fold_left
            (fun acc (a : Cell.arc) ->
              if a.Cell.to_output = p.Netlist.term && Cell.is_sequential_input master a.Cell.from_input
              then max acc a.Cell.intrinsic_ps
              else acc)
            0.0 master.Cell.arcs
        in
        launch.(v) <- best
      | Out _ | Seq_in _ | Port_in _ | Port_out _ -> ())
    node_of;
  { netlist;
    dag;
    vertex_of;
    node_of;
    net_edges;
    net_caps = Array.make n_nets 0.0;
    driver_vertices;
    launch }
