(* QCheck property tests for the edge-deletion core on random
   Circuit_gen instances:

   - the router never deletes a bridge.  Witness: deletion is
     permanent, and after the initial prune every leaf of a candidate
     graph is a terminal, so any bridge separates two terminals —
     deleting one would leave the terminals disconnected forever.
     Terminal connectivity at the end therefore proves no bridge was
     ever deleted.
   - every net ends with its candidate graph G_r(n) reduced to a
     spanning tree of the net's terminals (connected + acyclic);
   - the incrementally maintained density charts d_M/d_m equal a
     from-scratch recount over the live trunks. *)

let params_of seed ~n_comb ~n_ff ~n_levels ~n_diff_pairs =
  { Circuit_gen.default_params with
    Circuit_gen.seed;
    n_comb;
    n_ff;
    n_inputs = 4;
    n_outputs = 4;
    n_levels;
    n_diff_pairs;
    n_constraints = 3 }

let gen_params =
  QCheck.Gen.(
    let* seed = int_range 1 100000 in
    let* n_comb = int_range 15 50 in
    let* n_ff = int_range 3 8 in
    let* n_levels = int_range 2 4 in
    let* n_diff_pairs = int_range 0 2 in
    return (params_of (Int64.of_int seed) ~n_comb ~n_ff ~n_levels ~n_diff_pairs))

let arb_params =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "seed=%Ld comb=%d ff=%d levels=%d diff_pairs=%d" p.Circuit_gen.seed
        p.Circuit_gen.n_comb p.Circuit_gen.n_ff p.Circuit_gen.n_levels p.Circuit_gen.n_diff_pairs)
    gen_params

let flow_input p =
  let netlist, constraints = Circuit_gen.generate p in
  let placed = Placement.place ~netlist ~n_rows:3 Placement.P1 in
  Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed

(* A bare router over the input, bypassing Flow so the properties can
   inspect the state right after [initial_route]. *)
let build_router ?(timing = true) input =
  let fp0 = Flow.floorplan_of_input input in
  let dg = Delay_graph.build input.Flow.netlist in
  let order =
    if timing then Sta.static_net_order dg input.Flow.constraints
    else List.init (Netlist.n_nets input.Flow.netlist) Fun.id
  in
  let fp, assignment, _ = Feed_insert.assign_with_insertion fp0 ~order in
  let sta = if timing then Some (Sta.create dg input.Flow.constraints) else None in
  (Router.create fp assignment sta, fp)

(* The net's final wiring is a spanning tree of its terminals: adding
   its edges to a DSU never closes a cycle, and afterwards all
   terminals share one component. *)
let spanning_tree_of_terminals (rg : Routing_graph.t) tree =
  let g = rg.Routing_graph.graph in
  let d = Dsu.create (Ugraph.n_vertices g) in
  let acyclic =
    List.for_all
      (fun eid ->
        let e = Ugraph.edge g eid in
        Dsu.union d e.Ugraph.u e.Ugraph.v)
      tree
  in
  acyclic
  &&
  match rg.Routing_graph.terminals with
  | [] | [ _ ] -> true
  | t0 :: rest -> List.for_all (fun t -> Dsu.same d t0 t) rest

let audit_router router fp netlist =
  let ok = ref true in
  for net = 0 to Netlist.n_nets netlist - 1 do
    let rg = Router.routing_graph router net in
    (* no bridge was ever deleted (see the header comment) *)
    if not (Ugraph.connected_within rg.Routing_graph.graph rg.Routing_graph.terminals) then
      ok := false;
    (* fully reduced: nothing deletable remains *)
    if Bridges.non_bridge_ids rg.Routing_graph.graph <> [] then ok := false;
    if not (spanning_tree_of_terminals rg (Router.tree_edges router net)) then ok := false
  done;
  !ok
  && Util.densities_equal (Router.density router)
       (Util.recount_density router fp)
       ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp)

let prop_initial_route =
  QCheck.Test.make
    ~name:"initial route: spanning trees, no bridge deleted, densities recount" ~count:8
    arb_params
    (fun p ->
      let input = flow_input p in
      let router, fp = build_router input in
      Router.initial_route router;
      Router.is_routed router && audit_router router fp input.Flow.netlist)

let prop_initial_route_area_only =
  QCheck.Test.make ~name:"initial route (area-only) keeps the same invariants" ~count:5
    arb_params
    (fun p ->
      let input = flow_input p in
      let router, fp = build_router ~timing:false input in
      Router.initial_route router;
      Router.is_routed router && audit_router router fp input.Flow.netlist)

let prop_full_flow =
  QCheck.Test.make ~name:"full flow keeps the invariants through the rip-up phases"
    ~count:5 arb_params
    (fun p ->
      let input = flow_input p in
      let outcome = Flow.run input in
      audit_router outcome.Flow.o_router outcome.Flow.o_floorplan input.Flow.netlist)

let suite =
  [ QCheck_alcotest.to_alcotest prop_initial_route;
    QCheck_alcotest.to_alcotest prop_initial_route_area_only;
    QCheck_alcotest.to_alcotest prop_full_flow ]

let () = Alcotest.run "properties" [ ("properties", suite) ]
