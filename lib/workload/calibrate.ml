let against_layout ?channel_tracks ~netlist ~constraints ~fp ~headroom () =
  let dg = Delay_graph.build netlist in
  let sta = Sta.create dg constraints in
  let bounds = Lower_bound.per_constraint ?channel_tracks sta fp in
  List.mapi
    (fun i (pc : Path_constraint.t) ->
      if bounds.(i) = neg_infinity then pc
      else
        Path_constraint.make ~name:pc.Path_constraint.cname ~sources:pc.Path_constraint.sources
          ~sinks:pc.Path_constraint.sinks
          ~limit_ps:(bounds.(i) *. (1.0 +. headroom)))
    constraints

(* The reference route is bit-identical at every domain count, so it
   runs on one: calibrating must not build a scoring pool of its own. *)
let against_reference_route ~input ~headroom =
  let unconstrained =
    Flow.run ~options:{ Router.default_options with Router.domains = 1 } ~timing_driven:false
      input
  in
  let m = unconstrained.Flow.o_measurement in
  against_layout ~channel_tracks:m.Flow.m_tracks ~netlist:input.Flow.netlist
    ~constraints:input.Flow.constraints ~fp:unconstrained.Flow.o_floorplan ~headroom ()
