type params = {
  seed : int64;
  n_comb : int;
  n_ff : int;
  n_inputs : int;
  n_outputs : int;
  n_levels : int;
  n_diff_pairs : int;
  clock_pitch : int;
  max_fanout : int;
  n_constraints : int;
  wire_budget : float;
  n_clusters : int;
  locality : float;
}

let default_params =
  { seed = 1L;
    n_comb = 160;
    n_ff = 24;
    n_inputs = 12;
    n_outputs = 12;
    n_levels = 5;
    n_diff_pairs = 3;
    clock_pitch = 2;
    max_fanout = 6;
    n_constraints = 6;
    wire_budget = 0.35;
    n_clusters = 8;
    locality = 0.85 }

type source = {
  s_ep : Netlist.endpoint;
  s_level : int;
  s_cluster : int;
  mutable s_uses : int;
  s_index : int;  (* creation order, for deterministic net emission *)
}

(* Power-of-two-choices pick among sources below a level bound: probe a
   few random candidates and keep the least-used, spreading fanout.
   With probability [locality] only same-cluster sources are eligible —
   the Rent-style modularity that makes circuits placeable. *)
let pick_source rng pool ~below_level ~cluster ~locality =
  let local = Prng.bool rng locality in
  let eligible =
    let in_level s = s.s_level < below_level in
    let primary =
      List.filter (fun s -> in_level s && (not local || s.s_cluster = cluster)) pool
    in
    if primary <> [] then primary else List.filter in_level pool
  in
  match eligible with
  | [] -> invalid_arg "Circuit_gen: no eligible source (empty level 0?)"
  | _ ->
    let arr = Array.of_list eligible in
    let best = ref (Prng.pick_arr rng arr) in
    for _ = 1 to 5 do
      let c = Prng.pick_arr rng arr in
      if c.s_uses < !best.s_uses then best := c
    done;
    !best

let comb_masters = [| "INV1"; "BUF2"; "OR2"; "OR3"; "OR4"; "OR5"; "SEL2"; "XOR2" |]

let generate p =
  if p.n_ff + p.n_inputs = 0 then invalid_arg "Circuit_gen: need flip-flops or inputs";
  let rng = Prng.create ~seed:p.seed in
  let library = Cell_lib.ecl_default in
  let b = Netlist.builder ~library in
  (* Ports. *)
  let clk_port = Netlist.add_port b ~name:"CLK" ~side:Netlist.South () in
  let side i = if i mod 2 = 0 then Netlist.South else Netlist.North in
  let in_ports = List.init p.n_inputs (fun i -> Netlist.add_port b ~name:(Printf.sprintf "IN%d" i) ~side:(side i) ()) in
  let out_ports = List.init p.n_outputs (fun i -> Netlist.add_port b ~name:(Printf.sprintf "OUT%d" i) ~side:(side (i + 1)) ()) in
  (* Instances. *)
  let clkbuf = Netlist.add_instance b ~name:"clkbuf" ~cell:"CLKBUF" in
  let ffs = List.init p.n_ff (fun i -> Netlist.add_instance b ~name:(Printf.sprintf "ff%d" i) ~cell:"DFF") in
  let comb =
    List.init p.n_comb (fun i ->
        let master = comb_masters.(Prng.int rng (Array.length comb_masters)) in
        (Netlist.add_instance b ~name:(Printf.sprintf "g%d" i) ~cell:master, master, 1 + (i mod p.n_levels)))
  in
  (* Source pool and sink accumulation. *)
  let pool = ref [] in
  let n_sources = ref 0 in
  let sinks = Hashtbl.create 256 in
  let n_clusters = max 1 p.n_clusters in
  let add_source ep level cluster =
    incr n_sources;
    pool :=
      { s_ep = ep; s_level = level; s_cluster = cluster; s_uses = 0; s_index = !n_sources }
      :: !pool
  in
  let connect source sink_ep =
    source.s_uses <- source.s_uses + 1;
    let prev = Option.value (Hashtbl.find_opt sinks source.s_index) ~default:[] in
    Hashtbl.replace sinks source.s_index (sink_ep :: prev)
  in
  (* Cluster assignment: contiguous id blocks so clusters are coherent. *)
  let cluster_of_index i total = if total <= 0 then 0 else i * n_clusters / total in
  let ff_cluster = Hashtbl.create 32 and comb_cluster = Hashtbl.create 256 in
  List.iteri (fun i ff -> Hashtbl.replace ff_cluster ff (cluster_of_index i p.n_ff)) ffs;
  List.iteri
    (fun i (inst, _, _) -> Hashtbl.replace comb_cluster inst (cluster_of_index i p.n_comb))
    comb;
  (* Level 0: flip-flop outputs and input ports. *)
  List.iter
    (fun ff ->
      add_source (Netlist.Pin { Netlist.inst = ff; term = "Q" }) 0 (Hashtbl.find ff_cluster ff))
    ffs;
  List.iteri
    (fun i q -> add_source (Netlist.Port q) 0 (cluster_of_index i p.n_inputs))
    in_ports;
  (* Wire combinational levels in order. *)
  let wire_cell (inst, master, level) =
    let cell = Cell_lib.find library master in
    let cluster = Hashtbl.find comb_cluster inst in
    let on_input (term : Cell.terminal) =
      if term.Cell.dir = Cell.Input then begin
        let s = pick_source rng !pool ~below_level:level ~cluster ~locality:p.locality in
        connect s (Netlist.Pin { Netlist.inst; term = term.Cell.t_name })
      end
    in
    Array.iter on_input cell.Cell.terminals;
    let on_output (term : Cell.terminal) =
      if term.Cell.dir = Cell.Output then
        add_source (Netlist.Pin { Netlist.inst; term = term.Cell.t_name }) level cluster
    in
    Array.iter on_output cell.Cell.terminals
  in
  let by_level = List.stable_sort (fun (_, _, l1) (_, _, l2) -> Int.compare l1 l2) comb in
  List.iter wire_cell by_level;
  (* Differential pairs: a DDRV feeding 1-2 OR2 receivers (Sec. 4.1). *)
  let diff_nets = ref [] in
  for d = 0 to p.n_diff_pairs - 1 do
    let drv = Netlist.add_instance b ~name:(Printf.sprintf "ddrv%d" d) ~cell:"DDRV" in
    let cluster = cluster_of_index d (max 1 p.n_diff_pairs) in
    let s = pick_source rng !pool ~below_level:(p.n_levels + 1) ~cluster ~locality:p.locality in
    connect s (Netlist.Pin { Netlist.inst = drv; term = "A" });
    let n_recv = 1 + Prng.int rng 2 in
    let receivers =
      List.init n_recv (fun r ->
          Netlist.add_instance b ~name:(Printf.sprintf "rcv%d_%d" d r) ~cell:"OR2")
    in
    let z_sinks = List.map (fun r -> Netlist.Pin { Netlist.inst = r; term = "A" }) receivers in
    let zn_sinks = List.map (fun r -> Netlist.Pin { Netlist.inst = r; term = "B" }) receivers in
    diff_nets := (drv, z_sinks, zn_sinks) :: !diff_nets;
    List.iter
      (fun r -> add_source (Netlist.Pin { Netlist.inst = r; term = "Z" }) (p.n_levels + 1) cluster)
      receivers
  done;
  (* Flip-flop data inputs and output ports consume deep sources. *)
  List.iter
    (fun ff ->
      let cluster = Hashtbl.find ff_cluster ff in
      let s = pick_source rng !pool ~below_level:(p.n_levels + 2) ~cluster ~locality:p.locality in
      connect s (Netlist.Pin { Netlist.inst = ff; term = "D" }))
    ffs;
  List.iteri
    (fun i q ->
      let cluster = cluster_of_index i p.n_outputs in
      let s = pick_source rng !pool ~below_level:(p.n_levels + 2) ~cluster ~locality:p.locality in
      connect s (Netlist.Port q))
    out_ports;
  (* An input port no gate picked drives a buffer of its own, so the
     netlist freezes; designs that use every port are left untouched. *)
  List.iter
    (fun s ->
      match s.s_ep with
      | Netlist.Port q when s.s_uses = 0 ->
        let buf = Netlist.add_instance b ~name:(Printf.sprintf "inbuf%d" q) ~cell:"BUF2" in
        connect s (Netlist.Pin { Netlist.inst = buf; term = "A" })
      | Netlist.Port _ | Netlist.Pin _ -> ())
    !pool;
  (* Emit ordinary nets in source-creation order. *)
  let ordered_sources = List.rev !pool in
  let net_counter = ref 0 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt sinks s.s_index with
      | None -> ()
      | Some sink_list ->
        incr net_counter;
        ignore
          (Netlist.add_net b
             ~name:(Printf.sprintf "n%d" !net_counter)
             ~driver:s.s_ep ~sinks:(List.rev sink_list) ()))
    ordered_sources;
  (* Differential nets (created after the pool nets; ids contiguous). *)
  List.iter
    (fun (drv, z_sinks, zn_sinks) ->
      let z =
        Netlist.add_net b
          ~name:(Printf.sprintf "diff%d_p" drv)
          ~driver:(Netlist.Pin { Netlist.inst = drv; term = "Z" })
          ~sinks:z_sinks ()
      in
      let zn =
        Netlist.add_net b
          ~name:(Printf.sprintf "diff%d_n" drv)
          ~driver:(Netlist.Pin { Netlist.inst = drv; term = "ZN" })
          ~sinks:zn_sinks ()
      in
      Netlist.pair_differential b z zn)
    (List.rev !diff_nets);
  (* Clock tree: CLK port -> clock buffer -> every flip-flop CK, on a
     multi-pitch net (Sec. 4.2). *)
  ignore
    (Netlist.add_net b ~name:"clk_root" ~driver:(Netlist.Port clk_port)
       ~sinks:[ Netlist.Pin { Netlist.inst = clkbuf; term = "A" } ]
       ());
  ignore
    (Netlist.add_net b ~name:"clk" ~pitch:p.clock_pitch
       ~driver:(Netlist.Pin { Netlist.inst = clkbuf; term = "Z" })
       ~sinks:(List.map (fun ff -> Netlist.Pin { Netlist.inst = ff; term = "CK" }) ffs)
       ());
  let netlist = Netlist.freeze b in
  (* Path constraints: sinks split into groups; limits granted a wire
     budget above the zero-wire static critical delay. *)
  let dg = Delay_graph.build netlist in
  let sources = List.map (Delay_graph.node dg) (Delay_graph.natural_sources dg) in
  let sink_nodes = Array.of_list (List.map (Delay_graph.node dg) (Delay_graph.natural_sinks dg)) in
  Prng.shuffle rng sink_nodes;
  let n_groups = max 1 (min p.n_constraints (Array.length sink_nodes)) in
  let groups = Array.make n_groups [] in
  Array.iteri (fun i node -> groups.(i mod n_groups) <- node :: groups.(i mod n_groups)) sink_nodes;
  let probes =
    Array.to_list groups
    |> List.filter (fun g -> g <> [])
    |> List.mapi (fun i g ->
           Path_constraint.make
             ~name:(Printf.sprintf "P%d" i)
             ~sources ~sinks:g ~limit_ps:1.0e9)
  in
  let sta = Sta.create dg probes in
  let constraints =
    List.mapi
      (fun i pc ->
        let static = Sta.critical_delay sta i in
        let limit =
          if static = neg_infinity then 1.0e6
          else static *. (1.0 +. p.wire_budget)
        in
        Path_constraint.make ~name:pc.Path_constraint.cname
          ~sources:pc.Path_constraint.sources ~sinks:pc.Path_constraint.sinks ~limit_ps:limit)
      probes
  in
  (netlist, constraints)
