type case = {
  case_name : string;
  circuit : string;
  placement : Placement.style;
  input : Flow.input;
}

let circuit_params = function
  | "C1" ->
    { Circuit_gen.default_params with
      Circuit_gen.seed = 101L;
      n_comb = 150;
      n_ff = 22;
      n_inputs = 10;
      n_outputs = 10;
      n_levels = 5;
      n_diff_pairs = 3;
      n_constraints = 6 }
  | "C2" ->
    { Circuit_gen.default_params with
      Circuit_gen.seed = 202L;
      n_comb = 300;
      n_ff = 40;
      n_inputs = 14;
      n_outputs = 14;
      n_levels = 6;
      n_diff_pairs = 5;
      n_constraints = 8 }
  | "C3" ->
    { Circuit_gen.default_params with
      Circuit_gen.seed = 303L;
      n_comb = 520;
      n_ff = 64;
      n_inputs = 18;
      n_outputs = 18;
      n_levels = 7;
      n_diff_pairs = 8;
      n_constraints = 10 }
  | "MINI" ->
    { Circuit_gen.default_params with
      Circuit_gen.seed = 7L;
      n_comb = 40;
      n_ff = 8;
      n_inputs = 6;
      n_outputs = 6;
      n_levels = 3;
      n_diff_pairs = 1;
      n_constraints = 3 }
  | _ -> raise Not_found

let rows_of_circuit = function
  | "C1" -> 8
  | "C2" -> 10
  | "C3" -> 12
  | "MINI" -> 4
  | _ -> raise Not_found

(* Generated circuits are cached: the same netlist value backs both
   placements of a circuit, as in the paper.  The mutex keeps the cache
   sound when cases are built from several domains (the parallel suite
   runner constructs its cases up front, but API users need not). *)
let cache : (string, Netlist.t * Path_constraint.t list) Hashtbl.t = Hashtbl.create 4
let cache_mutex = Mutex.create ()

(* Constraint limits are calibrated against an unconstrained reference
   routing of the P1 layout: 18% headroom over each constraint's
   physical half-perimeter delay bound (see Calibrate). *)
let calibration_headroom = 0.18

let circuit name =
  Mutex.lock cache_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mutex) (fun () ->
      match Hashtbl.find_opt cache name with
      | Some c -> c
      | None ->
        let netlist, raw_constraints = Circuit_gen.generate (circuit_params name) in
        let placed = Placement.place ~netlist ~n_rows:(rows_of_circuit name) Placement.P1 in
        let input =
          Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw_constraints placed
        in
        let constraints =
          Calibrate.against_reference_route ~input ~headroom:calibration_headroom
        in
        let c = (netlist, constraints) in
        Hashtbl.replace cache name c;
        c)

let make_case ~circuit:name ~placement =
  let netlist, constraints = circuit name in
  let placed = Placement.place ~netlist ~n_rows:(rows_of_circuit name) placement in
  { case_name = name ^ Placement.style_name placement;
    circuit = name;
    placement;
    input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed }

let all () =
  [ make_case ~circuit:"C1" ~placement:Placement.P1;
    make_case ~circuit:"C1" ~placement:Placement.P2;
    make_case ~circuit:"C2" ~placement:Placement.P1;
    make_case ~circuit:"C2" ~placement:Placement.P2;
    make_case ~circuit:"C3" ~placement:Placement.P1 ]

let mini () =
  let case = make_case ~circuit:"MINI" ~placement:Placement.P1 in
  { case with case_name = "MINI" }
