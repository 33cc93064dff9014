(* Tests for the workload generators: Prng, Circuit_gen, Placement,
   Calibrate, Suite. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.next64 a = Prng.next64 b)
  done;
  let c = Prng.create ~seed:43L in
  check_bool "different seed, different stream" true (Prng.next64 a <> Prng.next64 c)

let test_prng_ranges () =
  let r = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    check_bool "int in range" true (v >= 0 && v < 10);
    let f = Prng.float r 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done;
  check_bool "int rejects bad bound" true
    (match Prng.int r 0 with exception Invalid_argument _ -> true | _ -> false)

let test_prng_pick_shuffle () =
  let r = Prng.create ~seed:5L in
  check_int "pick singleton" 9 (Prng.pick r [ 9 ]);
  let arr = Array.init 20 Fun.id in
  Prng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

(* --- Circuit_gen --------------------------------------------------------- *)

let small_params =
  { Circuit_gen.default_params with
    Circuit_gen.seed = 11L;
    n_comb = 30;
    n_ff = 6;
    n_inputs = 4;
    n_outputs = 4;
    n_levels = 3;
    n_diff_pairs = 2;
    n_constraints = 3 }

let test_generate_wellformed () =
  let netlist, constraints = Circuit_gen.generate small_params in
  (* freeze already validated; sanity-check the shape. *)
  let s = Netlist.stats netlist in
  check_bool "enough cells" true (s.Netlist.n_cells >= 30);
  check_int "requested pairs" 2 s.Netlist.n_diff_pairs;
  check_int "clock is multi-pitch" 1 s.Netlist.n_multi_pitch;
  check_int "constraints" 3 (List.length constraints);
  (* The delay graph must be acyclic and analyzable. *)
  let dg = Delay_graph.build netlist in
  let sta = Sta.create dg constraints in
  check_bool "finite critical delay" true (Sta.worst_path_delay sta > 0.0)

let test_generate_deterministic () =
  let a, _ = Circuit_gen.generate small_params in
  let b, _ = Circuit_gen.generate small_params in
  check_int "same nets" (Netlist.n_nets a) (Netlist.n_nets b);
  for net = 0 to Netlist.n_nets a - 1 do
    check_bool "identical net structure" true ((Netlist.net a net) = (Netlist.net b net))
  done;
  let c, _ = Circuit_gen.generate { small_params with Circuit_gen.seed = 12L } in
  check_bool "different seed differs" true
    (Netlist.n_nets a <> Netlist.n_nets c
    || (let differs = ref false in
        for net = 0 to Netlist.n_nets a - 1 do
          if Netlist.net a net <> Netlist.net c net then differs := true
        done;
        !differs))

(* Small designs with the property tests' parameters must all freeze.
   Seed 77891 once left input port IN3 without a sink; such a port now
   drives a buffer of its own. *)
let test_generate_freezes_over_seeds () =
  let buffered = ref 0 in
  for seed = 77850 to 77949 do
    for n_levels = 2 to 4 do
      for n_diff_pairs = 0 to 2 do
        let p =
          { small_params with
            Circuit_gen.seed = Int64.of_int seed;
            n_comb = 18;
            n_ff = 5;
            n_levels;
            n_diff_pairs }
        in
        match Circuit_gen.generate p with
        | netlist, _ ->
          if
            Array.exists
              (fun (i : Netlist.instance) -> String.starts_with ~prefix:"inbuf" i.Netlist.inst_name)
              (Netlist.instances netlist)
          then incr buffered
        | exception Netlist.Invalid msg ->
          Alcotest.failf "seed %d levels %d pairs %d: %s" seed n_levels n_diff_pairs msg
      done
    done
  done;
  check_bool "some design needed an input buffer" true (!buffered > 0)

let test_constraints_have_paths () =
  let netlist, constraints = Circuit_gen.generate small_params in
  let dg = Delay_graph.build netlist in
  let sta = Sta.create dg constraints in
  for ci = 0 to Sta.n_constraints sta - 1 do
    check_bool
      (Printf.sprintf "constraint %d has a path" ci)
      true
      (Sta.critical_delay sta ci > neg_infinity)
  done

(* --- Placement ------------------------------------------------------------ *)

let test_placement_legal () =
  let netlist, _ = Circuit_gen.generate small_params in
  List.iter
    (fun style ->
      let r = Placement.place ~netlist ~n_rows:3 style in
      (* Floorplan.make performs full legality checking. *)
      let fp =
        Floorplan.make ~netlist ~dims:Dims.default ~n_rows:3 ~width:r.Placement.r_width
          ~cells:r.Placement.r_cells ~slots:r.Placement.r_slots ()
      in
      check_int "rows as asked" 3 (Floorplan.n_rows fp);
      check_bool "has feed slots" true (Floorplan.n_slots fp > 0))
    [ Placement.P1; Placement.P2 ]

let test_placement_styles_differ () =
  let netlist, _ = Circuit_gen.generate small_params in
  let p1 = Placement.place ~netlist ~n_rows:3 Placement.P1 in
  let p2 = Placement.place ~netlist ~n_rows:3 Placement.P2 in
  check_int "same width" p1.Placement.r_width p2.Placement.r_width;
  check_int "same slot count" (List.length p1.Placement.r_slots) (List.length p2.Placement.r_slots);
  (* P2 sweeps all slots to the right end of each row: its mean slot
     column is strictly larger. *)
  let mean slots =
    let sum = List.fold_left (fun acc (_, x, _) -> acc + x) 0 slots in
    float_of_int sum /. float_of_int (List.length slots)
  in
  check_bool "P2 slots pushed aside" true (mean p2.Placement.r_slots > mean p1.Placement.r_slots)

let test_placement_hpwl_sanity () =
  (* The barycenter placement should beat a pessimal reversed-order
     placement on total HPWL. *)
  let netlist, _ = Circuit_gen.generate small_params in
  let hpwl_of placed =
    let fp =
      Floorplan.make ~netlist ~dims:Dims.default ~n_rows:3 ~width:placed.Placement.r_width
        ~cells:placed.Placement.r_cells ~slots:placed.Placement.r_slots ()
    in
    let total = ref 0.0 in
    for net = 0 to Netlist.n_nets netlist - 1 do
      let bbox = Floorplan.net_bbox fp net in
      total := !total +. float_of_int (Rect.half_perimeter bbox)
    done;
    !total
  in
  let good = Placement.place ~netlist ~n_rows:3 Placement.P1 in
  let bad = Placement.place ~barycenter_passes:0 ~netlist ~n_rows:3 Placement.P1 in
  check_bool "refinement does not hurt" true (hpwl_of good <= hpwl_of bad)

(* --- Calibrate / Suite ------------------------------------------------------ *)

let test_calibrate_tightens_to_bound () =
  let case = Suite.mini () in
  let input = case.Suite.input in
  let dg = Delay_graph.build input.Flow.netlist in
  let sta = Sta.create dg input.Flow.constraints in
  let fp = Flow.floorplan_of_input input in
  let bounds = Lower_bound.per_constraint sta fp in
  List.iteri
    (fun ci (pc : Path_constraint.t) ->
      if bounds.(ci) > neg_infinity then
        check_bool
          (Printf.sprintf "limit %d above its row-only bound" ci)
          true
          (pc.Path_constraint.limit_ps > bounds.(ci)))
    input.Flow.constraints

(* The reference route is the same at every domain count, so calibrating
   builds no scoring pool: with BGR_DOMAINS above any pool this
   executable holds, a pool request would have to spawn helpers. *)
let test_calibrate_spawns_no_pool () =
  let netlist, constraints = Circuit_gen.generate small_params in
  let placed = Placement.place ~netlist ~n_rows:3 Placement.P1 in
  let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints placed in
  let plan =
    match Fault.parse_plan "par.spawn:always" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let saved = Option.value (Sys.getenv_opt "BGR_DOMAINS") ~default:"" in
  Unix.putenv "BGR_DOMAINS" (string_of_int (Par.default_domains () + 1));
  let spawns =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "BGR_DOMAINS" saved)
      (fun () ->
        Fault.with_plan plan (fun () ->
            ignore (Calibrate.against_reference_route ~input ~headroom:0.18);
            Fault.fired "par.spawn"))
  in
  check_int "par.spawn hits while calibrating" 0 spawns

let test_suite_cases () =
  let cases = Suite.all () in
  check_int "five cases as in Table 1" 5 (List.length cases);
  Alcotest.(check (list string))
    "case names"
    [ "C1P1"; "C1P2"; "C2P1"; "C2P2"; "C3P1" ]
    (List.map (fun (c : Suite.case) -> c.Suite.case_name) cases);
  (* Both placements of one circuit share the same netlist value. *)
  match cases with
  | a :: b :: _ ->
    check_bool "C1P1/C1P2 share the circuit" true
      (a.Suite.input.Flow.netlist == b.Suite.input.Flow.netlist)
  | _ -> Alcotest.fail "unexpected suite"

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng pick/shuffle" `Quick test_prng_pick_shuffle;
    Alcotest.test_case "generator well-formed" `Quick test_generate_wellformed;
    Alcotest.test_case "generator deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "generator freezes over seeds" `Quick test_generate_freezes_over_seeds;
    Alcotest.test_case "constraints have paths" `Quick test_constraints_have_paths;
    Alcotest.test_case "placement legal (P1/P2)" `Quick test_placement_legal;
    Alcotest.test_case "placement styles differ" `Quick test_placement_styles_differ;
    Alcotest.test_case "placement refinement sanity" `Quick test_placement_hpwl_sanity;
    Alcotest.test_case "calibration above bound" `Quick test_calibrate_tightens_to_bound;
    Alcotest.test_case "calibration spawns no pool" `Quick test_calibrate_spawns_no_pool;
    Alcotest.test_case "suite cases" `Quick test_suite_cases ]

let () = Alcotest.run "workload" [ ("workload", suite) ]
