(* Tests for the design-file readers/writers: exact round trips and
   error reporting with line numbers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let libraries = [ Cell_lib.ecl_default ]

let netlists_equal a b =
  Netlist.n_instances a = Netlist.n_instances b
  && Netlist.n_ports a = Netlist.n_ports b
  && Netlist.n_nets a = Netlist.n_nets b
  && Array.for_all2 (fun (x : Netlist.net) y -> x = y) (Netlist.nets a) (Netlist.nets b)
  && Array.for_all2
       (fun (x : Netlist.instance) (y : Netlist.instance) ->
         x.Netlist.inst_name = y.Netlist.inst_name
         && x.Netlist.master.Cell.name = y.Netlist.master.Cell.name)
       (Netlist.instances a) (Netlist.instances b)
  && Array.for_all2 (fun (x : Netlist.port) y -> x = y) (Netlist.ports a) (Netlist.ports b)

let test_netlist_roundtrip () =
  let netlist, constraints = Circuit_gen.generate Circuit_gen.default_params in
  ignore constraints;
  let text = Netlist_io.to_string netlist in
  let back = Netlist_io.of_string ~libraries text in
  check_bool "netlist survives the round trip" true (netlists_equal netlist back);
  (* And idempotently: serializing the reread netlist is identical. *)
  Alcotest.(check string) "stable text" text (Netlist_io.to_string back)

let expect_parse_error ?line name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Lineio.Parse_error { line = got; _ } ->
    (match line with None -> () | Some l -> check_int (name ^ " line") l got)

let test_netlist_errors () =
  expect_parse_error "missing library" ~line:1 (fun () ->
      Netlist_io.of_string ~libraries "inst x INV1\n");
  expect_parse_error "unknown library" ~line:1 (fun () ->
      Netlist_io.of_string ~libraries "library tacos\n");
  expect_parse_error "unknown master" ~line:2 (fun () ->
      Netlist_io.of_string ~libraries "library ecl_default\ninst x NAND97\n");
  expect_parse_error "unknown instance in net" ~line:3 (fun () ->
      Netlist_io.of_string ~libraries "library ecl_default\ninst x INV1\nnet n drive y.Z sink x.A\n");
  expect_parse_error "bad endpoint" ~line:3 (fun () ->
      Netlist_io.of_string ~libraries "library ecl_default\ninst x INV1\nnet n drive bogus sink x.A\n");
  expect_parse_error "bad side" ~line:2 (fun () ->
      Netlist_io.of_string ~libraries "library ecl_default\nport P east\n");
  expect_parse_error "unknown directive" ~line:2 (fun () ->
      Netlist_io.of_string ~libraries "library ecl_default\nfrobnicate\n")

let test_crlf_tolerated () =
  let text = "library ecl_default\r\nport IN south\r\nport OUT north\r\ninst a INV1\r\nnet n0 drive port:IN sink a.A\r\nnet n1 drive a.Z sink port:OUT\r\n" in
  let netlist = Netlist_io.of_string ~libraries text in
  check_int "CRLF endings parse" 2 (Netlist.n_nets netlist)

let test_netlist_comments_and_whitespace () =
  let text =
    "# a comment\n\nlibrary ecl_default   # trailing comment\n\
     port IN south\n\tport OUT north\ninst a INV1\n\
     net n0 drive port:IN sink a.A\nnet n1 drive a.Z sink port:OUT\n"
  in
  let netlist = Netlist_io.of_string ~libraries text in
  check_int "two nets" 2 (Netlist.n_nets netlist);
  check_int "tab-indented port parsed" 2 (Netlist.n_ports netlist)

let small_routed_design () =
  let case = Suite.mini () in
  let input = case.Suite.input in
  let fp = Flow.floorplan_of_input input in
  (input.Flow.netlist, fp, input.Flow.constraints)

let test_placement_roundtrip () =
  let netlist, fp, _ = small_routed_design () in
  let text = Layout_io.to_string fp in
  let back = Layout_io.of_string ~netlist ~dims:Dims.default text in
  check_int "rows" (Floorplan.n_rows fp) (Floorplan.n_rows back);
  check_int "width" (Floorplan.width fp) (Floorplan.width back);
  check_int "slots" (Floorplan.n_slots fp) (Floorplan.n_slots back);
  for r = 0 to Floorplan.n_rows fp - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d cells" r)
      true
      (Floorplan.row_cells fp r = Floorplan.row_cells back r)
  done;
  Alcotest.(check string) "stable text" text (Layout_io.to_string back)

let test_placement_errors () =
  let netlist, _, _ = small_routed_design () in
  expect_parse_error "missing rows" (fun () ->
      Layout_io.of_string ~netlist ~dims:Dims.default "width 10\n");
  expect_parse_error "unknown instance" ~line:3 (fun () ->
      Layout_io.of_string ~netlist ~dims:Dims.default "rows 1\nwidth 10\ncell nosuch 0 0\n");
  expect_parse_error "bad integer" ~line:2 (fun () ->
      Layout_io.of_string ~netlist ~dims:Dims.default "rows 1\nwidth ten\n")

let test_constraints_roundtrip () =
  let netlist, _, constraints = small_routed_design () in
  let text = Constraint_io.to_string netlist constraints in
  let back = Constraint_io.of_string ~netlist text in
  check_int "constraint count" (List.length constraints) (List.length back);
  List.iter2
    (fun (a : Path_constraint.t) (b : Path_constraint.t) ->
      Alcotest.(check string) "name" a.Path_constraint.cname b.Path_constraint.cname;
      Alcotest.(check (float 1e-6)) "limit" a.Path_constraint.limit_ps b.Path_constraint.limit_ps;
      check_bool "sources" true (a.Path_constraint.sources = b.Path_constraint.sources);
      check_bool "sinks" true (a.Path_constraint.sinks = b.Path_constraint.sinks))
    constraints back;
  (* The reread constraints drive the same analysis. *)
  let dg = Delay_graph.build netlist in
  let sta_a = Sta.create dg constraints and sta_b = Sta.create dg back in
  for ci = 0 to Sta.n_constraints sta_a - 1 do
    Alcotest.(check (float 1e-9)) "same critical delay" (Sta.critical_delay sta_a ci)
      (Sta.critical_delay sta_b ci)
  done

let test_constraints_errors () =
  let netlist, _, _ = small_routed_design () in
  expect_parse_error "source before constraint" ~line:1 (fun () ->
      Constraint_io.of_string ~netlist "source ff0.Q\n");
  expect_parse_error "unknown instance" (fun () ->
      Constraint_io.of_string ~netlist "constraint P limit 10\nsource nobody.Q\nsink ff0.D\n");
  expect_parse_error "source must be an output" (fun () ->
      Constraint_io.of_string ~netlist "constraint P limit 10\nsource ff0.D\nsink ff0.D\n");
  expect_parse_error "sink must be sequential" (fun () ->
      Constraint_io.of_string ~netlist "constraint P limit 10\nsource ff0.Q\nsink g0.A\n")

let test_bundle_roundtrip () =
  let netlist, fp, constraints = small_routed_design () in
  let text = Design_io.to_string ~floorplan:fp ~constraints netlist in
  let bundle = Design_io.of_string text in
  check_bool "netlist back" true (netlists_equal netlist bundle.Design_io.d_netlist);
  check_bool "placement back" true (bundle.Design_io.d_floorplan <> None);
  check_int "constraints back" (List.length constraints)
    (List.length bundle.Design_io.d_constraints);
  (* The bundle routes end-to-end exactly like the original input. *)
  let input = Design_io.to_flow_input bundle in
  let a = Flow.run input in
  let case = Suite.mini () in
  let b = Flow.run case.Suite.input in
  Alcotest.(check (float 1e-6)) "same routed delay" b.Flow.o_measurement.Flow.m_delay_ps
    a.Flow.o_measurement.Flow.m_delay_ps;
  Alcotest.(check (float 1e-9)) "same area" b.Flow.o_measurement.Flow.m_area_mm2
    a.Flow.o_measurement.Flow.m_area_mm2

let test_bundle_file_io () =
  let netlist, fp, constraints = small_routed_design () in
  let path = Filename.temp_file "bgr_design" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Design_io.write ~floorplan:fp ~constraints netlist ~path;
      let bundle = Design_io.read path in
      check_bool "file round trip" true (netlists_equal netlist bundle.Design_io.d_netlist))

let test_bundle_errors () =
  expect_parse_error "no netlist section" (fun () -> Design_io.of_string "[placement]\nrows 1\n");
  expect_parse_error "garbage before sections" (fun () -> Design_io.of_string "hello\n[netlist]\n");
  check_bool "to_flow_input without placement" true
    (let netlist, _, _ = small_routed_design () in
     let bundle = Design_io.of_string (Design_io.to_string netlist) in
     match Design_io.to_flow_input bundle with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_library_roundtrip () =
  let lib = Cell_lib.ecl_default in
  let text = Cell_lib_io.to_string lib in
  let back = Cell_lib_io.of_string text in
  Alcotest.(check string) "name" (Cell_lib.name lib) (Cell_lib.name back);
  check_int "master count" (List.length (Cell_lib.cells lib)) (List.length (Cell_lib.cells back));
  List.iter2
    (fun (a : Cell.t) (b : Cell.t) ->
      Alcotest.(check string) "cell name" a.Cell.name b.Cell.name;
      check_bool "kind" true (a.Cell.kind = b.Cell.kind);
      check_int "width" a.Cell.width b.Cell.width;
      check_bool "terminals equal" true (a.Cell.terminals = b.Cell.terminals);
      check_bool "arcs equal" true (a.Cell.arcs = b.Cell.arcs);
      check_bool "seq inputs equal" true (a.Cell.sequential_inputs = b.Cell.sequential_inputs))
    (Cell_lib.cells lib) (Cell_lib.cells back);
  Alcotest.(check string) "stable text" text (Cell_lib_io.to_string back)

let test_library_errors () =
  expect_parse_error "missing name" (fun () -> Cell_lib_io.of_string "cell X comb width 1\n");
  expect_parse_error "terminal before cell" ~line:2 (fun () ->
      Cell_lib_io.of_string "name l\nin A fanin 1 offset 0 access both\n");
  expect_parse_error "bad kind" ~line:2 (fun () ->
      Cell_lib_io.of_string "name l\ncell X analog width 1\n");
  expect_parse_error "bad access" ~line:3 (fun () ->
      Cell_lib_io.of_string "name l\ncell X comb width 2\nin A fanin 1 offset 0 access east\n");
  check_bool "malformed master surfaces" true
    (match
       Cell_lib_io.of_string
         "name l\ncell X comb width 1\nin A fanin 1 offset 5 access both\n"
     with
    | exception Cell.Malformed _ -> true
    | _ -> false)

let test_bundle_embedded_library () =
  let netlist, fp, constraints = small_routed_design () in
  let text = Design_io.to_string ~embed_library:true ~floorplan:fp ~constraints netlist in
  (* Read back with NO known libraries: only the embedded one. *)
  let bundle = Design_io.of_string ~libraries:[] text in
  check_bool "netlist from embedded library" true (netlists_equal netlist bundle.Design_io.d_netlist);
  let outcome = Flow.run (Design_io.to_flow_input bundle) in
  check_bool "routes from the embedded library" true (Router.is_routed outcome.Flow.o_router)

let suite =
  [ Alcotest.test_case "netlist round trip" `Quick test_netlist_roundtrip;
    Alcotest.test_case "cell library round trip" `Quick test_library_roundtrip;
    Alcotest.test_case "cell library parse errors" `Quick test_library_errors;
    Alcotest.test_case "bundle with embedded library" `Quick test_bundle_embedded_library;
    Alcotest.test_case "netlist parse errors" `Quick test_netlist_errors;
    Alcotest.test_case "comments and whitespace" `Quick test_netlist_comments_and_whitespace;
    Alcotest.test_case "crlf endings" `Quick test_crlf_tolerated;
    Alcotest.test_case "placement round trip" `Quick test_placement_roundtrip;
    Alcotest.test_case "placement parse errors" `Quick test_placement_errors;
    Alcotest.test_case "constraints round trip" `Quick test_constraints_roundtrip;
    Alcotest.test_case "constraints parse errors" `Quick test_constraints_errors;
    Alcotest.test_case "bundle round trip routes identically" `Quick test_bundle_roundtrip;
    Alcotest.test_case "bundle file io" `Quick test_bundle_file_io;
    Alcotest.test_case "bundle errors" `Quick test_bundle_errors ]

let () = Alcotest.run "io" [ ("io", suite) ]
