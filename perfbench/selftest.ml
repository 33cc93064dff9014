(* Self-tests of the benchmark: its phase drive must be the program
   [Flow.run] runs, and BENCHMARK.json must declare exactly the
   workloads and metrics bench.exe prints. *)

let text = lazy (Drive.generate ~gates:160 ~seed:7)
let options = { Router.default_options with Router.domains = 1 }

let same_as_flow_run timing_driven () =
  let text = Lazy.force text in
  let reference = Flow.run ~options ~timing_driven (Drive.parse text) in
  let check_job what (j : Drive.job) =
    let strip (o : Flow.outcome) = { o.Flow.o_measurement with Flow.m_cpu_s = 0.0 } in
    Alcotest.(check (list string))
      (what ^ ": phases")
      reference.Flow.o_run_report.Router.completed_phases
      (Drive.completed j.Drive.j_routed.Drive.r_phases);
    Alcotest.(check int)
      (what ^ ": deletion hash")
      (Router.deletion_hash reference.Flow.o_router)
      (Router.deletion_hash j.Drive.j_outcome.Flow.o_router);
    (* [compare], not [=]: an unconstrained measurement holds nan. *)
    Alcotest.(check bool)
      (what ^ ": measurement") true
      (compare (strip reference) (strip j.Drive.j_outcome) = 0)
  in
  check_job "untraced" (Drive.job ~options ~timing_driven text);
  check_job "traced" (Drive.job ~tracer:(Drive.tracer ()) ~options ~timing_driven text)

let spans_nest () =
  let tr = Drive.tracer () in
  ignore (Drive.job ~tracer:tr ~options ~timing_driven:true (Lazy.force text));
  let spans = Drive.spans tr in
  let job = List.find (fun s -> s.Drive.sp_name = "job") spans in
  let children = List.filter (fun s -> s.Drive.sp_parent = job.Drive.sp_id) spans in
  Alcotest.(check (list string))
    "ledger rows"
    ([ "io.parse"; "flow.prepare" ]
    @ List.map (fun p -> "router." ^ p) Drive.phase_names
    @ [ "flow.finish" ])
    (List.map (fun s -> s.Drive.sp_name) children)

let declared () =
  let json =
    match Qjson.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field k j = Option.get (Qjson.member k j) in
  let str k j = Option.get (Qjson.to_str (field k j)) in
  let list k = Option.get (Qjson.to_list (field k json)) in
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Catalog.w_name) Catalog.workloads)
    (List.map (str "name") (list "workloads"));
  let metrics k expected =
    Alcotest.(check (list (triple string string string)))
      k
      (List.map (fun (n, u, b) -> (n, u, Catalog.better_string b)) expected)
      (List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list k))
  in
  metrics "end_to_end" Catalog.end_to_end;
  metrics "per_layer" Catalog.per_layer

let () =
  Alcotest.run "perfbench"
    [ ( "drive",
        [ Alcotest.test_case "timing-driven phases equal Flow.run" `Quick (same_as_flow_run true);
          Alcotest.test_case "unconstrained phases equal Flow.run" `Quick (same_as_flow_run false);
          Alcotest.test_case "ledger rows are the job's children" `Quick spans_nest ] );
      ("catalog", [ Alcotest.test_case "BENCHMARK.json declares the printed metrics" `Quick declared ]) ]
