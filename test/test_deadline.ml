(* Deadline-aware routing: a budget-capped [Router.run] always leaves
   every net with a verifiable spanning tree, reports an honest stop
   reason, and stops at a deterministic program point — the zero-budget
   result is bit-identical across domain counts. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let run ?(domains = 1) ?(budget = Budget.unlimited) () =
  let case = Suite.mini () in
  let outcome =
    Flow.run
      ~options:{ Router.default_options with Router.domains }
      ~timing_driven:true ~budget case.Suite.input
  in
  (outcome.Flow.o_router, outcome.Flow.o_run_report, outcome.Flow.o_measurement)

let fingerprint router (m : Flow.measurement) =
  Printf.sprintf "delay=%h area=%h len=%h viol=%d del=%d hash=%d stopped=%s" m.Flow.m_delay_ps
    m.Flow.m_area_mm2 m.Flow.m_length_mm m.Flow.m_violations m.Flow.m_deletions
    (Router.deletion_hash router)
    m.Flow.m_stopped_because

let test_zero_budget_still_routes () =
  let router, report, _ = run ~budget:(Budget.make ~wall_ms:0.0 ()) () in
  check_bool "every net has a spanning tree" true (Router.is_routed router);
  check_bool "initial route completed" true
    (List.mem "initial_route" report.Router.completed_phases);
  (match report.Router.stopped_because with
  | Router.Deadline _ -> ()
  | r -> Alcotest.failf "expected Deadline, got %s" (Router.stop_reason_string r));
  check_bool "stop reason names the phase" true
    (let s = Router.stop_reason_string report.Router.stopped_because in
     String.length s > String.length "deadline during "
     && String.sub s 0 16 = "deadline during ")

let test_zero_budget_deterministic_across_domains () =
  let fp domains =
    let router, _, m = run ~domains ~budget:(Budget.make ~wall_ms:0.0 ()) () in
    fingerprint router m
  in
  check_string "zero budget: 1 domain = 4 domains" (fp 1) (fp 4)

let test_unlimited_finishes () =
  let router, report, _ = run () in
  check_bool "routed" true (Router.is_routed router);
  check_string "finished" "finished" (Router.stop_reason_string report.Router.stopped_because);
  check_bool "all phases completed" true
    (List.for_all
       (fun p -> List.mem p report.Router.completed_phases)
       [ "initial_route"; "recover_violations"; "improve_delay"; "improve_area" ]);
  check_bool "nothing rolled back" false report.Router.rolled_back

(* A fake clock expiring mid-run: the router must roll partial passes
   back to the last checkpoint and say so. *)
let test_fake_clock_midrun () =
  let ticks = ref 0 in
  (* Each budget consultation advances the clock; expiry lands inside
     an improvement phase rather than before the first one. *)
  let clock () =
    incr ticks;
    float_of_int !ticks *. 0.01
  in
  let budget = Budget.make ~wall_ms:200.0 ~clock () in
  let router, report, _ = run ~budget () in
  check_bool "still fully routed after mid-run stop" true (Router.is_routed router);
  match report.Router.stopped_because with
  | Router.Deadline _ -> ()
  | Router.Finished ->
    (* mini is small enough that the run may beat 20 consultations;
       finishing is an acceptable honest outcome. *)
    check_bool "finished runs are not rolled back" false report.Router.rolled_back
  | r -> Alcotest.failf "expected Deadline or Finished, got %s" (Router.stop_reason_string r)

let test_injected_router_fault () =
  match Fault.parse_plan "router.improve:n=1" with
  | Error m -> Alcotest.failf "plan: %s" m
  | Ok plan ->
    let router, report, _ = Fault.with_plan plan (fun () -> run ()) in
    check_bool "routed despite the injected fault" true (Router.is_routed router);
    (match report.Router.stopped_because with
    | Router.Fault_stop { error; _ } ->
      check_bool "fault error carries the Fault code" true
        (error.Bgr_error.code = Bgr_error.Fault)
    | r -> Alcotest.failf "expected Fault_stop, got %s" (Router.stop_reason_string r))

let suite =
  [ Alcotest.test_case "zero budget still yields trees" `Quick test_zero_budget_still_routes;
    Alcotest.test_case "zero budget bit-identical across domains" `Quick
      test_zero_budget_deterministic_across_domains;
    Alcotest.test_case "unlimited budget finishes" `Quick test_unlimited_finishes;
    Alcotest.test_case "fake clock mid-run stop" `Quick test_fake_clock_midrun;
    Alcotest.test_case "injected fault stops honestly" `Quick test_injected_router_fault ]

let () = Alcotest.run "deadline" [ ("deadline", suite) ]
