(* Determinism of the parallel engine: routing with [~domains:4] must
   be bit-identical to [~domains:1] — same Table-2 metrics, same
   channel heights, and the same deleted-edge sequence (order-sensitive
   hash) — on every case of the synthetic suite, and repeated parallel
   runs must agree with themselves.  The 1-domain hashes are also
   pinned to fixed values. *)

let route ?(timing = true) ~domains (case : Suite.case) =
  Flow.run
    ~options:{ Router.default_options with Router.domains }
    ~timing_driven:timing case.Suite.input

(* Exact fingerprint of an outcome: floats rendered as hex (%h) so the
   comparison is bitwise, plus the order-sensitive deletion hash. *)
let fingerprint (outcome : Flow.outcome) =
  let m = outcome.Flow.o_measurement in
  Printf.sprintf "delay=%h area=%h len=%h viol=%d del=%d tracks=[%s] hash=%d"
    m.Flow.m_delay_ps m.Flow.m_area_mm2 m.Flow.m_length_mm m.Flow.m_violations
    m.Flow.m_deletions
    (String.concat ";" (Array.to_list (Array.map string_of_int m.Flow.m_tracks)))
    (Router.deletion_hash outcome.Flow.o_router)

(* Deletion hashes of [bgr_run route CASE --domains 1] (constrained) and
   of [... -u] (unconstrained).  Equal domain counts only prove the
   engines agree; these pin the routing decisions themselves, so a
   change that moves any deletion fails here unless it is a deliberate,
   documented re-baseline. *)
let pinned_constrained =
  [ ("MINI", 3841584272751667738);
    ("C1P1", 4497237050982785072);
    ("C1P2", 3744061529905252545);
    ("C2P1", 769693637757968284);
    ("C2P2", 1962463935218044182);
    ("C3P1", 4074480815657787608) ]

let pinned_unconstrained =
  [ ("C1P1", 3676640659999057995);
    ("C1P2", 4363920212158663565);
    ("C2P1", 1431300894963823393);
    ("C2P2", 94770341335326193);
    ("C3P1", 811264361693329709) ]

let check_pinned pinned ~what (case : Suite.case) (outcome : Flow.outcome) =
  Alcotest.(check int)
    (Printf.sprintf "%s %s: pinned deletion hash" case.Suite.case_name what)
    (List.assoc case.Suite.case_name pinned)
    (Router.deletion_hash outcome.Flow.o_router)

let test_full_suite_constrained () =
  List.iter
    (fun (case : Suite.case) ->
      let seq = route ~domains:1 case in
      check_pinned pinned_constrained ~what:"constrained" case seq;
      Alcotest.(check string)
        (case.Suite.case_name ^ " constrained: 1 domain = 4 domains")
        (fingerprint seq)
        (fingerprint (route ~domains:4 case)))
    (Suite.mini () :: Suite.all ())

let test_suite_unconstrained_pinned () =
  List.iter
    (fun case ->
      check_pinned pinned_unconstrained ~what:"unconstrained" case
        (route ~timing:false ~domains:1 case))
    (Suite.all ())

(* Deletion hashes of C1P1's ablation routes (A1, A3, A4, A5), the same
   at 1 and 4 domains: no other test pins these selection paths. *)
let pinned_ablations =
  let o = Router.default_options in
  [ ( "area_first_ordering",
      { o with Router.area_first_ordering = true },
      Flow.Concurrent_edge_deletion,
      1192941602485415256 );
    ( "Star_bbox",
      { o with Router.cl_estimator = Router.Star_bbox },
      Flow.Concurrent_edge_deletion,
      2186715792833289406 );
    ( "Elmore_rc",
      { o with Router.delay_model = Router.Elmore_rc },
      Flow.Concurrent_edge_deletion,
      290012071749432511 );
    ("Sequential_net_at_a_time", o, Flow.Sequential_net_at_a_time, 2878437541840357601) ]

let test_ablations_pinned () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  List.iter
    (fun (name, options, algorithm, pinned) ->
      List.iter
        (fun domains ->
          let outcome =
            Flow.run ~options:{ options with Router.domains } ~algorithm case.Suite.input
          in
          Alcotest.(check int)
            (Printf.sprintf "C1P1 %s, %d domains: pinned deletion hash" name domains)
            pinned
            (Router.deletion_hash outcome.Flow.o_router))
        [ 1; 4 ])
    pinned_ablations

let test_unconstrained () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  Alcotest.(check string) "C1P1 unconstrained: 1 domain = 4 domains"
    (fingerprint (route ~timing:false ~domains:1 case))
    (fingerprint (route ~timing:false ~domains:4 case))

let test_repeated_runs_stable () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  Alcotest.(check string) "C1P1: two 4-domain runs agree"
    (fingerprint (route ~domains:4 case))
    (fingerprint (route ~domains:4 case))

(* The suite-level parallel runner (independent cases routed on
   separate domains) must reproduce the sequential runner's Table-2
   measurements exactly. *)
let test_suite_runner_equivalent () =
  let cases = [ Suite.mini (); Suite.make_case ~circuit:"C1" ~placement:Placement.P1 ] in
  let fp_run (r : Experiments.run) =
    let fp_m (m : Flow.measurement) =
      Printf.sprintf "delay=%h area=%h len=%h viol=%d del=%d" m.Flow.m_delay_ps
        m.Flow.m_area_mm2 m.Flow.m_length_mm m.Flow.m_violations m.Flow.m_deletions
    in
    Printf.sprintf "%s: with=[%s] without=[%s]" r.Experiments.case.Suite.case_name
      (fp_m r.Experiments.constrained)
      (fp_m r.Experiments.unconstrained)
  in
  let seq = List.map fp_run (Experiments.run_suite ~cases ~domains:1 ()) in
  let par = List.map fp_run (Experiments.run_suite ~cases ~domains:4 ()) in
  Alcotest.(check (list string)) "run_suite: 1 domain = 4 domains" seq par

let suite =
  [ Alcotest.test_case "full suite constrained: seq = par" `Slow test_full_suite_constrained;
    Alcotest.test_case "unconstrained: seq = par" `Slow test_unconstrained;
    Alcotest.test_case "unconstrained suite: pinned hashes" `Slow test_suite_unconstrained_pinned;
    Alcotest.test_case "C1P1 ablations: pinned hashes" `Slow test_ablations_pinned;
    Alcotest.test_case "repeated parallel runs stable" `Slow test_repeated_runs_stable;
    Alcotest.test_case "parallel suite runner = sequential" `Slow test_suite_runner_equivalent ]

let () = Alcotest.run "parallel" [ ("parallel", suite) ]
