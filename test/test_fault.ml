(* Fault injection: plan parsing, a pool spawn shortfall shrinking the
   pool to the helpers that started, and the io.parse site surfacing as
   a structured Error rather than an exception. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Synthetic sites the plan-machinery tests fire; real code never
   calls them, so they must be declared for parse_plan to accept
   them. *)
let () = List.iter Fault.declare_site [ "site.a"; "site.b"; "site.x" ]

let plan s =
  match Fault.parse_plan s with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse_plan %S: %s" s m

let test_parse_plan () =
  (match Fault.parse_plan "" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "empty plan should parse: %s" m);
  ignore (plan "seed=42; par.spawn:n=1; io.parse:p=0.5; router.improve:always");
  ignore (plan "par.spawn:n=3,io.parse:always");
  List.iter
    (fun bad ->
      match Fault.parse_plan bad with
      | Ok _ -> Alcotest.failf "plan %S should be rejected" bad
      | Error _ -> ())
    [ "par.spawn";
      "par.spawn:n=x";
      "io.parse:p=2.5";
      "whatever:";
      ":n=1";
      "seed=";
      (* Duplicate clauses for one site are ambiguous (which rule
         wins?) and always a typo in practice — rejected outright. *)
      "par.spawn:n=1, par.spawn:always";
      "seed=7;persist.append:n=3;io.parse:p=0.5;persist.append:always" ]

(* A site outside the registry would silently never fire; the plan is
   rejected instead — with a message that names the known sites. *)
let test_unknown_site_rejected () =
  List.iter
    (fun bad ->
      match Fault.parse_plan bad with
      | Ok _ -> Alcotest.failf "plan %S names an unknown site and should be rejected" bad
      | Error m ->
        check_bool "message says unknown site" true
          (String.length m >= 12 && String.sub m 12 7 = "unknown"))
    [ "serve.acept:n=1"; "router.impro:always"; "nosuch.site:p=0.5"; "par.worker:n=1" ];
  (* the four serving sites are registered *)
  ignore (plan "serve.accept:n=1;serve.read:always;serve.write:p=0.5;serve.job:n=2");
  (* declared synthetic sites are accepted *)
  Fault.declare_site "site.declared";
  ignore (plan "site.declared:always");
  check_bool "known_site sees builtins" true (Fault.known_site "serve.job");
  check_bool "known_site rejects typos" false (Fault.known_site "serve.jobs")

(* declare_site is documented idempotent: registering the same site
   twice (or shadowing a builtin) must not corrupt the registry, flip
   known_site, or change how plans naming it parse and fire. *)
let test_declare_site_idempotent () =
  Fault.declare_site "site.twice";
  Fault.declare_site "site.twice";
  check_bool "still known after re-registration" true (Fault.known_site "site.twice");
  ignore (plan "site.twice:n=1");
  Fault.declare_site "persist.append";
  Fault.declare_site "persist.append";
  check_bool "re-declared builtin stays known" true (Fault.known_site "persist.append");
  ignore (plan "persist.append:n=2");
  (* the duplicate-clause rejection is about plans, not the registry —
     re-declaration must not relax it *)
  (match Fault.parse_plan "site.twice:n=1, site.twice:always" with
  | Ok _ -> Alcotest.fail "duplicate clauses must stay rejected"
  | Error _ -> ());
  Fault.with_plan (plan "site.twice:n=1") (fun () ->
      check_bool "fires once" true (Fault.trip "site.twice");
      check_bool "then stays quiet" false (Fault.trip "site.twice"))

let test_trip_counts () =
  Fault.with_plan (plan "site.a:n=2") (fun () ->
      check_bool "hit 1 does not fire" false (Fault.trip "site.a");
      check_bool "hit 2 fires" true (Fault.trip "site.a");
      check_bool "hit 3 does not fire" false (Fault.trip "site.a");
      check_bool "other site never fires" false (Fault.trip "site.b");
      check_int "fired count" 1 (Fault.fired "site.a"));
  (* Outside with_plan only an environment plan (the CI fault job) may
     be active. *)
  if Sys.getenv_opt "BGR_FAULT_PLAN" = None then
    check_bool "no plan installed outside with_plan" false (Fault.active ())

let test_always_and_check () =
  Fault.with_plan (plan "site.x:always") (fun () ->
      check_bool "always fires" true (Fault.trip "site.x");
      check_bool "always fires again" true (Fault.trip "site.x");
      match Fault.check ~phase:"demo" "site.x" with
      | () -> Alcotest.fail "check should raise"
      | exception Bgr_error.Error e ->
        check_bool "code is Fault" true (e.Bgr_error.code = Bgr_error.Fault))

let sum_with_pool pool n =
  let acc = Atomic.make 0 in
  Par.parallel_iter pool (fun i -> ignore (Atomic.fetch_and_add acc i)) n;
  Atomic.get acc

let expected_sum n = n * (n - 1) / 2

(* A pool keeps the helpers that spawned before the first failure and
   reports the shortfall once. *)
let test_spawn_failure_degrades () =
  List.iter
    (fun (p, started) ->
      Fault.with_plan (plan p) (fun () ->
          let pool = Par.create ~domains:4 () in
          Fun.protect
            ~finally:(fun () -> Par.shutdown pool)
            (fun () ->
              let n = 1000 in
              check_int "short pool still sums" (expected_sum n) (sum_with_pool pool n);
              check_int "the caller plus the started helpers" (1 + started) (Par.domains pool);
              check_int "one shortfall warning" 1 (List.length (Par.warnings pool)))))
    [ ("par.spawn:always", 0); ("par.spawn:n=2", 1) ]

(* The io.parse site turns into a structured Error on the Result path,
   never an exception. *)
let test_io_parse_fault () =
  Fault.with_plan (plan "io.parse:always") (fun () ->
      match Design_io.of_string_result ~file:"demo.bgr" "[netlist]\nlibrary ecl_default\n" with
      | Ok _ -> Alcotest.fail "expected the injected fault to surface"
      | Error e ->
        check_bool "code is Fault" true (e.Bgr_error.code = Bgr_error.Fault);
        check_bool "file stamped" true (e.Bgr_error.file = Some "demo.bgr")
      | exception e ->
        Alcotest.failf "exception escaped the Result path: %s" (Printexc.to_string e))

(* Routing with every helper failing to spawn reports the one domain
   that scores and matches the sequential result.  This must be the
   executable's first [Par.get]: a healthy global pool would be reused
   and hide the shortfall. *)
let test_routing_under_spawn_failure () =
  let route ~domains =
    Flow.run
      ~options:{ Router.default_options with Router.domains }
      ~timing_driven:true (Suite.mini ()).Suite.input
  in
  let faulty = Fault.with_plan (plan "par.spawn:always") (fun () -> route ~domains:3) in
  let clean = route ~domains:1 in
  let m = faulty.Flow.o_measurement in
  check_int "one scoring domain" 1 m.Flow.m_domains;
  check_int "one pool warning" 1 (List.length m.Flow.m_par_warnings);
  check_int "1-domain deletion hash"
    (Router.deletion_hash clean.Flow.o_router)
    (Router.deletion_hash faulty.Flow.o_router)

let suite =
  [ Alcotest.test_case "parse_plan grammar" `Quick test_parse_plan;
    Alcotest.test_case "unknown sites rejected" `Quick test_unknown_site_rejected;
    Alcotest.test_case "declare_site double registration" `Quick test_declare_site_idempotent;
    Alcotest.test_case "n=K counting" `Quick test_trip_counts;
    Alcotest.test_case "always + check" `Quick test_always_and_check;
    Alcotest.test_case "spawn failure -> degraded" `Quick test_spawn_failure_degrades;
    Alcotest.test_case "io.parse fault is structured" `Quick test_io_parse_fault;
    Alcotest.test_case "routing under spawn failure" `Quick test_routing_under_spawn_failure ]

let () = Alcotest.run "fault" [ ("fault", suite) ]
