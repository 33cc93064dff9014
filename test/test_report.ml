(* Tests for the report-layer extras: ASCII layout views and
   route-quality statistics. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let routed_mini () =
  let case = Suite.mini () in
  Flow.run case.Suite.input

let test_floorplan_view_shape () =
  let outcome = routed_mini () in
  let fp = outcome.Flow.o_floorplan in
  let s = Layout_view.floorplan fp in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* One line per row plus one per channel. *)
  check_int "line count" ((2 * Floorplan.n_rows fp) + 1) (List.length lines);
  (* Every row line is exactly prefix + width wide. *)
  List.iter
    (fun l ->
      if String.length l >= 3 && String.sub l 0 3 = "row" then
        check_int "row line width" (5 + Floorplan.width fp) (String.length l))
    lines;
  (* Feed slots appear as '+'. *)
  check_bool "feed slots rendered" true (String.contains s '+')

let test_floorplan_view_tracks () =
  let outcome = routed_mini () in
  let s =
    Layout_view.floorplan ~channel_tracks:outcome.Flow.o_measurement.Flow.m_tracks
      outcome.Flow.o_floorplan
  in
  check_bool "track annotations present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 6 && String.contains l '('))

let test_channel_view () =
  let outcome = routed_mini () in
  let worst = Experiments.fig4_worst_channel outcome in
  let r = outcome.Flow.o_channels.(worst) in
  let s = Layout_view.channel_tracks r ~width:(Floorplan.width outcome.Flow.o_floorplan) in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "one line per track" r.Channel_router.tracks (List.length lines)

let test_route_stats () =
  let outcome = routed_mini () in
  let stats = Route_stats.of_router outcome.Flow.o_router in
  check_bool "nets counted" true (stats.Route_stats.n_nets > 0);
  check_bool "mean detour sane" true
    (stats.Route_stats.mean_detour > 0.3 && stats.Route_stats.mean_detour < 3.0);
  check_bool "p95 >= mean is typical" true
    (stats.Route_stats.p95_detour +. 1e-9 >= stats.Route_stats.mean_detour *. 0.5);
  check_bool "max is the max" true (stats.Route_stats.max_detour >= stats.Route_stats.p95_detour);
  let histogram_total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 stats.Route_stats.histogram
  in
  check_int "histogram covers all nets" stats.Route_stats.n_nets histogram_total;
  check_bool "lengths positive" true
    (stats.Route_stats.total_trunk_mm > 0.0 && stats.Route_stats.total_hpwl_mm > 0.0);
  let rendered = Route_stats.render stats in
  check_bool "render has the histogram" true (String.length rendered > 100)

let test_slack_profile () =
  let outcome = routed_mini () in
  match outcome.Flow.o_sta with
  | None -> Alcotest.fail "expected sta"
  | Some sta ->
    let p = Slack_profile.of_sta sta in
    check_bool "endpoints counted" true (p.Slack_profile.n_endpoints > 0);
    let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 p.Slack_profile.buckets in
    check_int "histogram covers all endpoints" p.Slack_profile.n_endpoints total;
    check_bool "violating count consistent" true
      ((p.Slack_profile.n_violating = 0) = (p.Slack_profile.total_negative_ps = 0.0));
    check_bool "worst is finite" true (Float.is_finite p.Slack_profile.worst_ps);
    check_bool "renders" true (String.length (Slack_profile.render p) > 50)

let test_signoff () =
  let outcome = routed_mini () in
  let s = Signoff.report outcome in
  check_bool "summary present" true (String.length s > 500);
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool (needle ^ " section present") true (contains needle))
    [ "Sign-off summary"; "verify:"; "route quality"; "slack profile" ]

(* The paper drops wire resistance because bipolar wires are wide; the
   Elmore delay of every routed C1P1 tree stays within a few percent of
   the lumped CL*Td delay. *)
let test_rc_vs_lumped () =
  let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
  let ratio = Experiments.rc_vs_lumped_worst (Flow.run case.Suite.input) in
  check_bool "ratio is finite" true (Float.is_finite ratio);
  check_bool (Printf.sprintf "ratio %.3f within [1.0, 1.2]" ratio) true
    (ratio >= 1.0 && ratio <= 1.2)

let suite =
  [ Alcotest.test_case "floorplan view shape" `Quick test_floorplan_view_shape;
    Alcotest.test_case "sign-off report" `Quick test_signoff;
    Alcotest.test_case "slack profile" `Quick test_slack_profile;
    Alcotest.test_case "floorplan view with tracks" `Quick test_floorplan_view_tracks;
    Alcotest.test_case "channel view" `Quick test_channel_view;
    Alcotest.test_case "route statistics" `Quick test_route_stats;
    Alcotest.test_case "Elmore over lumped wire delay on C1P1" `Quick test_rc_vs_lumped ]

let () = Alcotest.run "report" [ ("report", suite) ]
