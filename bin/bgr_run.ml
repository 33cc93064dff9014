(* Command-line driver for the global router reproduction.

     bgr_run tables              reproduce Tables 1-3
     bgr_run route C1P1          route one case and report
     bgr_run density C1P1        Fig.-4 density charts
     bgr_run ablation a1|a3      design-choice ablations
     bgr_run stats C1            circuit statistics *)

open Cmdliner

let case_conv =
  let parse s =
    let s = String.uppercase_ascii s in
    let make circuit placement = Ok (Suite.make_case ~circuit ~placement) in
    match s with
    | "C1P1" -> make "C1" Placement.P1
    | "C1P2" -> make "C1" Placement.P2
    | "C2P1" -> make "C2" Placement.P1
    | "C2P2" -> make "C2" Placement.P2
    | "C3P1" -> make "C3" Placement.P1
    | "C3P2" -> make "C3" Placement.P2
    | "MINI" -> Ok (Suite.mini ())
    | _ -> Error (`Msg (Printf.sprintf "unknown case %s (C1P1..C3P2, MINI)" s))
  in
  let print ppf (case : Suite.case) = Format.fprintf ppf "%s" case.Suite.case_name in
  Arg.conv (parse, print)

let case_arg =
  Arg.(required & pos 0 (some case_conv) None & info [] ~docv:"CASE" ~doc:"Benchmark case, e.g. C1P1.")

let no_constraints =
  Arg.(value & flag & info [ "no-constraints"; "u" ] ~doc:"Route without timing constraints (area only).")

let domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel routing engine: 0 (default) resolves to the \
           BGR_DOMAINS environment variable or all available cores, 1 forces the sequential \
           engine.  The routing result is identical for every value.")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget for the router's improvement phases, in milliseconds.  The initial \
           routing always completes, so the output is a full (verifiable) routing either way; \
           when the budget runs out the remaining improvement phases are skipped and the report \
           says where the router stopped.")

let budget_of_deadline = function
  | None -> Budget.unlimited
  | Some ms -> Budget.make ~wall_ms:(float_of_int ms) ()

(* --- observability flags (route-file / resume / signoff) -------------- *)

type obs_opts = {
  ob_trace : string option;
  ob_jsonl : string option;
  ob_metrics : string option;
  ob_summary : bool;
  ob_flight : string option;
  ob_no_flight : bool;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.json"
          ~doc:
            "Record the run's spans and write them as a Chrome trace_event file; open it at \
             ui.perfetto.dev or chrome://tracing.  See docs/observability.md for the span \
             taxonomy.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE.jsonl"
          ~doc:"Also stream completed spans as one JSON object per line (grep/jq-friendly).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE.prom"
          ~doc:
            "After the run, dump the metrics registry (deletion counters by phase and \
             criterion, phase durations, density peaks, journal latencies, domain busy time) \
             in Prometheus text-exposition format.")
  in
  let summary =
    Arg.(
      value
      & flag
      & info [ "obs-summary" ]
          ~doc:"Print per-phase durations and the slowest trace spans after the run.")
  in
  let flight =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "flight" ] ~docv:"FILE.bgrf"
          ~doc:
            "Where to dump the black-box flight recorder on an abnormal exit (error, deadline \
             stop, SIGQUIT).  With no value it lands next to the journal ($(b,--persist) \
             DIR/flight.bgrf) or at ./flight.bgrf; without this flag, $(b,--persist) runs \
             still dump into their run directory.  Read it with $(b,bgr_analyze postmortem).")
  in
  let no_flight =
    Arg.(
      value & flag
      & info [ "no-flight" ]
          ~doc:
            "Disable the flight recorder entirely (it is on by default and costs a few \
             nanoseconds per recorded event; this switch exists for overhead measurements).")
  in
  Term.(
    const (fun t j m s f nf ->
        { ob_trace = t; ob_jsonl = j; ob_metrics = m; ob_summary = s; ob_flight = f;
          ob_no_flight = nf })
    $ trace $ jsonl $ metrics $ summary $ flight $ no_flight)

let obs_active o =
  o.ob_trace <> None || o.ob_jsonl <> None || o.ob_metrics <> None || o.ob_summary

let obs_setup o =
  if obs_active o then begin
    Obs.enable ();
    Option.iter Obs.Trace.to_chrome_file o.ob_trace;
    Option.iter Obs.Trace.to_jsonl_file o.ob_jsonl
  end

(* Observability must never fail the run: an unwritable metrics path
   degrades to a warning, exactly like a failed trace sink.  The write
   is atomic and durable (temp + fsync + rename), so a scrape target
   pointed at the file can never observe it torn or zero-length. *)
let obs_finish o =
  if obs_active o then begin
    Obs.Trace.close_sinks ();
    (match o.ob_metrics with
    | None -> ()
    | Some path -> (
      try Obs.write_file_atomic path (Obs.Metrics.render_prometheus ())
      with Sys_error msg -> Obs.warn "cannot write metrics file %s: %s" path msg));
    if o.ob_summary then begin
      Table.print (Obs_report.phase_durations ());
      Table.print (Obs_report.slowest_spans ~n:12 ())
    end;
    List.iter (fun w -> Printf.eprintf "warning: obs: %s\n%!" w) (Obs.warnings ())
  end

(* --- quality recording (route-file / resume) -------------------------- *)

let quality_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "quality-log" ] ~docv:"FILE.bgrq"
        ~doc:
          "Record solution-quality telemetry (margins, violations, channel densities, \
           deletion-criterion mix) into a CRC-framed .bgrq event log; explore it offline with \
           $(b,bgr_analyze).  Recording never changes the routing result.  With no value the \
           log is written next to the journal ($(b,--persist) DIR/quality.bgrq) or to \
           ./quality.bgrq.")

let quality_path ~persist = function
  | None -> None
  | Some "" ->
    Some
      (match persist with
      | Some dir -> Filename.concat dir Qlog.default_filename
      | None -> Qlog.default_filename)
  | Some p -> Some p

(* --- black-box flight recorder (route-file / resume) ------------------ *)

(* Where an abnormal exit dumps the flight record: an explicit
   --flight path wins; otherwise --persist runs dump into their run
   directory (a crash there is exactly what the postmortem pipeline
   exists for), and plain runs only dump when asked. *)
let flight_path ~persist o =
  if o.ob_no_flight then None
  else
    match o.ob_flight with
    | Some "" ->
      Some
        (match persist with
        | Some dir -> Filename.concat dir Flight.default_filename
        | None -> Flight.default_filename)
    | Some p -> Some p
    | None -> Option.map (fun dir -> Filename.concat dir Flight.default_filename) persist

(* Arm the recorder for one command: honour --no-flight and make
   SIGQUIT dump to the resolved path on demand. *)
let flight_setup ~persist o =
  if o.ob_no_flight then Flight.set_enabled false;
  let path = flight_path ~persist o in
  (match path with
  | Some p -> Flight.install_sigquit_dump ~path:(fun () -> p) ()
  | None -> ());
  path

(* The Bgr_error escalation path: record the failure, dump, and tell
   the operator where the black box landed. *)
let flight_on_error path (e : Bgr_error.t) =
  Flight.record Flight.k_error ~a:(Bgr_error.exit_code e.Bgr_error.code) ~b:0 ~c:0 ~d:0;
  match path with
  | None -> ()
  | Some p ->
    if Flight.dump_file ~reason:("error:" ^ Bgr_error.code_name e.Bgr_error.code) p then
      Printf.eprintf "flight record: %s (read it with bgr_analyze postmortem)\n%!" p

(* A deadline (or injected-fault) stop is an abnormal exit too, even
   though the run still reports a verifiable routing. *)
let flight_on_outcome path (m : Flow.measurement) =
  if m.Flow.m_stopped_because <> "finished" then
    match path with
    | None -> ()
    | Some p ->
      if Flight.dump_file ~trigger:4 ~reason:("stop:" ^ m.Flow.m_stopped_because) p then
        Printf.printf "flight record: %s (%s)\n" p m.Flow.m_stopped_because

(* The CLI-side quality sink: a [Qlog] writer wrapped so that any I/O
   failure degrades to a stderr warning and stops recording — telemetry
   must never fail (or alter) the run. *)
let quality_sink = function
  | None -> (None, fun () -> ())
  | Some path -> (
    (* the log may live inside a --persist run directory that the
       routing entry point has not created yet *)
    (try
       let d = Filename.dirname path in
       if not (Sys.file_exists d) then Unix.mkdir d 0o755
     with Unix.Unix_error _ -> ());
    match Qlog.create ~path with
    | exception Bgr_error.Error e ->
      Printf.eprintf "warning: quality: %s\n%!" e.Bgr_error.message;
      (None, fun () -> ())
    | w ->
      let dead = ref false in
      let emit s =
        if not !dead then
          try ignore (Qlog.append w s)
          with e ->
            dead := true;
            Qlog.close w;
            Printf.eprintf "warning: quality: recording stopped: %s\n%!"
              (match e with
              | Bgr_error.Error err -> err.Bgr_error.message
              | e -> Printexc.to_string e)
      in
      ( Some emit,
        fun () ->
          if not !dead then begin
            Qlog.close w;
            Printf.printf "quality log: %s (%d samples)\n" path (Qlog.appended w)
          end ))

let report_measurement name (m : Flow.measurement) =
  let t = Table.create ~title:(Printf.sprintf "Routing result: %s" name) ~columns:[ "metric"; "value" ] in
  let add k v = Table.add_row t [ k; v ] in
  add "critical-path delay (ps)" (Table.f1 m.Flow.m_delay_ps);
  add "lower bound (ps)" (Table.f1 m.Flow.m_lower_bound_ps);
  add "gap over bound"
    (Table.pct (Lower_bound.gap_percent ~delay_ps:m.Flow.m_delay_ps ~bound_ps:m.Flow.m_lower_bound_ps));
  add "worst margin (ps)" (Table.f1 m.Flow.m_margin_ps);
  add "violated constraints" (Table.fint m.Flow.m_violations);
  add "chip area (mm2)" (Table.f3 m.Flow.m_area_mm2);
  add "total wiring (mm)" (Table.f1 m.Flow.m_length_mm);
  add "chip width (pitches)" (Table.fint m.Flow.m_chip_width);
  add "feed-cell insertion rounds" (Table.fint m.Flow.m_insert_rounds);
  add "edge deletions" (Table.fint m.Flow.m_deletions);
  add "recognized differential pairs" (Table.fint m.Flow.m_recognized_pairs);
  add "channel doglegs" (Table.fint m.Flow.m_channel_doglegs);
  add "channel constraint breaks" (Table.fint m.Flow.m_channel_violations);
  add "CPU (s)" (Table.f2 m.Flow.m_cpu_s);
  add "router stopped because" m.Flow.m_stopped_because;
  add "worker domains" (Table.fint m.Flow.m_domains);
  add "deletion hash" (string_of_int m.Flow.m_deletion_hash);
  Table.print t;
  List.iter
    (fun w -> Printf.printf "warning: degraded scoring pool: %s\n" w)
    m.Flow.m_par_warnings

(* Shared by route-file --audit and resume: print the audit and fail
   loudly (exit 10) when invariants are broken. *)
let run_audit ?(repair = false) router =
  let a = Verify.audit ~repair ~measured_caps:true router in
  Format.printf "%a@?" Verify.pp_audit a;
  if not (Verify.audit_ok a) then exit (Bgr_error.exit_code Bgr_error.Internal)

let tables_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated values.") in
  let run csv domains =
    let emit t = if csv then print_string (Table.to_csv t) else Table.print t in
    let cases = Suite.all () in
    emit (Experiments.table1 cases);
    let runs = Experiments.run_suite ~cases ~domains () in
    let w, wo = Experiments.table2 runs in
    emit w;
    emit wo;
    emit (Experiments.table3 runs)
  in
  Cmd.v (Cmd.info "tables" ~doc:"Reproduce Tables 1-3 on the synthetic suite.")
    Term.(const run $ csv $ domains_arg)

let route_cmd =
  let run case unconstrained domains deadline =
    let options = { Router.default_options with Router.domains } in
    let outcome =
      Flow.run ~options ~timing_driven:(not unconstrained)
        ~budget:(budget_of_deadline deadline) case.Suite.input
    in
    report_measurement
      (case.Suite.case_name ^ if unconstrained then " (unconstrained)" else " (constrained)")
      outcome.Flow.o_measurement
  in
  Cmd.v (Cmd.info "route" ~doc:"Route one case end to end and report all metrics.")
    Term.(const run $ case_arg $ no_constraints $ domains_arg $ deadline_arg)

let density_cmd =
  let run case =
    let outcome = Flow.run case.Suite.input in
    let channel = Experiments.fig4_worst_channel outcome in
    print_string (Experiments.fig4 outcome ~channel)
  in
  Cmd.v (Cmd.info "density" ~doc:"Print the Fig.-4 density chart of the most congested channel.")
    Term.(const run $ case_arg)

let ablation_cmd =
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("a1", `A1);
                  ("a3", `A3);
                  ("a4", `A4);
                  ("a5", `A5);
                  ("a6", `A6);
                  ("a7", `A7);
                  ("a8", `A8) ]))
          None
      & info [] ~docv:"WHICH")
  in
  let run which =
    let case = Suite.make_case ~circuit:"C1" ~placement:Placement.P1 in
    match which with
    | `A1 -> Table.print (Experiments.ablation_a1 case)
    | `A3 -> Table.print (Experiments.ablation_a3 case)
    | `A4 -> Table.print (Experiments.ablation_a4 case)
    | `A5 -> Table.print (Experiments.ablation_a5 case)
    | `A6 -> Table.print (Experiments.ablation_a6 case)
    | `A7 -> Table.print (Experiments.ablation_a7 ())
    | `A8 -> Table.print (Experiments.ablation_a8 case)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Run a design-choice ablation (a1: ordering, a3: CL estimator, a4: delay model, a5: \
          routing scheme, a6: channel router, a7: clock pitch vs skew, a8: pin-side bias).")
    Term.(const run $ which)

let export_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output bundle path.")
  in
  let run case path =
    let input = case.Suite.input in
    let fp = Flow.floorplan_of_input input in
    Design_io.write ~floorplan:fp ~constraints:input.Flow.constraints input.Flow.netlist ~path;
    Printf.printf "wrote %s (netlist + placement + constraints)\n" path
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a benchmark case as a single-file design bundle.")
    Term.(const run $ case_arg $ path_arg)

let route_file_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Design bundle path.")
  in
  let persist_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"DIR"
          ~doc:
            "Run crash-safe: store the design and a write-ahead deletion journal in $(docv), \
             snapshotting at every phase boundary.  A killed run is continued with \
             $(b,bgr_run resume) $(docv).")
  in
  let audit_flag =
    Arg.(
      value
      & flag
      & info [ "audit" ]
          ~doc:
            "After routing, sweep the full state-invariant audit (densities, connectivity, \
             pair mirroring, timing staleness) and exit 10 if anything is broken.")
  in
  let run path unconstrained deadline persist audit obs quality =
    let result =
      match Lineio.read_all path with
      | exception Sys_error msg ->
        Error (Bgr_error.make ~file:path ~phase:"io" Bgr_error.Io_error "%s" msg)
      | text ->
        Result.bind
          (Result.bind (Design_io.of_string_result ~file:path text) Design_check.validate
          |> Result.map_error (Bgr_error.with_file path))
          (fun bundle -> Ok (text, bundle))
    in
    match result with
    | Error e ->
      prerr_endline (Bgr_error.to_string e);
      exit (Bgr_error.exit_code e.Bgr_error.code)
    | Ok (text, bundle) -> (
      obs_setup obs;
      let flight = flight_setup ~persist obs in
      let on_quality, quality_finish = quality_sink (quality_path ~persist quality) in
      match
        Lineio.protect ~file:path (fun () ->
            let input = Design_io.to_flow_input bundle in
            let timing_driven = not unconstrained in
            let budget = budget_of_deadline deadline in
            match persist with
            | None -> Flow.run ~timing_driven ~budget ?on_quality input
            | Some dir ->
              Persist.route ~timing_driven ~budget ?on_quality ~dir ~design_text:text input)
      with
      | Error e ->
        quality_finish ();
        obs_finish obs;
        flight_on_error flight e;
        prerr_endline (Bgr_error.to_string e);
        exit (Bgr_error.exit_code e.Bgr_error.code)
      | Ok outcome ->
        report_measurement (Filename.basename path) outcome.Flow.o_measurement;
        quality_finish ();
        obs_finish obs;
        flight_on_outcome flight outcome.Flow.o_measurement;
        if audit then run_audit outcome.Flow.o_router)
  in
  Cmd.v
    (Cmd.info "route-file"
       ~doc:
         "Route a design bundle written by export (or by hand).  Malformed or inconsistent \
          bundles are rejected with a file:line: message on stderr and a documented non-zero \
          exit code (2 parse, 3 validation/geometry, 4 unroutable, 5 injected fault, 6 \
          deadline, 7 I/O, 10 internal).")
    Term.(
      const run $ path_arg $ no_constraints $ deadline_arg $ persist_arg $ audit_flag
      $ obs_term $ quality_arg)

let resume_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Run directory written by route-file --persist.")
  in
  let repair_flag =
    Arg.(
      value
      & flag
      & info [ "repair" ]
          ~doc:
            "Let the audit rebuild derived state (densities, trees, timing) when it finds \
             corruption, instead of failing.")
  in
  let run dir domains deadline repair obs quality =
    obs_setup obs;
    let flight = flight_setup ~persist:(Some dir) obs in
    let on_quality, quality_finish =
      quality_sink (quality_path ~persist:(Some dir) quality)
    in
    match Persist.resume ~domains ~budget:(budget_of_deadline deadline) ?on_quality ~dir () with
    | Error e ->
      quality_finish ();
      obs_finish obs;
      flight_on_error flight e;
      prerr_endline (Bgr_error.to_string e);
      exit (Bgr_error.exit_code e.Bgr_error.code)
    | Ok r ->
      List.iter (fun w -> Printf.printf "resume: %s\n" w) r.Persist.rr_warnings;
      if r.Persist.rr_completed_at_load <> [] then
        Printf.printf "resume: phases already complete: %s\n"
          (String.concat ", " r.Persist.rr_completed_at_load);
      if r.Persist.rr_replayed > 0 then
        Printf.printf "resume: replayed %d journaled deletions\n" r.Persist.rr_replayed;
      let outcome = r.Persist.rr_outcome in
      report_measurement (Filename.basename dir ^ " (resumed)") outcome.Flow.o_measurement;
      quality_finish ();
      obs_finish obs;
      flight_on_outcome flight outcome.Flow.o_measurement;
      run_audit ~repair outcome.Flow.o_router
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume an interrupted route-file --persist run from its directory: restore the last \
          snapshot, replay the deletion journal (truncating a torn tail with a warning), \
          finish the run and audit the final state.  The result is bit-identical to an \
          uninterrupted run — compare the deletion hash rows.")
    Term.(const run $ dir_arg $ domains_arg $ deadline_arg $ repair_flag $ obs_term $ quality_arg)

let stats_cmd =
  let run case =
    let netlist = case.Suite.input.Flow.netlist in
    let s = Netlist.stats netlist in
    let t = Table.create ~title:("Circuit statistics: " ^ case.Suite.case_name) ~columns:[ "metric"; "value" ] in
    Table.add_row t [ "cells (non-feed)"; Table.fint s.Netlist.n_cells ];
    Table.add_row t [ "nets"; Table.fint s.Netlist.n_nets_total ];
    Table.add_row t [ "ports"; Table.fint (Netlist.n_ports netlist) ];
    Table.add_row t [ "constraints"; Table.fint (List.length case.Suite.input.Flow.constraints) ];
    Table.add_row t [ "differential pairs"; Table.fint s.Netlist.n_diff_pairs ];
    Table.add_row t [ "multi-pitch nets"; Table.fint s.Netlist.n_multi_pitch ];
    Table.add_row t [ "max fanout"; Table.fint s.Netlist.max_fanout ];
    Table.add_row t [ "avg fanout"; Table.f2 s.Netlist.avg_fanout ];
    Table.print t
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics of a case.") Term.(const run $ case_arg)

let timing_cmd =
  let k_arg =
    Arg.(value & opt int 3 & info [ "paths"; "k" ] ~doc:"Worst endpoints to list per constraint.")
  in
  let run case k =
    let outcome = Flow.run case.Suite.input in
    match outcome.Flow.o_sta with
    | None -> print_endline "no constraints: nothing to report"
    | Some sta ->
      let dg = Sta.delay_graph sta in
      let node_name v = Format.asprintf "%a" (Delay_graph.pp_node dg) (Delay_graph.node dg v) in
      for ci = 0 to Sta.n_constraints sta - 1 do
        let pc = Sta.constraint_ sta ci in
        Printf.printf "constraint %s: limit %.1f ps, delay %.1f ps, margin %.1f ps\n"
          pc.Path_constraint.cname pc.Path_constraint.limit_ps (Sta.critical_delay sta ci)
          (Sta.margin sta ci);
        List.iteri
          (fun i (r : Sta.endpoint_report) ->
            if i < k then begin
              Printf.printf "  %-28s slack %8.1f ps  (delay %.1f)\n" (node_name r.Sta.ep_vertex)
                r.Sta.ep_slack_ps r.Sta.ep_delay_ps;
              Printf.printf "    path:";
              List.iter (fun v -> Printf.printf " %s" (node_name v)) r.Sta.ep_path;
              print_newline ()
            end)
          (Sta.endpoint_reports sta ci)
      done;
      print_newline ();
      print_string (Slack_profile.render (Slack_profile.of_sta sta))
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"STA-style timing report of a routed case (worst endpoints and paths).")
    Term.(const run $ case_arg $ k_arg)

let view_cmd =
  let run case =
    let outcome = Flow.run case.Suite.input in
    let fp = outcome.Flow.o_floorplan in
    let m = outcome.Flow.o_measurement in
    Printf.printf "%s floorplan (north up; letters = cells, '+' = feed slots,
digits = width-flagged feeds):

"
      case.Suite.case_name;
    print_string (Layout_view.floorplan ~channel_tracks:m.Flow.m_tracks fp);
    let worst = Experiments.fig4_worst_channel outcome in
    Printf.printf "
most congested channel (%d), routed tracks top-down:

" worst;
    print_string
      (Layout_view.channel_tracks outcome.Flow.o_channels.(worst) ~width:(Floorplan.width fp));
    print_newline ();
    print_string (Route_stats.render (Route_stats.of_router outcome.Flow.o_router))
  in
  Cmd.v (Cmd.info "view" ~doc:"Render the routed layout and route-quality statistics.")
    Term.(const run $ case_arg)

let verify_cmd =
  let run case unconstrained domains =
    let options = { Router.default_options with Router.domains } in
    let outcome = Flow.run ~options ~timing_driven:(not unconstrained) case.Suite.input in
    let report = Verify.routed outcome.Flow.o_router in
    Format.printf "%a" Verify.pp report;
    if not (Verify.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Route a case and audit the result with the independent verifier.")
    Term.(const run $ case_arg $ no_constraints $ domains_arg)

let generate_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output bundle path.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let comb = Arg.(value & opt int 160 & info [ "gates" ] ~doc:"Combinational gate count.") in
  let ffs = Arg.(value & opt int 24 & info [ "ffs" ] ~doc:"Flip-flop count.") in
  let rows = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Cell rows.") in
  let pairs = Arg.(value & opt int 3 & info [ "pairs" ] ~doc:"Differential pairs.") in
  let constraints = Arg.(value & opt int 6 & info [ "constraints" ] ~doc:"Path constraints.") in
  let embed = Arg.(value & flag & info [ "embed-library" ] ~doc:"Embed the cell library.") in
  let run path seed comb ffs rows pairs n_constraints embed =
    let params =
      { Circuit_gen.default_params with
        Circuit_gen.seed = Int64.of_int seed;
        n_comb = comb;
        n_ff = ffs;
        n_diff_pairs = pairs;
        n_constraints }
    in
    let netlist, raw = Circuit_gen.generate params in
    let placed = Placement.place ~netlist ~n_rows:rows Placement.P1 in
    let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw placed in
    let constraints = Calibrate.against_reference_route ~input ~headroom:0.18 in
    let fp = Flow.floorplan_of_input input in
    Design_io.write ~embed_library:embed ~floorplan:fp ~constraints netlist ~path;
    let stats = Netlist.stats netlist in
    Printf.printf "wrote %s: %d cells, %d nets, %d constraints\n" path stats.Netlist.n_cells
      stats.Netlist.n_nets_total (List.length constraints)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic circuit, place it, calibrate constraints, write a bundle.")
    Term.(const run $ path_arg $ seed $ comb $ ffs $ rows $ pairs $ constraints $ embed)

let signoff_cmd =
  let run case unconstrained domains obs =
    obs_setup obs;
    let options = { Router.default_options with Router.domains } in
    let outcome = Flow.run ~options ~timing_driven:(not unconstrained) case.Suite.input in
    let snap = Route_stats.snapshot outcome.Flow.o_router in
    Signoff.print ~snapshot:snap outcome;
    (* --obs-summary extends the sign-off with the worst-endpoints
       table (the slack histogram's per-endpoint companion). *)
    if obs.ob_summary then
      Option.iter
        (fun sta -> Table.print (Slack_profile.worst_endpoints sta))
        outcome.Flow.o_sta;
    obs_finish obs
  in
  Cmd.v
    (Cmd.info "signoff" ~doc:"Full sign-off report: metrics, verification, quality, slacks.")
    Term.(const run $ case_arg $ no_constraints $ domains_arg $ obs_term)

let main =
  let doc = "Timing- and area-driven global router for bipolar standard-cell LSIs (DAC'94 reproduction)" in
  Cmd.group (Cmd.info "bgr_run" ~doc)
    [ tables_cmd;
      route_cmd;
      density_cmd;
      ablation_cmd;
      stats_cmd;
      export_cmd;
      route_file_cmd;
      resume_cmd;
      view_cmd;
      timing_cmd;
      generate_cmd;
      verify_cmd;
      signoff_cmd ]

let () = exit (Cmd.eval main)
