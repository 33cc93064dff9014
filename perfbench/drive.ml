(* The benchmark's view of the routing engine: seeded design generation
   and the routing flow driven phase by phase through the engine's
   public functions, with optional spans around every call.

   The phase sequence mirrors [Router.run]; the self-test compares it
   against [Flow.run] so that a phase added to, dropped from or
   reordered in [Router.run] fails a test instead of silently changing
   what the benchmark measures. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Processor time of the whole process, all domains: user + system. *)
let cpu_s = Sys.time

(* --- designs ----------------------------------------------------------- *)

(* The ROADMAP baseline recipe: [--gates N --ffs N/8 --rows N/40+4
   --constraints 8], three differential pairs, P1 placement and
   constraints calibrated against an unconstrained reference route. *)
let generate ~gates ~seed =
  let params =
    { Circuit_gen.default_params with
      Circuit_gen.seed = Int64.of_int seed;
      n_comb = gates;
      n_ff = gates / 8;
      n_diff_pairs = 3;
      n_constraints = 8 }
  in
  let netlist, raw = Circuit_gen.generate params in
  let placed = Placement.place ~netlist ~n_rows:((gates / 40) + 4) Placement.P1 in
  let input = Placement.to_flow_input ~netlist ~dims:Dims.default ~constraints:raw placed in
  let constraints = Calibrate.against_reference_route ~input ~headroom:0.18 in
  Design_io.to_string ~floorplan:(Flow.floorplan_of_input input) ~constraints netlist

let parse text =
  match Design_check.validate (Design_io.of_string text) with
  | Ok design -> Design_io.to_flow_input design
  | Error e -> failwith (Bgr_error.to_string e)

(* --- spans ------------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] at the top *)
  sp_name : string;
  sp_start : float;  (** monotonic seconds *)
  sp_stop : float;
}

type tracer = { mutable spans : span list; mutable open_ : int list; mutable next : int }

let tracer () = { spans = []; open_ = []; next = 0 }

(* [timed tr name f] runs [f] and returns its result with its wall-clock
   seconds; with a tracer it also records a span nested under the
   innermost open one. *)
let timed tr name f =
  match tr with
  | None ->
    let t0 = now_s () in
    let r = f () in
    (r, now_s () -. t0)
  | Some tr ->
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.open_ with p :: _ -> p | [] -> -1 in
    tr.open_ <- id :: tr.open_;
    let t0 = now_s () in
    let close () =
      let t1 = now_s () in
      tr.open_ <- List.tl tr.open_;
      tr.spans <-
        { sp_id = id; sp_parent = parent; sp_name = name; sp_start = t0; sp_stop = t1 }
        :: tr.spans;
      t1 -. t0
    in
    (match f () with
    | r -> (r, close ())
    | exception e ->
      ignore (close ());
      raise e)

let spans tr = List.rev tr.spans

(* --- the phase drive --------------------------------------------------- *)

type phase_stat = {
  ph_name : string;
  ph_s : float;
  ph_deletions : int;
  ph_reroutes : int;
  ph_passes : int;
  ph_ran : bool;  (** false for the final phases of a router without STA *)
}

let phase_names =
  [ "initial_route";
    "recover_violations";
    "improve_delay";
    "improve_area";
    "final_recovery";
    "final_delay" ]

let trees router =
  Array.init
    (Netlist.n_nets (Floorplan.netlist (Router.floorplan router)))
    (fun n -> List.sort Int.compare (Router.tree_edges router n))

let count_changed before after =
  let c = ref 0 in
  Array.iteri (fun n t -> if t <> after.(n) then incr c) before;
  !c

(* [Router.run]'s sequence: the initial route, the three improvement
   phases, then — only when the router has timing state — the final
   timing cleanup.  Returns the per-phase statistics and, when [tracer]
   is given, the number of nets whose tree [improve_area] changed. *)
let route ?tracer router =
  let stats = ref [] in
  let area_changed = ref 0 in
  let phase name ~runs f =
    let d0 = Router.n_deletions router in
    let (r : Router.phase_report), s =
      timed tracer ("router." ^ name) (fun () ->
          if runs then f () else { Router.reroutes = 0; passes = 0 })
    in
    stats :=
      { ph_name = name;
        ph_s = s;
        ph_deletions = Router.n_deletions router - d0;
        ph_reroutes = r.Router.reroutes;
        ph_passes = r.Router.passes;
        ph_ran = runs }
      :: !stats
  in
  let has_sta = Router.sta router <> None in
  phase "initial_route" ~runs:true (fun () ->
      Router.initial_route router;
      { Router.reroutes = 0; passes = 0 });
  phase "recover_violations" ~runs:true (fun () -> Router.recover_violations router);
  phase "improve_delay" ~runs:true (fun () -> Router.improve_delay router);
  let before = if tracer = None then [||] else trees router in
  phase "improve_area" ~runs:true (fun () -> Router.improve_area router);
  if tracer <> None then area_changed := count_changed before (trees router);
  phase "final_recovery" ~runs:has_sta (fun () -> Router.recover_violations router);
  phase "final_delay" ~runs:has_sta (fun () -> Router.improve_delay router);
  (List.rev !stats, !area_changed)

let completed stats = List.filter_map (fun p -> if p.ph_ran then Some p.ph_name else None) stats

(* A routed design: parse, prepare and the six phases. *)
type routed = {
  r_input : Flow.input;
  r_prep : Flow.prepared;
  r_router : Router.t;
  r_parse_s : float;  (** parse + validate + to_flow_input *)
  r_prepare_s : float;
  r_setup_cpu_s : float;  (** processor time of parse and prepare *)
  r_phases : phase_stat list;
  r_area_changed : int;
}

(* Parse and prepare: everything before the first deletion. *)
let setup ?tracer ~options ~timing_driven text =
  let input, parse_s = timed tracer "io.parse" (fun () -> parse text) in
  let (prep, router), prepare_s =
    timed tracer "flow.prepare" (fun () -> Flow.prepare ~options ~timing_driven input)
  in
  (input, prep, router, parse_s, prepare_s)

let routed ?tracer ~options ~timing_driven text =
  let cpu0 = cpu_s () in
  let input, prep, router, parse_s, prepare_s = setup ?tracer ~options ~timing_driven text in
  let setup_cpu_s = cpu_s () -. cpu0 in
  let phases, area_changed = route ?tracer router in
  { r_input = input;
    r_prep = prep;
    r_router = router;
    r_parse_s = parse_s;
    r_prepare_s = prepare_s;
    r_setup_cpu_s = setup_cpu_s;
    r_phases = phases;
    r_area_changed = area_changed }

let finish ?tracer r =
  let report =
    { Router.completed_phases = completed r.r_phases;
      stopped_because = Router.Finished;
      rolled_back = false }
  in
  timed tracer "flow.finish" (fun () -> Flow.finish r.r_prep r.r_router report)

type job = {
  j_routed : routed;
  j_finish_s : float;
  j_total_s : float;  (** bundle text to measurement, wall-clock *)
  j_total_cpu_s : float;  (** the same in processor time *)
  j_outcome : Flow.outcome;
}

(* One whole routing job, bundle text to [Flow.finish]. *)
let job ?tracer ~options ~timing_driven text =
  let cpu0 = cpu_s () in
  let (r, (outcome, finish_s)), total_s =
    timed tracer "job" (fun () ->
        let r = routed ?tracer ~options ~timing_driven text in
        (r, finish ?tracer r))
  in
  { j_routed = r;
    j_finish_s = finish_s;
    j_total_s = total_s;
    j_total_cpu_s = cpu_s () -. cpu0;
    j_outcome = outcome }
