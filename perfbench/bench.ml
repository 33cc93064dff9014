(* Engine-scale benchmark of the edge-deletion router.  One seeded
   workload per process:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is the JSON result; the lines
   before it name every metric with its unit, the correctness gates and
   any failure.  README.md describes the workloads and the metrics. *)

open Catalog

let now_s = Drive.now_s
let timed = Drive.timed

(* Per-reroute latency quantiles need at least ten samples beyond p99. *)
let min_stream_samples = 1000

(* Set-ups per run of the ECO workload, whose set-up is a full route. *)
let eco_setups = 2

(* Routing jobs per run of a bulk workload, at the least. *)
let min_jobs = 2

(* Extra parse + prepare set-ups before each job of a bulk workload,
   timed for [setup_s] alongside the jobs' own set-ups.  Spreading them
   over the run averages out short bursts of machine noise. *)
let setup_reps = 2

(* The traced run's layer rows must account for the job's wall-clock
   to within this share. *)
let ledger_tolerance = 0.05

let cache_dir = Filename.concat "perfbench" "_cache"
let out_dir = Filename.concat "perfbench" "_out"

(* --- results ----------------------------------------------------------- *)

let metrics : (string * Qjson.t) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics
let metric_f name v = metric name (Qjson.num v)
let metric_i name v = metric name (Qjson.int v)
let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      Printf.printf "FAIL: %s\n%!" s)
    fmt

let info fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* --- inputs ------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

(* The design for [gates], generated once and cached.  Generation
   routes a reference design to calibrate the constraints, so it runs in
   a child process: neither its time nor its heap nor its domain pool
   reaches the measured process. *)
let design ~gates =
  mkdir_p cache_dir;
  let path = Filename.concat cache_dir (Printf.sprintf "g%d-s%d.bgr" gates design_seed) in
  if not (Sys.file_exists path) then begin
    flush_all ();
    match Unix.fork () with
    | 0 ->
      let code =
        match write_file path (Drive.generate ~gates ~seed:design_seed) with
        | () -> 0
        | exception e ->
          prerr_endline ("design generation failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
    | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "design generation failed")
  end;
  read_file path

(* --- correctness gates ------------------------------------------------- *)

let n_nets router = Netlist.n_nets (Floorplan.netlist (Router.floorplan router))

let graph_edges router =
  let total = ref 0 in
  for n = 0 to n_nets router - 1 do
    total := !total + Ugraph.n_edges_total (Router.routing_graph router n).Routing_graph.graph
  done;
  !total

let sinks router n =
  List.length (Netlist.net (Floorplan.netlist (Router.floorplan router)) n).Netlist.sinks

let fingerprint (input : Flow.input) router =
  let stats = Netlist.stats input.Flow.netlist in
  let largest = ref 0 in
  for n = 0 to n_nets router - 1 do
    largest := max !largest (sinks router n)
  done;
  Printf.sprintf "cells=%d nets=%d graph_edges=%d constraints=%d largest_net_sinks=%d"
    stats.Netlist.n_cells stats.Netlist.n_nets_total (graph_edges router)
    (List.length input.Flow.constraints)
    !largest

let audit what ~measured_caps router =
  let a = Verify.audit ~measured_caps router in
  if Verify.audit_ok a then info "audit %s: OK" what
  else
    fail "audit %s: %s" what (String.concat "; " (List.map Bgr_error.to_string a.Verify.findings))

(* A finished job: stopped normally, a legal routing, a clean audit. *)
let check_outcome (o : Flow.outcome) =
  let m = o.Flow.o_measurement in
  if m.Flow.m_stopped_because <> "finished" then fail "router stopped: %s" m.Flow.m_stopped_because;
  let r = Verify.routed o.Flow.o_router in
  if not (Verify.ok r) then fail "verify: %s" (String.concat "; " r.Verify.problems);
  audit "of the final state" ~measured_caps:true o.Flow.o_router

(* Every run of a workload at one seed must route identically: the first
   run records [what] it routed (fingerprint and hash), later runs,
   traced or not, compare. *)
let check_against_earlier_runs w ~seed ~what record =
  info "%s: %s" what record;
  let path = Filename.concat cache_dir (Printf.sprintf "%s-s%d.%s" w.w_name seed what) in
  if Sys.file_exists path then begin
    let earlier = read_file path in
    if earlier <> record then fail "hash differs from an earlier run at this seed: %s" earlier
    else info "hash: identical to the earlier runs at this seed"
  end
  else write_file path record

let route_record input router =
  Printf.sprintf "%s deletion_hash=%d" (fingerprint input router) (Router.deletion_hash router)

let stream_record router = Printf.sprintf "deletion_hash=%d" (Router.deletion_hash router)

let same_hashes what hashes =
  match hashes with
  | h :: rest when List.exists (( <> ) h) rest -> fail "%s routed differently within one run" what
  | _ -> ()

(* --- the reroute stream ------------------------------------------------ *)

type stream = {
  st_latencies : float array;  (** seconds, in request order *)
  st_nets : int array;
  st_wall_s : float;
  st_cpu_s : float;  (** processor time of the whole stream *)
  st_changed : int;  (** reroutes that changed the net's tree; traced runs only *)
}

(* One closed-loop client: every net once per round, in a seeded order
   per round, each request sent when the previous one has returned.
   The round count is fixed per workload, so the routing after the
   stream — and its hash — is a function of the seed. *)
let reroute_stream ?tracer ~seed w router =
  let n = n_nets router in
  let rounds = w.w_stream_rounds in
  if rounds * n < min_stream_samples then
    fail "%d stream rounds over %d nets are fewer than %d requests" rounds n min_stream_samples;
  Gc.compact ();
  let order =
    Array.concat
      (List.init rounds (fun round ->
           let a = Array.init n Fun.id in
           let rng = Random.State.make [| seed; round |] in
           for i = n - 1 downto 1 do
             let j = Random.State.int rng (i + 1) in
             let t = a.(i) in
             a.(i) <- a.(j);
             a.(j) <- t
           done;
           a))
  in
  let lat = Array.make (Array.length order) 0.0 in
  let changed = ref 0 in
  let tree net = List.sort Int.compare (Router.tree_edges router net) in
  let cpu0 = Drive.cpu_s () in
  let (), wall_s =
    timed tracer "stream" (fun () ->
        Array.iteri
          (fun i net ->
            incr attempted;
            let before = if tracer = None then [] else tree net in
            match timed tracer "router.reroute" (fun () -> Router.reroute_net router net) with
            | (), s ->
              lat.(i) <- s;
              if tracer <> None && tree net <> before then incr changed
            | exception e -> fail "reroute of net %d: %s" net (Printexc.to_string e))
          order)
  in
  { st_latencies = lat;
    st_nets = order;
    st_wall_s = wall_s;
    st_cpu_s = Drive.cpu_s () -. cpu0;
    st_changed = !changed }

(* Latency quantiles in ms, and requests per second of reroute time. *)
let stream_rates st =
  let sorted = Array.copy st.st_latencies in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let p50 = 1e3 *. quantile sorted 0.50 and p99 = 1e3 *. quantile sorted 0.99 in
  let per_s = float_of_int n /. Array.fold_left ( +. ) 0.0 sorted in
  info "reroute stream: %d requests in %.3f s, p50 %.4f ms, p99 %.4f ms (%d beyond), %.1f reroutes/s"
    n st.st_wall_s p50 p99
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))
    per_s;
  (p50, p99, per_s)

(* The outlier probe: the slowest single reroute's net, its sinks and
   graph edges, and the share of the stream spent rerouting that net. *)
let outlier router st =
  let worst = ref 0 in
  Array.iteri (fun i s -> if s > st.st_latencies.(!worst) then worst := i) st.st_latencies;
  let net = st.st_nets.(!worst) in
  let edges = Ugraph.n_edges_total (Router.routing_graph router net).Routing_graph.graph in
  let on_net = ref 0.0 in
  Array.iteri (fun i s -> if st.st_nets.(i) = net then on_net := !on_net +. s) st.st_latencies;
  let share = !on_net /. st.st_wall_s in
  info
    "outlier: net %d (%d sinks, %d graph edges) took %.3f s in its slowest reroute; its reroutes \
     are %.1f %% of the stream"
    net (sinks router net) edges st.st_latencies.(!worst) (100.0 *. share);
  (net, st.st_latencies.(!worst), edges, share)

let report_stream_layer router st =
  let p50, p99, per_s = stream_rates st in
  metric_f "router.reroute.p50_ms" p50;
  metric_f "router.reroute.p99_ms" p99;
  metric_f "router.reroute.per_s" per_s;
  metric_f "router.reroute.changed_ratio"
    (float_of_int st.st_changed /. float_of_int (Array.length st.st_latencies));
  let net, s, edges, share = outlier router st in
  metric_f "router.reroute.outlier_s" s;
  metric_i "router.reroute.outlier_net" net;
  metric_i "router.reroute.outlier_sinks" (sinks router net);
  metric_i "router.reroute.outlier_edges" edges;
  metric_f "router.reroute.outlier_share" share

(* --- measured runs (--trace 0) ----------------------------------------- *)

let options w = { Router.default_options with Router.domains = w.w_domains }

let report_quality (m : Flow.measurement) =
  info "violations: %d" m.Flow.m_violations;
  metric_f "delay_ps" m.Flow.m_delay_ps;
  metric_f "area_mm2" m.Flow.m_area_mm2;
  metric_f "wire_mm" m.Flow.m_length_mm

let report_heap () = metric_f "peak_heap_mb" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words)

let hash_of (o : Flow.outcome) = o.Flow.o_measurement.Flow.m_deletion_hash

let attempt what f =
  incr attempted;
  Gc.compact ();
  match f () with
  | r -> Some r
  | exception e ->
    fail "%s: %s" what (Printexc.to_string e);
    None

let run_flow w ~seed ~seconds text =
  let t0 = now_s () in
  (* Only the last job stays live, so the peak heap is one job's. *)
  let last = ref None and samples = ref [] and setups = ref [] and tries = ref 0 in
  while !tries < min_jobs || now_s () -. t0 < seconds do
    incr tries;
    last := None;
    for _ = 1 to setup_reps do
      match
        attempt "set-up" (fun () ->
            let cpu0 = Drive.cpu_s () in
            ignore (Drive.setup ~options:(options w) ~timing_driven:w.w_timing_driven text);
            Drive.cpu_s () -. cpu0)
      with
      | Some s -> setups := s :: !setups
      | None -> ()
    done;
    match
      attempt "routing job" (fun () ->
          Drive.job ~options:(options w) ~timing_driven:w.w_timing_driven text)
    with
    | Some j ->
      check_outcome j.Drive.j_outcome;
      samples :=
        ( j.Drive.j_routed.Drive.r_setup_cpu_s,
          j.Drive.j_total_cpu_s,
          j.Drive.j_total_s,
          hash_of j.Drive.j_outcome )
        :: !samples;
      last := Some j
    | None -> ()
  done;
  match !last with
  | None -> ()
  | Some j ->
    let o = j.Drive.j_outcome in
    same_hashes "the routing jobs" (List.map (fun (_, _, _, h) -> h) !samples);
    info "routing jobs: %d, wall-clock median %.3f s" (List.length !samples)
      (median (List.map (fun (_, _, s, _) -> s) !samples));
    metric_f "setup_s" (median (!setups @ List.map (fun (s, _, _, _) -> s) !samples));
    metric_f "total_cpu_s" (median (List.map (fun (_, s, _, _) -> s) !samples));
    report_quality o.Flow.o_measurement;
    report_heap ();
    check_against_earlier_runs w ~seed ~what:"route"
      (route_record j.Drive.j_routed.Drive.r_input o.Flow.o_router)

(* The ECO set-up: parse, prepare and the full route.  Returns the
   routed design and the set-up's processor time. *)
let eco_setup ?tracer w text =
  attempt "ECO set-up" (fun () ->
      let cpu0 = Drive.cpu_s () in
      let r, _ =
        timed tracer "setup" (fun () ->
            Drive.routed ?tracer ~options:(options w) ~timing_driven:w.w_timing_driven text)
      in
      (r, Drive.cpu_s () -. cpu0))

let run_eco w ~seed text =
  (* Only the last set-up stays live, so the peak heap is one design's. *)
  let last = ref None and samples = ref [] in
  for _ = 1 to eco_setups do
    last := None;
    match eco_setup w text with
    | Some (r, s) ->
      samples := (s, Router.deletion_hash r.Drive.r_router) :: !samples;
      last := Some r
    | None -> ()
  done;
  match !last with
  | None -> ()
  | Some r ->
    let router = r.Drive.r_router in
    same_hashes "the ECO set-ups" (List.map snd !samples);
    metric_f "setup_s" (median (List.map fst !samples));
    check_against_earlier_runs w ~seed ~what:"route" (route_record r.Drive.r_input router);
    let st = reroute_stream ~seed w router in
    audit "after the reroute stream" ~measured_caps:false router;
    metric_f "total_cpu_s" st.st_cpu_s;
    ignore (stream_rates st);
    ignore (outlier router st);
    check_against_earlier_runs w ~seed ~what:"stream" (stream_record router);
    let o, _ = Drive.finish r in
    check_outcome o;
    report_quality o.Flow.o_measurement;
    report_heap ()

(* --- traced runs (--trace 1) ------------------------------------------- *)

let report_phases (r : Drive.routed) =
  metric_f "io.parse_s" r.Drive.r_parse_s;
  metric_f "flow.prepare_s" r.Drive.r_prepare_s;
  List.iter
    (fun (p : Drive.phase_stat) ->
      let name = "router." ^ p.Drive.ph_name in
      metric_f (name ^ "_s") p.Drive.ph_s;
      metric_i (name ^ ".deletions") p.Drive.ph_deletions;
      metric_i (name ^ ".reroutes") p.Drive.ph_reroutes;
      metric_i (name ^ ".passes") p.Drive.ph_passes;
      if p.Drive.ph_name = "initial_route" then
        metric_f "router.initial_route.deletions_per_s"
          (float_of_int p.Drive.ph_deletions /. p.Drive.ph_s);
      if p.Drive.ph_name = "improve_area" then
        metric_f "router.improve_area.useful_ratio"
          (if p.Drive.ph_reroutes = 0 then 0.0
           else float_of_int r.Drive.r_area_changed /. float_of_int p.Drive.ph_reroutes))
    r.Drive.r_phases;
  let router = r.Drive.r_router in
  metric_i "router.graph_edges" (graph_edges router);
  metric_i "par.domains" (Router.n_domains router);
  metric_i "par.warnings" (List.length (Router.pool_warnings router))

(* Ledger closure: the direct children of the [root] span must account
   for its wall-clock to within [ledger_tolerance]. *)
let close_ledger tr ~root =
  let spans = Drive.spans tr in
  match List.find_opt (fun s -> s.Drive.sp_name = root) spans with
  | None -> fail "no %s span" root
  | Some top ->
    let dur s = s.Drive.sp_stop -. s.Drive.sp_start in
    let total = dur top in
    let rows = List.filter (fun s -> s.Drive.sp_parent = top.Drive.sp_id) spans in
    info "ledger of the traced %s (%.3f s):" root total;
    List.iter
      (fun s -> info "  %-28s %10.4f s %6.2f %%" s.Drive.sp_name (dur s) (100.0 *. dur s /. total))
      rows;
    let residual = total -. List.fold_left (fun acc s -> acc +. dur s) 0.0 rows in
    info "  %-28s %10.4f s %6.2f %%" "residual" residual (100.0 *. residual /. total);
    metric_f "ledger.residual_s" residual;
    if Float.abs residual > ledger_tolerance *. total then
      fail "ledger residual %.1f %% exceeds %.0f %%" (100.0 *. residual /. total)
        (100.0 *. ledger_tolerance)

(* Busy and self time per span name; self time is a span's duration less
   the part its child spans cover. *)
let print_self_times tr =
  let spans = Drive.spans tr in
  let dur s = s.Drive.sp_stop -. s.Drive.sp_start in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_time s.Drive.sp_parent) ~default:0.0 in
      Hashtbl.replace child_time s.Drive.sp_parent (prev +. dur s))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child_time s.Drive.sp_id) ~default:0.0 in
      let n, busy, self' = Option.value (Hashtbl.find_opt by_name s.Drive.sp_name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace by_name s.Drive.sp_name (n + 1, busy +. dur s, self' +. self))
    spans;
  info "spans by self time:";
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)
  |> List.iter (fun (name, (n, busy, self)) ->
         info "  %-28s %6d calls %10.4f s busy %10.4f s self" name n busy self)

let write_spans w ~seed tr =
  mkdir_p out_dir;
  let spans = Drive.spans tr in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.Drive.sp_start) infinity spans in
  let json =
    Qjson.Arr
      (List.map
         (fun s ->
           Qjson.Obj
             [ ("id", Qjson.int s.Drive.sp_id);
               ("parent", Qjson.int s.Drive.sp_parent);
               ("name", Qjson.Str s.Drive.sp_name);
               ("start_s", Qjson.num (s.Drive.sp_start -. t0));
               ("end_s", Qjson.num (s.Drive.sp_stop -. t0)) ])
         spans)
  in
  let path = Filename.concat out_dir (Printf.sprintf "%s-s%d.spans.json" w.w_name seed) in
  write_file path (Qjson.to_string json ^ "\n");
  info "spans: %s (%d)" path (List.length spans)

let channel_segments router ~channel =
  List.map
    (fun (cn : Router.chan_net) ->
      { Channel_router.seg_net = cn.Router.cn_net;
        seg_lo = cn.Router.cn_lo;
        seg_hi = cn.Router.cn_hi;
        seg_pins =
          List.map
            (fun (p : Router.chan_pin) ->
              { Channel_router.pin_x = p.Router.cp_x; pin_from_top = p.Router.cp_from_top })
            cn.Router.cn_pins;
        seg_width = cn.Router.cn_pitch })
    (Router.channel_nets router ~channel)

(* Channel routing of the finished state, channel by channel; the
   replicate must give the flow's track counts. *)
let replicate_channels (o : Flow.outcome) =
  let router = o.Flow.o_router in
  let times =
    Array.init (Floorplan.n_channels (Router.floorplan router)) (fun channel ->
        let r, s = timed None "" (fun () -> Channel_router.route (channel_segments router ~channel)) in
        let flow = o.Flow.o_channels.(channel).Channel_router.tracks in
        if r.Channel_router.tracks <> flow then
          fail "channel %d: the replicate routed %d tracks, the flow %d" channel
            r.Channel_router.tracks flow;
        s)
  in
  metric_f "channel.route_s" (Array.fold_left ( +. ) 0.0 times);
  metric_f "channel.max_channel_ms" (1e3 *. Array.fold_left Float.max 0.0 times)

(* [Flow.prepare] step by step, then the graph and timing kernels on the
   fresh router.  Runs after the measured flow so that it cannot perturb
   it; the replicate must build the flow's routing graphs. *)
let replicate_prepare w text ~graph_edges_expected =
  let input = Drive.parse text in
  let netlist = input.Flow.netlist and constraints = input.Flow.constraints in
  let fp0 = Flow.floorplan_of_input input in
  let dg = Delay_graph.build netlist in
  let order =
    if w.w_timing_driven && constraints <> [] then Sta.static_net_order dg constraints
    else List.init (Netlist.n_nets netlist) Fun.id
  in
  let (fp, assignment, _), feed_s =
    timed None "" (fun () -> Feed_insert.assign_with_insertion fp0 ~order)
  in
  let sta = Sta.create dg constraints in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let router, create_s =
    timed None "" (fun () ->
        Router.create ~options:(options w) fp assignment
          (if w.w_timing_driven then Some sta else None))
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  metric_f "layout.feed_insert_s" feed_s;
  metric_f "router.create_s" create_s;
  metric_f "router.state_mb" (mb_of_words (live1 - live0));
  if graph_edges router <> graph_edges_expected then
    fail "replicated prepare built %d graph edges, the flow %d" (graph_edges router)
      graph_edges_expected;
  (* The largest constrained net: the rescoring hot spot. *)
  let net = ref (-1) in
  for n = 0 to n_nets router - 1 do
    if Sta.constraints_of_net sta n <> [] && (!net < 0 || sinks router n > sinks router !net) then
      net := n
  done;
  (match !net with
  | -1 -> fail "no constrained net"
  | net -> (
    let rg = Router.routing_graph router net in
    match Routing_graph.tentative_tree rg with
    | None -> fail "net %d has no tentative tree" net
    | Some tree ->
      let times =
        List.map
          (fun e ->
            snd (timed None "" (fun () -> ignore (Routing_graph.tentative_tree ~exclude_edge:e rg))))
          tree
      in
      info "graph: largest constrained net %d (%d sinks, %d tree edges)" net (sinks router net)
        (List.length tree);
      metric_f "graph.cl_without_us" (1e6 *. median times);
      metric_i "graph.cl_without_per_rescore" (List.length tree)));
  let refresh = List.init 5 (fun _ -> snd (timed None "" (fun () -> Sta.refresh sta))) in
  metric_f "timing.sta_refresh_ms" (1e3 *. median refresh);
  let per_net =
    List.init (n_nets router) (fun n -> snd (timed None "" (fun () -> Sta.refresh_for_nets sta [ n ])))
  in
  metric_f "timing.refresh_for_net_us" (1e6 *. median per_net)

(* Returns the flow's graph-edge count for the replicate. *)
let traced_flow w ~seed text =
  let job ?tracer what =
    attempt what (fun () ->
        Drive.job ?tracer ~options:(options w) ~timing_driven:w.w_timing_driven text)
  in
  let untraced = job "untraced routing job" in
  let tr = Drive.tracer () in
  match (untraced, job ~tracer:tr "traced routing job") with
  | Some u, Some j ->
    let o = j.Drive.j_outcome in
    let router = o.Flow.o_router in
    check_outcome o;
    same_hashes "the untraced and traced jobs" [ hash_of u.Drive.j_outcome; hash_of o ];
    report_phases j.Drive.j_routed;
    metric_f "flow.finish_s" j.Drive.j_finish_s;
    metric_i "quality.violations" o.Flow.o_measurement.Flow.m_violations;
    close_ledger tr ~root:"job";
    let overhead = j.Drive.j_total_s -. u.Drive.j_total_s in
    info "tracing overhead: %.4f s (%.2f %% of the untraced %.3f s)" overhead
      (100.0 *. overhead /. u.Drive.j_total_s)
      u.Drive.j_total_s;
    metric_f "trace.overhead_s" overhead;
    metric_f "wall.total_s" u.Drive.j_total_s;
    replicate_channels o;
    check_against_earlier_runs w ~seed ~what:"route"
      (route_record j.Drive.j_routed.Drive.r_input router);
    let edges = graph_edges router in
    let st = reroute_stream ~tracer:tr ~seed w router in
    audit "after the reroute stream" ~measured_caps:true router;
    report_stream_layer router st;
    check_against_earlier_runs w ~seed ~what:"stream" (stream_record router);
    print_self_times tr;
    write_spans w ~seed tr;
    Some edges
  | _ -> None

let traced_eco w ~seed text =
  let untraced =
    Option.map (fun (r, _) -> reroute_stream ~seed w r.Drive.r_router) (eco_setup w text)
  in
  let tr = Drive.tracer () in
  match (untraced, eco_setup ~tracer:tr w text) with
  | Some u, Some (r, _) ->
    let router = r.Drive.r_router in
    check_against_earlier_runs w ~seed ~what:"route" (route_record r.Drive.r_input router);
    let edges = graph_edges router in
    report_phases r;
    close_ledger tr ~root:"setup";
    let st = reroute_stream ~tracer:tr ~seed w router in
    audit "after the reroute stream" ~measured_caps:false router;
    report_stream_layer router st;
    check_against_earlier_runs w ~seed ~what:"stream" (stream_record router);
    let overhead = st.st_wall_s -. u.st_wall_s in
    info "tracing overhead: %.4f s (%.2f %% of the untraced stream's %.3f s)" overhead
      (100.0 *. overhead /. u.st_wall_s)
      u.st_wall_s;
    metric_f "trace.overhead_s" overhead;
    metric_f "wall.total_s" u.st_wall_s;
    let o, finish_s = Drive.finish ~tracer:tr r in
    check_outcome o;
    metric_f "flow.finish_s" finish_s;
    metric_i "quality.violations" o.Flow.o_measurement.Flow.m_violations;
    replicate_channels o;
    print_self_times tr;
    write_spans w ~seed tr;
    Some edges
  | _ -> None

(* --- main -------------------------------------------------------------- *)

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "; " ^ usage);
      exit 2
  in
  let seed =
    match !seed with
    | Some s -> s
    | None ->
      prerr_endline usage;
      exit 2
  in
  let expected =
    match !trace with
    | 0 -> end_to_end
    | 1 -> per_layer
    | _ ->
      prerr_endline usage;
      exit 2
  in
  info "workload %s, seed %d, %d domain(s), %s" w.w_name seed w.w_domains
    (if w.w_timing_driven then "timing-driven" else "unconstrained");
  let text = design ~gates:w.w_gates in
  (try
     match (!trace, w.w_kind) with
     | 0, Bulk -> run_flow w ~seed ~seconds:(float_of_int !seconds) text
     | 0, Eco -> run_eco w ~seed text
     | _, kind -> (
       let traced = match kind with Bulk -> traced_flow | Eco -> traced_eco in
       match traced w ~seed text with
       | Some edges -> replicate_prepare w text ~graph_edges_expected:edges
       | None -> ())
   with e -> fail "%s" (Printexc.to_string e));
  let emitted = List.rev !metrics in
  List.iter
    (fun (name, unit, _) ->
      match List.assoc_opt name emitted with
      | Some v -> info "%-40s %s %s" name (Qjson.to_string v) unit
      | None -> ())
    expected;
  info "fail_ratio: %d/%d" !failed !attempted;
  let missing = List.filter (fun (name, _, _) -> not (List.mem_assoc name emitted)) expected in
  if missing <> [] then begin
    prerr_endline
      ("no result: missing " ^ String.concat ", " (List.map (fun (n, _, _) -> n) missing));
    exit 1
  end;
  let result =
    Qjson.Obj
      [ ("correct", Qjson.Bool (!failed = 0));
        ("attempted", Qjson.int !attempted);
        ("failed", Qjson.int !failed);
        ( "metrics",
          Qjson.Obj
            (List.map
               (fun (name, unit, _) ->
                 (name, Qjson.Obj [ ("value", List.assoc name emitted); ("unit", Qjson.Str unit) ]))
               expected) ) ]
  in
  print_endline (Qjson.to_string result)
