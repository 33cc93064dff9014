type cl_estimator = Tentative_tree | Star_bbox
type delay_model = Lumped_c | Elmore_rc

type options = {
  cl_estimator : cl_estimator;
  delay_model : delay_model;
  area_first_ordering : bool;
  max_recover_passes : int;
  max_delay_passes : int;
  max_area_passes : int;
  domains : int;
}

let default_options =
  { cl_estimator = Tentative_tree;
    delay_model = Lumped_c;
    area_first_ordering = false;
    max_recover_passes = 4;
    max_delay_passes = 3;
    max_area_passes = 3;
    domains = 0 }

type phase_report = { reroutes : int; passes : int }

(* Per-edge lazily refreshed heuristic values.  Each group carries the
   revision(s) it was computed at. *)
type eval = {
  mutable ev_cl_rev : int;
  mutable ev_cl_without : float;
  mutable ev_key_sta_rev : int;
  mutable ev_key_net_rev : int;
  mutable ev_cd : int;
  mutable ev_gl : float;
  mutable ev_ld : float;
  mutable ev_lm_min : float;
      (* Worst local margin LM(e,P) across the net's constraints,
         computed alongside ev_cd/ev_gl/ev_ld.  Deterministic and never
         read by any comparator — it only feeds the local-margin
         histogram at commit time. *)
  mutable ev_dens_rev : int;
  mutable ev_d_max : int;
  mutable ev_nd_max : int;
  mutable ev_d_min : int;
  mutable ev_nd_min : int;
}

let fresh_eval () =
  { ev_cl_rev = -1;
    ev_cl_without = 0.0;
    ev_key_sta_rev = -1;
    ev_key_net_rev = -1;
    ev_cd = 0;
    ev_gl = 0.0;
    ev_ld = 0.0;
    ev_lm_min = infinity;
    ev_dens_rev = -1;
    ev_d_max = 0;
    ev_nd_max = 0;
    ev_d_min = 0;
    ev_nd_min = 0 }

(* A checkpoint is each net's live candidate-graph edge set plus the
   deletion counters; edge ids are stable because init_net_state
   rebuilds a net's graph deterministically. *)
type checkpoint = { ck_deletions : int; ck_del_hash : int; ck_live : int list array }

(* One committed primary deletion, as observed by the write-ahead
   journal hook *before* the cascade runs: the counters are the state
   the deletion starts from, so a replay can verify the chain. *)
type deletion_commit = {
  dc_phase : string;
  dc_area_mode : bool;
  dc_net : int;
  dc_edge : int;
  dc_deletions_before : int;
  dc_hash_before : int;
}

(* Solution-quality telemetry (lib/analyze).  A sample is a snapshot of
   the quality state — margins, violations, per-channel density, the
   winning-criterion mix since the previous sample — emitted through
   the orchestrator-installed quality hook at a bounded cadence, at the
   end of every improvement pass, and at every phase boundary. *)
type quality_kind = Q_cadence | Q_pass | Q_phase

type quality_sample = {
  qs_kind : quality_kind;
  qs_phase : string;
  qs_pass : int;
  qs_deletions : int;
      (* n_deletions at sample time — correlates with the journal's
         deletions_before chain *)
  qs_worst_margin_ps : float;  (* nan without timing state *)
  qs_worst_constraint : int;  (* -1 when none *)
  qs_total_negative_ps : float;
  qs_violations : int;
  qs_ep_slack_min_ps : float;  (* endpoint-slack extremes; nan without sinks *)
  qs_ep_slack_max_ps : float;
  qs_density : int array;  (* C_M per channel *)
  qs_criteria : (string * int) list;
      (* deletions since the previous sample, by winning criterion *)
  qs_margins : float array;  (* per-constraint margins; Q_phase only *)
}

type net_state = {
  mutable rg : Routing_graph.t;
  mutable bridge : bool array;
  mutable candidates : int list;
  mutable tree : int list;
  mutable tree_set : bool array;
  mutable cl_ff : float;
  mutable rev : int;
  mutable evals : eval array;
  mutable partner_map : int array;  (* -1 entries; [||] when not mirrored *)
}

type t = {
  fp : Floorplan.t;
  assignment : Feedthrough.assignment;
  sta : Sta.t option;
  dens : Density.t;
  mutable nets : net_state array;
  opts : options;
  hpwl_cap : float array;
  mutable jog_um : float array;
      (* Expected in-channel vertical jog per connection point, per
         channel.  The global router cannot see detailed track
         positions, but the delay measured after channel routing
         includes every pin's descent to its track; pricing that
         surcharge into CL(n) keeps the margins the selection
         heuristics work with commensurate with the final metrology. *)
  mutable deletions : int;
  mutable del_hash : int;
      (* Running hash of the (net, edge) deletion sequence, cascades
         included — the equivalence tests' fingerprint that parallel
         scoring leaves the algorithm bit-for-bit unchanged. *)
  mutable area_mode : bool;
  par : Par.t option;  (* None: strictly sequential scoring *)
  mutable cur_phase : string;  (* phase tag stamped on journaled deletions *)
  mutable on_commit : (deletion_commit -> unit) option;
  mutable on_checkpoint : (phase:string -> completed:string list -> checkpoint -> unit) option;
  mutable on_quality : (quality_sample -> unit) option;
  q_crit : (string, int) Hashtbl.t;
      (* committed deletions since the last quality sample, by winning
         criterion — drained into each sample's qs_criteria *)
  mutable q_unsampled : int;  (* committed deletions since the last sample *)
}

let floorplan t = t.fp
let assignment t = t.assignment
let sta t = t.sta
let density t = t.dens
let options t = t.opts
let n_deletions t = t.deletions
let deletion_hash t = t.del_hash
let n_domains t = match t.par with None -> 1 | Some pool -> Par.domains pool
let pool_warnings t = match t.par with None -> [] | Some pool -> Par.warnings pool
let set_commit_hook t hook = t.on_commit <- hook
let set_checkpoint_hook t hook = t.on_checkpoint <- hook

let set_quality_hook t hook =
  t.on_quality <- hook;
  Hashtbl.reset t.q_crit;
  t.q_unsampled <- 0

let n_recognized_pairs t =
  Array.fold_left (fun acc ns -> if Array.length ns.partner_map > 0 then acc + 1 else acc) 0 t.nets
  / 2
let set_area_mode t flag = t.area_mode <- flag

(* --- observability (read-only; must never steer a routing decision) -- *)

let m_deletions =
  Obs.Metrics.counter "bgr_deletions_total" ~labels:[ "criterion"; "phase" ]
    ~help:
      "Committed primary deletions by routing phase and by the selection criterion that \
       separated the winner from the runner-up"

let m_cascade =
  Obs.Metrics.counter "bgr_cascade_deletions_total" ~labels:[ "phase" ]
    ~help:"Secondary deletions (dangling prunes, mirrored partner) per primary deletion"

let m_bridge_rej =
  Obs.Metrics.counter "bgr_bridge_rejections_total"
    ~help:"Mirrored-pair candidates rejected because the partner image was dead or a bridge"

let m_rollbacks =
  Obs.Metrics.counter "bgr_rollbacks_total"
    ~help:"Checkpoint rollbacks after a deadline or an injected fault"

let m_phase_dur =
  Obs.Metrics.gauge "bgr_phase_duration_seconds" ~labels:[ "phase" ]
    ~help:"Wall seconds of the most recent execution of each phase"

let m_phase_total =
  Obs.Metrics.counter "bgr_phase_seconds_total" ~labels:[ "phase" ]
    ~help:"Cumulative wall seconds per phase across runs"

let m_headroom =
  Obs.Metrics.gauge "bgr_budget_headroom_ms"
    ~help:"Remaining deadline budget in milliseconds at the last guard check"

let m_batch =
  Obs.Metrics.histogram "bgr_scoring_batch_seconds"
    ~help:"Latency of one candidate-scoring + selection batch (warm caches + best scan)"

let m_lm =
  Obs.Metrics.histogram "bgr_local_margin_ps"
    ~buckets:[| -1000.; -300.; -100.; -30.; -10.; 0.; 10.; 30.; 100.; 300.; 1000.; 3000. |]
    ~help:
      "Worst local margin LM(e,P) in picoseconds of each committed deletion (negative = \
       constraint-violating at selection time)"

(* Hot-path records are dropped on pool workers (the parallel suite
   runner routes whole cases inside workers); this is the single gate. *)
let observing () = Obs.enabled () && not (Par.in_worker ())

(* Free-form progress lines, recorded as "router.log" trace instants. *)
let trace fmt =
  if observing () then
    Format.kasprintf
      (fun s -> Obs.Trace.instant "router.log" ~attrs:[ ("msg", Obs.Trace.Str s) ])
      fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* --- solution-quality telemetry -------------------------------------- *)

(* Quality recording is hook-driven (no global flag): the orchestrator
   installs the hook, workers never emit.  Everything a sample reads is
   a warm-cache or O(channels + sinks) aggregate — building one must
   never steer a routing decision or change the deletion sequence. *)
let quality_on t = t.on_quality <> None && not (Par.in_worker ())

(* Committed primary deletions between cadence samples.  Low enough to
   resolve the initial-route convergence curve, high enough that a
   sample costs a vanishing fraction of a selection round. *)
let quality_cadence = 64

let build_quality_sample ?sta_override t ~kind ~phase ~pass ~drain =
  let density =
    Array.init (Density.n_channels t.dens) (fun channel -> Density.cM t.dens ~channel)
  in
  let sta = match sta_override with Some _ -> sta_override | None -> t.sta in
  let worst_margin, worst_ci, total_negative, violations, ep_min, ep_max, margins =
    match sta with
    | None -> (nan, -1, 0.0, 0, nan, nan, [||])
    | Some sta ->
      let margins = Sta.margins sta in
      let worst_ci = ref (-1) and worst = ref infinity in
      let total = ref 0.0 and viol = ref 0 in
      Array.iteri
        (fun ci m ->
          if m < !worst then begin
            worst := m;
            worst_ci := ci
          end;
          if m < 0.0 then begin
            total := !total +. m;
            incr viol
          end)
        margins;
      let ep_min, ep_max =
        match Sta.endpoint_slack_extremes sta with
        | Some (lo, hi) -> (lo, hi)
        | None -> (nan, nan)
      in
      ( (if Array.length margins = 0 then nan else !worst),
        !worst_ci,
        !total,
        !viol,
        ep_min,
        ep_max,
        (* Per-constraint margins only on phase records: they feed the
           slack waterfall, and per-cadence copies would bloat the log. *)
        (match kind with Q_phase -> margins | Q_cadence | Q_pass -> [||]) )
  in
  let criteria =
    if drain then begin
      let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.q_crit [] in
      Hashtbl.reset t.q_crit;
      t.q_unsampled <- 0;
      List.sort compare l
    end
    else []
  in
  { qs_kind = kind;
    qs_phase = phase;
    qs_pass = pass;
    qs_deletions = t.deletions;
    qs_worst_margin_ps = worst_margin;
    qs_worst_constraint = worst_ci;
    qs_total_negative_ps = total_negative;
    qs_violations = violations;
    qs_ep_slack_min_ps = ep_min;
    qs_ep_slack_max_ps = ep_max;
    qs_density = density;
    qs_criteria = criteria;
    qs_margins = margins }

(* Public probe for the orchestrator (Flow emits a final post-metrology
   sample through it).  Does not drain the criterion counts. *)
let sample_quality ?sta t ~phase =
  build_quality_sample ?sta_override:sta t ~kind:Q_phase ~phase ~pass:0 ~drain:false

(* A raising hook degrades to a warning and is disabled, like an Obs
   sink: quality telemetry must never fail (or alter) the run. *)
let emit_quality t ~kind ~phase ~pass =
  (* Pass boundaries reach the flight recorder even when no quality
     hook is installed: the black box must not depend on telemetry
     being asked for. *)
  (match kind with
  | Q_pass ->
    Flight.record Flight.k_pass ~a:(Flight.phase_code phase) ~b:pass ~c:0 ~d:t.deletions
  | Q_cadence | Q_phase -> ());
  match t.on_quality with
  | None -> ()
  | Some _ when Par.in_worker () -> ()
  | Some hook -> (
    let s = build_quality_sample t ~kind ~phase ~pass ~drain:true in
    try hook s
    with e ->
      t.on_quality <- None;
      Obs.warn "quality hook failed and was disabled: %s"
        (match e with
        | Bgr_error.Error err -> err.Bgr_error.message
        | Sys_error m -> m
        | e -> Printexc.to_string e))

(* Per-committed-deletion bookkeeping: count the winning criterion and
   emit a cadence sample every [quality_cadence] commits. *)
let note_quality_deletion t crit =
  Hashtbl.replace t.q_crit crit
    (1 + Option.value (Hashtbl.find_opt t.q_crit crit) ~default:0);
  t.q_unsampled <- t.q_unsampled + 1;
  if t.q_unsampled >= quality_cadence then
    emit_quality t ~kind:Q_cadence ~phase:t.cur_phase ~pass:0

(* --- density bookkeeping ------------------------------------------- *)

let register_edge_density t ns (e : Ugraph.edge) =
  match Routing_graph.edge_kind ns.rg e.Ugraph.id with
  | Routing_graph.Trunk { channel; span } ->
    Density.add_trunk t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch
      ~bridge:ns.bridge.(e.Ugraph.id)
  | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()

let unregister_edge_density t ns (e : Ugraph.edge) =
  match Routing_graph.edge_kind ns.rg e.Ugraph.id with
  | Routing_graph.Trunk { channel; span } ->
    Density.remove_trunk t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch
      ~bridge:ns.bridge.(e.Ugraph.id)
  | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()

let register_net_density t ns = Ugraph.iter_edges ns.rg.Routing_graph.graph (register_edge_density t ns)
let unregister_net_density t ns = Ugraph.iter_edges ns.rg.Routing_graph.graph (unregister_edge_density t ns)

(* Recompute the bridge set; reflect status flips of live trunks in the
   d_m chart and refresh the candidate list. *)
let refresh_bridges t ns =
  let g = ns.rg.Routing_graph.graph in
  let nb = Bridges.bridges g in
  Ugraph.iter_edges g (fun e ->
      let id = e.Ugraph.id in
      if nb.(id) <> ns.bridge.(id) then begin
        match Routing_graph.edge_kind ns.rg id with
        | Routing_graph.Trunk { channel; span } ->
          Density.set_bridge t.dens ~channel ~span ~w:ns.rg.Routing_graph.pitch nb.(id)
        | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ()
      end);
  ns.bridge <- nb;
  ns.candidates <-
    List.rev
      (Ugraph.fold_edges g
         (fun acc (e : Ugraph.edge) -> if nb.(e.Ugraph.id) then acc else e.Ugraph.id :: acc)
         [])

(* --- wire-length estimation ---------------------------------------- *)

let hpwl_cap_of_net fp net_id =
  let dims = Floorplan.dims fp in
  let net = Netlist.net (Floorplan.netlist fp) net_id in
  let bbox = Floorplan.net_bbox fp net_id in
  let um = Dims.h_um dims (Rect.width bbox) +. Dims.v_um dims ~rows:(Rect.height bbox) in
  um *. Dims.cap_per_um_at dims ~width:(float_of_int net.Netlist.pitch)

let current_cl t ns =
  match t.opts.cl_estimator with
  | Tentative_tree -> Routing_graph.tree_capacitance ns.rg ~edge_ids:ns.tree
  | Star_bbox -> t.hpwl_cap.(ns.rg.Routing_graph.net_id)

(* Push the net's wiring delay into the timing state under the chosen
   delay model. *)
let apply_net_timing t ns =
  match t.sta with
  | None -> ()
  | Some sta ->
    let net = ns.rg.Routing_graph.net_id in
    let dg = Sta.delay_graph sta in
    (match t.opts.delay_model with
    | Lumped_c -> Delay_graph.set_net_cap dg ~net ~cap_ff:ns.cl_ff
    | Elmore_rc ->
      let netlist = Floorplan.netlist t.fp in
      let r = Elmore.analyze ~dims:(Floorplan.dims t.fp) ~netlist ~rg:ns.rg ~tree:ns.tree () in
      let lookup = Hashtbl.create 8 in
      List.iter (fun (ep, ps) -> Hashtbl.replace lookup ep ps) r.Elmore.delay_ps;
      Delay_graph.set_net_sink_delays dg ~net ~delay_of:(fun ep ->
          Option.value (Hashtbl.find_opt lookup ep) ~default:0.0));
    Sta.refresh_for_nets sta [ net ]

let refresh_tree t ns =
  match Routing_graph.tentative_tree ns.rg with
  | None ->
    raise
      (Routing_graph.Unroutable
         (Printf.sprintf "net %d lost terminal connectivity" ns.rg.Routing_graph.net_id))
  | Some edges ->
    ns.tree <- edges;
    let set = Array.make (Ugraph.n_edges_total ns.rg.Routing_graph.graph) false in
    List.iter (fun e -> set.(e) <- true) edges;
    ns.tree_set <- set;
    let cl = current_cl t ns in
    (* Under the lumped model an unchanged CL means unchanged weights;
       under Elmore the per-sink split can shift even then, so any tree
       refresh re-applies. *)
    if cl <> ns.cl_ff || t.opts.delay_model = Elmore_rc then begin
      ns.cl_ff <- cl;
      apply_net_timing t ns
    end

(* --- per-edge heuristic values -------------------------------------- *)

let ensure_eval ns eid =
  if eid >= Array.length ns.evals then begin
    let bigger = Array.init (max 8 (2 * (eid + 1))) (fun _ -> fresh_eval ()) in
    Array.blit ns.evals 0 bigger 0 (Array.length ns.evals);
    ns.evals <- bigger
  end;
  ns.evals.(eid)

let cl_without t ns eid =
  let ev = ensure_eval ns eid in
  if ev.ev_cl_rev <> ns.rev then begin
    ev.ev_cl_rev <- ns.rev;
    ev.ev_cl_without <-
      (if not (eid < Array.length ns.tree_set && ns.tree_set.(eid)) then ns.cl_ff
       else begin
         match t.opts.cl_estimator with
         | Star_bbox -> ns.cl_ff
         | Tentative_tree -> (
           match Routing_graph.tentative_tree ~exclude_edge:eid ns.rg with
           | Some edges -> Routing_graph.tree_capacitance ns.rg ~edge_ids:edges
           | None -> infinity (* cannot happen for non-bridge edges *))
       end)
  end;
  ev.ev_cl_without

(* Penalty function of Eq. 4; the exponent is clamped against overflow
   on grossly violated constraints. *)
let penalty x limit =
  if x >= 0.0 then 1.0 -. (x /. limit) else exp (Float.min 50.0 (-.x /. limit))

let delay_key t ns eid =
  let ev = ensure_eval ns eid in
  let sta_rev = match t.sta with None -> 0 | Some sta -> Sta.timing_revision sta in
  if ev.ev_key_sta_rev <> sta_rev || ev.ev_key_net_rev <> ns.rev then begin
    ev.ev_key_sta_rev <- sta_rev;
    ev.ev_key_net_rev <- ns.rev;
    match t.sta with
    | None ->
      ev.ev_cd <- 0;
      ev.ev_gl <- 0.0;
      ev.ev_ld <- 0.0;
      ev.ev_lm_min <- infinity
    | Some sta ->
      let net = ns.rg.Routing_graph.net_id in
      let cons = Sta.constraints_of_net sta net in
      if cons = [] then begin
        ev.ev_cd <- 0;
        ev.ev_gl <- 0.0;
        ev.ev_ld <- 0.0;
        ev.ev_lm_min <- infinity
      end
      else begin
        let dg = Sta.delay_graph sta in
        let dag = Delay_graph.dag dg in
        let td = Delay_graph.driver_td dg net in
        let dcl = cl_without t ns eid -. ns.cl_ff in
        let cd = ref 0 and gl = ref 0.0 and ld = ref 0.0 and lm_min = ref infinity in
        let on_constraint ci =
          let pc = Sta.constraint_ sta ci in
          let m = Sta.margin sta ci in
          let lp = Sta.arrival sta ci in
          let worst = ref 0.0 in
          let on_edge de =
            let v, w = Dag.endpoints dag de in
            if lp.(v) > neg_infinity && lp.(w) > neg_infinity then begin
              let d' = Dag.weight dag de +. (dcl *. td) in
              let diff = lp.(v) +. d' -. lp.(w) in
              if diff > !worst then worst := diff;
              ld := !ld +. Float.max 0.0 (dcl *. td)
            end
          in
          List.iter on_edge (Sta.gd_edges_of_net sta ~ci ~net);
          let lm = m -. !worst in
          if lm < !lm_min then lm_min := lm;
          if lm <= 0.0 then incr cd;
          gl := !gl +. penalty lm pc.Path_constraint.limit_ps -. penalty m pc.Path_constraint.limit_ps
        in
        List.iter on_constraint cons;
        ev.ev_cd <- !cd;
        ev.ev_gl <- !gl;
        ev.ev_ld <- !ld;
        ev.ev_lm_min <- !lm_min
      end
  end;
  ev

let density_params t ns eid =
  let ev = ensure_eval ns eid in
  let channel, span = Routing_graph.density_locus ns.rg eid in
  let rev = Density.revision t.dens ~channel in
  if ev.ev_dens_rev <> rev then begin
    ev.ev_dens_rev <- rev;
    let d_max, nd_max, d_min, nd_min = Density.edge_params t.dens ~channel ~span in
    ev.ev_d_max <- d_max;
    ev.ev_nd_max <- nd_max;
    ev.ev_d_min <- d_min;
    ev.ev_nd_min <- nd_min
  end;
  (channel, ev)

(* --- candidate comparison (Sec. 3.4) -------------------------------- *)

let float_cmp a b =
  let eps = 1e-9 in
  if a < b -. eps then -1 else if a > b +. eps then 1 else 0

let compare_delay t (n1, e1) (n2, e2) =
  let k1 = delay_key t t.nets.(n1) e1 and k2 = delay_key t t.nets.(n2) e2 in
  let c = Int.compare k1.ev_cd k2.ev_cd in
  if c <> 0 then c
  else begin
    let c = float_cmp k1.ev_gl k2.ev_gl in
    if c <> 0 then c else float_cmp k1.ev_ld k2.ev_ld
  end

let compare_cd_only t (n1, e1) (n2, e2) =
  let k1 = delay_key t t.nets.(n1) e1 and k2 = delay_key t t.nets.(n2) e2 in
  Int.compare k1.ev_cd k2.ev_cd

let compare_gl_ld t (n1, e1) (n2, e2) =
  let k1 = delay_key t t.nets.(n1) e1 and k2 = delay_key t t.nets.(n2) e2 in
  let c = float_cmp k1.ev_gl k2.ev_gl in
  if c <> 0 then c else float_cmp k1.ev_ld k2.ev_ld

let compare_density t (n1, e1) (n2, e2) =
  let ns1 = t.nets.(n1) and ns2 = t.nets.(n2) in
  let t1 = Routing_graph.is_trunk ns1.rg e1 and t2 = Routing_graph.is_trunk ns2.rg e2 in
  if t1 && not t2 then -1
  else if t2 && not t1 then 1
  else begin
    let c1, p1 = density_params t ns1 e1 and c2, p2 = density_params t ns2 e2 in
    let cmp f = Int.compare (f c1 p1) (f c2 p2) in
    let f_m c p = Density.cm t.dens ~channel:c - p.ev_d_min in
    let n_m c p = Density.ncm t.dens ~channel:c - p.ev_nd_min in
    let f_big c p = Density.cM t.dens ~channel:c - p.ev_d_max in
    let n_big c p = Density.ncM t.dens ~channel:c - p.ev_nd_max in
    let c = cmp f_m in
    if c <> 0 then c
    else begin
      let c = cmp n_m in
      if c <> 0 then c
      else begin
        let c = cmp f_big in
        if c <> 0 then c else cmp n_big
      end
    end
  end

let compare_length t (n1, e1) (n2, e2) =
  let w1 = (Ugraph.edge t.nets.(n1).rg.Routing_graph.graph e1).Ugraph.weight in
  let w2 = (Ugraph.edge t.nets.(n2).rg.Routing_graph.graph e2).Ugraph.weight in
  (* Longer edge preferred. *)
  float_cmp w2 w1

(* The two Sec. 3.4 comparison chains, with the criterion names the
   deletions-by-criterion counter reports. *)
let delay_chain =
  [ ("delay", compare_delay); ("density", compare_density); ("length", compare_length) ]

let area_chain =
  [ ("delay_count", compare_cd_only);
    ("density", compare_density);
    ("gl_ld", compare_gl_ld);
    ("length", compare_length) ]

let active_chain t = if t.area_mode then area_chain else delay_chain

let compare_candidates t a b =
  let rec go = function
    | [] -> compare a b (* deterministic final tie-break on ids *)
    | (_, cmp) :: rest ->
      let c = cmp t a b in
      if c <> 0 then c else go rest
  in
  go (active_chain t)

(* Name of the first criterion that separates winner [a] from runner-up
   [b].  Pure cache reads (every comparator is memoized and already
   warm after the selection scan), used only to label the deletion
   counter — never to choose a candidate. *)
let criterion_between t a b =
  let rec go = function
    | [] -> "id_tie_break"
    | (name, cmp) :: rest -> if cmp t a b <> 0 then name else go rest
  in
  go (active_chain t)

(* A candidate of a mirrored pair is admissible only when its partner
   image is alive and itself deletable. *)
let admissible t n eid =
  let ns = t.nets.(n) in
  if Array.length ns.partner_map = 0 then true
  else begin
    match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
    | None -> true
    | Some p ->
      let peid = if eid < Array.length ns.partner_map then ns.partner_map.(eid) else -1 in
      let ok =
        peid >= 0
        && Ugraph.is_live t.nets.(p).rg.Routing_graph.graph peid
        && not t.nets.(p).bridge.(peid)
      in
      if (not ok) && observing () then Obs.Metrics.inc m_bridge_rej;
      ok
  end

(* All admissible candidates of [net_ids], in the exact order the
   sequential selection would visit them. *)
let admissible_candidates t net_ids =
  let acc = ref [] and count = ref 0 in
  List.iter
    (fun n ->
      let ns = t.nets.(n) in
      List.iter
        (fun eid ->
          if admissible t n eid then begin
            acc := (n, eid) :: !acc;
            incr count
          end)
        ns.candidates)
    net_ids;
  let out = Array.make !count (0, 0) in
  List.iter
    (fun c ->
      decr count;
      out.(!count) <- c)
    !acc;
  out

(* Parallel pre-computation of every candidate's heuristic values
   (C_d, Gl, LD via delay_key — including the tentative-tree CL(n)
   without the edge — and the density interval parameters).

   Scoring is read-only with respect to everything shared: each
   candidate's values land in its own [eval] record, written by exactly
   one domain, and all values are deterministic functions of the
   routing state.  The only lazily mutated shared caches on the read
   path (the per-channel density aggregates) are warmed on the calling
   domain first.  The sequential selection that follows then finds
   every cache fresh and compares exactly the numbers the sequential
   engine would have computed — which is the determinism argument for
   the whole parallel engine (see DESIGN.md): parallel score,
   sequential apply, bit-identical result. *)
let warm_selection_caches t cands =
  match t.par with
  | None -> ()
  | Some pool ->
    let sta_rev = match t.sta with None -> 0 | Some sta -> Sta.timing_revision sta in
    (* Only candidates whose caches are stale under the exact revision
       checks the lazy accessors use: after the first selection round a
       deletion dirties one net and a couple of channels, so the
       parallel work list stays proportional to the damage. *)
    let stale = Array.make (Array.length cands) (0, 0) in
    let n_stale = ref 0 in
    Array.iter
      (fun ((net, eid) as c) ->
        let ns = t.nets.(net) in
        let ev = ensure_eval ns eid in
        if
          ev.ev_key_sta_rev <> sta_rev
          || ev.ev_key_net_rev <> ns.rev
          ||
          let channel, _ = Routing_graph.density_locus ns.rg eid in
          ev.ev_dens_rev <> Density.revision t.dens ~channel
        then begin
          stale.(!n_stale) <- c;
          incr n_stale
        end)
      cands;
    let n = !n_stale in
    (* Under ~8 stale candidates the dispatch overhead outweighs the
       win and the sequential selection warms them up anyway. *)
    if n >= 8 then begin
      for c = 0 to Density.n_channels t.dens - 1 do
        ignore (Density.cM t.dens ~channel:c);
        ignore (Density.ncM t.dens ~channel:c);
        ignore (Density.cm t.dens ~channel:c);
        ignore (Density.ncm t.dens ~channel:c)
      done;
      Par.parallel_iter pool
        (fun i ->
          let net, eid = stale.(i) in
          let ns = t.nets.(net) in
          ignore (delay_key t ns eid);
          ignore (density_params t ns eid))
        n
    end

(* The best candidate under [compare_candidates].  With [runner_up]
   the scan also tracks the second best (a pure bystander: the
   best-update condition is the same) and names the criterion that made
   the winner win; without it, exactly one comparison per candidate and
   the label is "" (nobody reads it). *)
let select t cands ~runner_up =
  let best = ref None and second = ref None in
  for i = 0 to Array.length cands - 1 do
    let c = cands.(i) in
    match !best with
    | None -> best := Some c
    | Some b ->
      if compare_candidates t c b < 0 then begin
        if runner_up then second := Some b;
        best := Some c
      end
      else if runner_up then begin
        match !second with
        | None -> second := Some c
        | Some s -> if compare_candidates t c s < 0 then second := Some c
      end
  done;
  match !best with
  | None -> None
  | Some b when not runner_up -> Some (b, "")
  | Some b ->
    Some (b, match !second with None -> "only_candidate" | Some s -> criterion_between t b s)

(* Returns the chosen candidate plus the criterion label for the
   deletion counter and the quality log.  The winner does not depend on
   [runner_up] — the runner-up tracking and the criterion naming are
   pure warm-cache reads — so turning either consumer on leaves the
   deletion hash unchanged. *)
let select_among t net_ids =
  let cands = admissible_candidates t net_ids in
  let observed = observing () in
  let t0 = if observed then Obs.now_s () else 0.0 in
  warm_selection_caches t cands;
  let r = select t cands ~runner_up:(observed || quality_on t) in
  if observed then Obs.Metrics.observe m_batch (Obs.now_s () -. t0);
  r

(* --- deletion with cascade ------------------------------------------ *)

let mix_hash h v = ((h * 1000003) + v) land max_int

let record_deletion t n eid = t.del_hash <- mix_hash (mix_hash t.del_hash n) eid

let rec delete_cascade t n eid ~mirror =
  let ns = t.nets.(n) in
  let g = ns.rg.Routing_graph.graph in
  assert (Ugraph.is_live g eid && not ns.bridge.(eid));
  let touched_tree = ref (eid < Array.length ns.tree_set && ns.tree_set.(eid)) in
  unregister_edge_density t ns (Ugraph.edge g eid);
  Ugraph.delete_edge g eid;
  t.deletions <- t.deletions + 1;
  record_deletion t n eid;
  Routing_graph.prune_dangling ns.rg ~on_delete:(fun e ->
      unregister_edge_density t ns e;
      t.deletions <- t.deletions + 1;
      record_deletion t n e.Ugraph.id;
      if e.Ugraph.id < Array.length ns.tree_set && ns.tree_set.(e.Ugraph.id) then
        touched_tree := true);
  refresh_bridges t ns;
  ns.rev <- ns.rev + 1;
  if !touched_tree then refresh_tree t ns;
  if mirror && Array.length ns.partner_map > 0 then begin
    match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
    | None -> ()
    | Some p ->
      let peid = if eid < Array.length ns.partner_map then ns.partner_map.(eid) else -1 in
      let pns = t.nets.(p) in
      if peid >= 0 && Ugraph.is_live pns.rg.Routing_graph.graph peid then begin
        if pns.bridge.(peid) then begin
          (* Homology broke (should not happen under mirrored
             deletions); fall back to independent routing. *)
          ns.partner_map <- [||];
          pns.partner_map <- [||];
          trace "pair %d/%d: homology lost, falling back to independent routing" n p
        end
        else delete_cascade t p peid ~mirror:false
      end
  end

(* A *committed* deletion — one the selection loop chose — goes through
   the write-ahead hook first, so the journal record is durable before
   any state changes.  Cascaded prunes and the mirrored partner
   deletion are deterministic consequences of the primary deletion and
   are regenerated on replay, which is why a mirrored pair costs one
   journal record, not two. *)
let commit_deletion t n eid =
  (match t.on_commit with
  | None -> ()
  | Some hook ->
    hook
      { dc_phase = t.cur_phase;
        dc_area_mode = t.area_mode;
        dc_net = n;
        dc_edge = eid;
        dc_deletions_before = t.deletions;
        dc_hash_before = t.del_hash });
  delete_cascade t n eid ~mirror:true

(* Replay entry for the journal: apply a recorded primary deletion
   without re-journaling it.  Validates instead of asserting — a
   corrupt (but CRC-clean) record must surface as a structured error,
   not a crash. *)
let apply_deletion t ~net ~edge =
  if net < 0 || net >= Array.length t.nets then
    Bgr_error.raise_error ~phase:"resume" Bgr_error.Internal "journal replay: unknown net %d" net;
  let ns = t.nets.(net) in
  let g = ns.rg.Routing_graph.graph in
  if edge < 0 || edge >= Ugraph.n_edges_total g || not (Ugraph.is_live g edge) || ns.bridge.(edge)
  then
    Bgr_error.raise_error ~phase:"resume" Bgr_error.Internal
      "journal replay: edge %d of net %d is not a deletable candidate" edge net;
  delete_cascade t net edge ~mirror:true

(* --- construction ---------------------------------------------------- *)

(* Graph-only part of a net state (no density/timing side effects). *)
let fresh_net_state ?jog_cost fp assignment net_id =
  let rg = Routing_graph.build ?jog_cost fp assignment ~net:net_id in
  Routing_graph.prune_dangling rg ~on_delete:(fun _ -> ());
  let bridge = Bridges.bridges rg.Routing_graph.graph in
  let candidates =
    List.rev
      (Ugraph.fold_edges rg.Routing_graph.graph
         (fun acc (e : Ugraph.edge) -> if bridge.(e.Ugraph.id) then acc else e.Ugraph.id :: acc)
         [])
  in
  { rg;
    bridge;
    candidates;
    tree = [];
    tree_set = [||];
    cl_ff = -1.0;
    rev = 0;
    evals = Array.init (Ugraph.n_edges_total rg.Routing_graph.graph) (fun _ -> fresh_eval ());
    partner_map = [||] }

let jog_cost_of t channel = t.jog_um.(channel)

let init_net_state t net_id =
  let ns = fresh_net_state ~jog_cost:(jog_cost_of t) t.fp t.assignment net_id in
  t.nets.(net_id) <- ns;
  register_net_density t ns;
  refresh_tree t ns

let recognize_pair t n p =
  let ns = t.nets.(n) and pns = t.nets.(p) in
  match Diff_pair.recognize ns.rg pns.rg with
  | None ->
    ns.partner_map <- [||];
    pns.partner_map <- [||]
  | Some emap ->
    ns.partner_map <- emap;
    let rev = Array.make (Ugraph.n_edges_total pns.rg.Routing_graph.graph) (-1) in
    Array.iteri (fun ea eb -> if eb >= 0 then rev.(eb) <- ea) emap;
    pns.partner_map <- rev

let create ?(options = default_options) fp assignment sta =
  let netlist = Floorplan.netlist fp in
  let n_nets = Netlist.n_nets netlist in
  (* [domains = 0] means auto (BGR_DOMAINS or the available cores);
     [<= 1] selects the strictly sequential engine.  A router built
     inside a pool worker (a parallel suite run) scores sequentially
     too, instead of nesting pools. *)
  let requested =
    if options.domains = 0 then Par.default_domains () else max 1 options.domains
  in
  let par =
    if requested <= 1 || Par.in_worker () then None else Some (Par.get ~domains:requested ())
  in
  let t =
    { fp;
      assignment;
      sta;
      dens = Density.create ~n_channels:(Floorplan.n_channels fp) ~width:(Floorplan.width fp);
      nets = Array.init n_nets (fun net -> fresh_net_state fp assignment net);
      opts = options;
      hpwl_cap = Array.init n_nets (fun net -> hpwl_cap_of_net fp net);
      jog_um = Array.make (Floorplan.n_channels fp) 0.0;
      deletions = 0;
      del_hash = 0;
      area_mode = options.area_first_ordering;
      par;
      cur_phase = "initial_route";
      on_commit = None;
      on_checkpoint = None;
      on_quality = None;
      q_crit = Hashtbl.create 8;
      q_unsampled = 0 }
  in
  Array.iter (fun ns -> register_net_density t ns) t.nets;
  (* Expected final channel depth is roughly half the candidate-graph
     density (about half of all candidate trunks get deleted); a pin's
     expected descent is half of that again.  The estimate is derived
     from a zero-jog candidate pass, then every routing graph is
     rebuilt with the jog surcharge priced into its correspondence and
     branch edge weights. *)
  t.jog_um <-
    Array.init (Floorplan.n_channels fp) (fun c ->
        0.25 *. float_of_int (Density.cM t.dens ~channel:c) *. (Floorplan.dims fp).Dims.track_um);
  Array.iter (fun ns -> unregister_net_density t ns) t.nets;
  for net = 0 to n_nets - 1 do
    init_net_state t net
  done;
  (match sta with Some sta -> Sta.refresh sta | None -> ());
  for net = 0 to n_nets - 1 do
    match (Netlist.net netlist net).Netlist.diff_partner with
    | Some p when p > net -> recognize_pair t net p
    | Some _ | None -> ()
  done;
  t

(* --- phases ----------------------------------------------------------- *)

let all_net_ids t = List.init (Array.length t.nets) Fun.id

let route_among t net_ids =
  let rec loop () =
    match select_among t net_ids with
    | None -> ()
    | Some ((n, eid), crit) ->
      let before = t.deletions in
      if observing () then begin
        (* delay_key only re-reads the eval cache the selection scan
           just warmed; the LM(e,P) value was computed either way. *)
        let ev = delay_key t t.nets.(n) eid in
        if ev.ev_lm_min < infinity then Obs.Metrics.observe m_lm ev.ev_lm_min;
        commit_deletion t n eid;
        Obs.Metrics.inc m_deletions ~labels:[ ("criterion", crit); ("phase", t.cur_phase) ];
        let cascade = t.deletions - before - 1 in
        if cascade > 0 then
          Obs.Metrics.inc m_cascade ~labels:[ ("phase", t.cur_phase) ]
            ~by:(float_of_int cascade)
      end
      else commit_deletion t n eid;
      Flight.record Flight.k_deletion ~a:(Flight.phase_code t.cur_phase)
        ~b:(Flight.criterion_code crit) ~c:n
        ~d:((eid lsl 32) lor (before land 0xFFFFFFFF));
      if quality_on t then note_quality_deletion t crit;
      loop ()
  in
  loop ()

let initial_route t =
  t.cur_phase <- "initial_route";
  trace "initial routing: %d nets" (Array.length t.nets);
  route_among t (all_net_ids t);
  trace "initial routing done after %d deletions" t.deletions

(* --- sequential baseline (net-at-a-time, congestion-priced) --------- *)

(* Reduce one net's graph to exactly [wanted] by deleting non-bridge
   edges outside it; mirrored partners follow through delete_cascade. *)
let reduce_to_tree t n ~wanted =
  let ns = t.nets.(n) in
  let in_tree = Hashtbl.create 32 in
  List.iter (fun eid -> Hashtbl.replace in_tree eid ()) wanted;
  let rec loop () =
    match List.find_opt (fun eid -> not (Hashtbl.mem in_tree eid)) ns.candidates with
    | Some eid ->
      delete_cascade t n eid ~mirror:true;
      loop ()
    | None -> ()
  in
  loop ()

let route_sequential ?(congestion_weight = 0.5) ?order t =
  let order = match order with Some o -> o | None -> all_net_ids t in
  trace "sequential baseline: %d nets" (List.length order);
  let track_um = (Floorplan.dims t.fp).Dims.track_um in
  let congestion_cost ns (e : Ugraph.edge) =
    match Routing_graph.edge_kind ns.rg e.Ugraph.id with
    | Routing_graph.Trunk { channel; span } ->
      let d_max, _, _, _ = Density.edge_params t.dens ~channel ~span in
      e.Ugraph.weight +. (congestion_weight *. track_um *. float_of_int d_max)
    | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> e.Ugraph.weight
  in
  let netlist = Floorplan.netlist t.fp in
  let routed = Array.make (Array.length t.nets) false in
  let route_one n =
    if not routed.(n) then begin
      let ns = t.nets.(n) in
      match Routing_graph.tentative_tree ~cost:(congestion_cost ns) ns.rg with
      | None -> () (* cannot happen: the candidate graph is connected *)
      | Some wanted ->
        routed.(n) <- true;
        (match (Netlist.net netlist n).Netlist.diff_partner with
        | Some p -> routed.(p) <- true
        | None -> ());
        reduce_to_tree t n ~wanted;
        (* Mirroring may leave deletable leftovers in an unrecognized
           partner or in this net; fall back to plain edge deletion so
           both end as trees. *)
        let members =
          match (Netlist.net netlist n).Netlist.diff_partner with
          | Some p -> [ n; p ]
          | None -> [ n ]
        in
        route_among t members
    end
  in
  List.iter route_one order;
  trace "sequential baseline done after %d deletions" t.deletions

let is_routed t = Array.for_all (fun ns -> ns.candidates = []) t.nets

let reroute_net t n =
  let netlist = Floorplan.netlist t.fp in
  let members =
    match (Netlist.net netlist n).Netlist.diff_partner with
    | Some p -> [ min n p; max n p ]
    | None -> [ n ]
  in
  List.iter (fun m -> unregister_net_density t t.nets.(m)) members;
  List.iter (fun m -> init_net_state t m) members;
  (match members with
  | [ a; b ] -> recognize_pair t a b
  | [ _ ] -> ()
  | _ -> assert false);
  (match t.sta with Some sta -> Sta.refresh_for_nets sta members | None -> ());
  route_among t members

let no_guard () = ()

let recover_violations ?(guard = no_guard) ?max_passes t =
  let limit = min t.opts.max_recover_passes (Option.value max_passes ~default:max_int) in
  match t.sta with
  | None -> { reroutes = 0; passes = 0 }
  | Some sta ->
    (* The recovery phase always weighs delay first, whatever ordering
       the initial routing used (Sec. 3.5 reserves the density-first
       ordering for the area phase). *)
    let saved_mode = t.area_mode in
    set_area_mode t false;
    let reroutes = ref 0 and passes = ref 0 in
    let rec loop () =
      if !passes >= limit then ()
      else begin
        guard ();
        match Sta.violations sta with
        | [] -> ()
        | violated ->
          incr passes;
          let before = Sta.worst_path_delay sta in
          let on_constraint ci =
            let nets = List.sort_uniq Int.compare (Sta.critical_nets sta ci) in
            List.iter
              (fun n ->
                if Sta.margin sta ci < 0.0 then begin
                  reroute_net t n;
                  incr reroutes
                end)
              nets
          in
          Obs.Trace.span "pass:recover_violations"
            ~attrs:[ ("pass", Obs.Trace.Int !passes) ]
            (fun () -> List.iter on_constraint violated);
          let after = Sta.worst_path_delay sta in
          trace "recover pass %d: worst delay %.1f -> %.1f ps" !passes before after;
          emit_quality t ~kind:Q_pass ~phase:t.cur_phase ~pass:!passes;
          if after < before -. 1e-6 || Sta.violations sta = [] then loop ()
      end
    in
    loop ();
    set_area_mode t saved_mode;
    { reroutes = !reroutes; passes = !passes }

let improve_delay ?(guard = no_guard) ?max_passes t =
  let limit = min t.opts.max_delay_passes (Option.value max_passes ~default:max_int) in
  match t.sta with
  | None -> { reroutes = 0; passes = 0 }
  | Some sta ->
    let saved_mode = t.area_mode in
    set_area_mode t false;
    let reroutes = ref 0 and passes = ref 0 in
    let rec loop () =
      if !passes >= limit then ()
      else begin
        guard ();
        incr passes;
        let before = Sta.worst_path_delay sta in
        (* Constraints by ascending margin; their critical nets first. *)
        let order =
          List.init (Sta.n_constraints sta) Fun.id
          |> List.stable_sort (fun a b -> Float.compare (Sta.margin sta a) (Sta.margin sta b))
        in
        let seen = Hashtbl.create 64 in
        let on_constraint ci =
          List.iter
            (fun n ->
              if not (Hashtbl.mem seen n) then begin
                Hashtbl.replace seen n ();
                reroute_net t n;
                incr reroutes
              end)
            (Sta.critical_nets sta ci)
        in
        Obs.Trace.span "pass:improve_delay"
          ~attrs:[ ("pass", Obs.Trace.Int !passes) ]
          (fun () -> List.iter on_constraint order);
        let after = Sta.worst_path_delay sta in
        trace "delay pass %d: worst delay %.1f -> %.1f ps" !passes before after;
        emit_quality t ~kind:Q_pass ~phase:t.cur_phase ~pass:!passes;
        if after < before -. 1e-6 then loop ()
      end
    in
    loop ();
    set_area_mode t saved_mode;
    { reroutes = !reroutes; passes = !passes }

let total_tracks t = Array.fold_left ( + ) 0 (Density.tracks_estimate t.dens)

(* Nets with a trunk covering a maximum-density column of the most
   congested channel. *)
let congested_nets t =
  let worst_channel = ref 0 and worst = ref (-1) in
  for c = 0 to Density.n_channels t.dens - 1 do
    let v = Density.cM t.dens ~channel:c in
    if v > !worst then begin
      worst := v;
      worst_channel := c
    end
  done;
  let c = !worst_channel in
  let peak = !worst in
  let hot x = Density.dM_at t.dens ~channel:c ~x = peak in
  let result = ref [] in
  Array.iteri
    (fun n ns ->
      let covers_hot = ref false in
      Ugraph.iter_edges ns.rg.Routing_graph.graph (fun e ->
          match Routing_graph.edge_kind ns.rg e.Ugraph.id with
          | Routing_graph.Trunk { channel; span } when channel = c ->
            Interval.iter (fun x -> if hot x then covers_hot := true) span
          | Routing_graph.Trunk _ | Routing_graph.Branch _ | Routing_graph.Correspondence _ -> ())
        ;
      if !covers_hot then result := n :: !result)
    t.nets;
  List.rev !result

let improve_area ?(guard = no_guard) ?max_passes t =
  let limit = min t.opts.max_area_passes (Option.value max_passes ~default:max_int) in
  let reroutes = ref 0 and passes = ref 0 in
  let saved_mode = t.area_mode in
  set_area_mode t true;
  let rec loop () =
    if !passes >= limit then ()
    else begin
      guard ();
      incr passes;
      let before = total_tracks t in
      let nets = congested_nets t in
      Obs.Trace.span "pass:improve_area"
        ~attrs:[ ("pass", Obs.Trace.Int !passes); ("nets", Obs.Trace.Int (List.length nets)) ]
        (fun () ->
          List.iter
            (fun n ->
              reroute_net t n;
              incr reroutes)
            nets);
      let after = total_tracks t in
      trace "area pass %d: total tracks %d -> %d (%d nets)" !passes before after
        (List.length nets);
      emit_quality t ~kind:Q_pass ~phase:t.cur_phase ~pass:!passes;
      if after < before then loop ()
    end
  in
  loop ();
  set_area_mode t saved_mode;
  { reroutes = !reroutes; passes = !passes }

(* --- checkpoints and the deadline-aware driver ----------------------- *)

type stop_reason =
  | Finished
  | Deadline of { phase : string }
  | Fault_stop of { phase : string; error : Bgr_error.t }

type run_report = {
  completed_phases : string list;
  stopped_because : stop_reason;
  rolled_back : bool;
}

let stop_reason_string = function
  | Finished -> "finished"
  | Deadline { phase } -> Printf.sprintf "deadline during %s" phase
  | Fault_stop { phase; _ } -> Printf.sprintf "injected fault during %s" phase

exception Stop_run of stop_reason

let checkpoint t =
  { ck_deletions = t.deletions;
    ck_del_hash = t.del_hash;
    ck_live =
      Array.map
        (fun ns ->
          List.map (fun (e : Ugraph.edge) -> e.Ugraph.id)
            (Ugraph.live_edges ns.rg.Routing_graph.graph))
        t.nets }

let checkpoint_make ~deletions ~del_hash ~live =
  { ck_deletions = deletions; ck_del_hash = del_hash; ck_live = Array.copy live }

let checkpoint_stats ck = (ck.ck_deletions, ck.ck_del_hash)
let checkpoint_live ck = Array.copy ck.ck_live

(* Bring every net back to the checkpointed state, following the proven
   reroute pattern: rebuild the full candidate graph, then delete
   everything outside the recorded live set.  The deletion counters are
   then rewound to the checkpoint's, so a restored run continues the
   same deletion-hash chain as the run the checkpoint was taken from.
   No-op when the state already matches the checkpoint. *)
let restore t ck =
  if t.deletions <> ck.ck_deletions || t.del_hash <> ck.ck_del_hash then begin
    let netlist = Floorplan.netlist t.fp in
    Array.iter (fun ns -> unregister_net_density t ns) t.nets;
    for n = 0 to Array.length t.nets - 1 do
      init_net_state t n
    done;
    for net = 0 to Array.length t.nets - 1 do
      match (Netlist.net netlist net).Netlist.diff_partner with
      | Some p when p > net -> recognize_pair t net p
      | Some _ | None -> ()
    done;
    (match t.sta with Some sta -> Sta.refresh sta | None -> ());
    for n = 0 to Array.length t.nets - 1 do
      let keep = Hashtbl.create 64 in
      List.iter (fun eid -> Hashtbl.replace keep eid ()) ck.ck_live.(n);
      let ns = t.nets.(n) in
      let rec loop () =
        match List.find_opt (fun eid -> not (Hashtbl.mem keep eid)) ns.candidates with
        | Some eid ->
          delete_cascade t n eid ~mirror:false;
          loop ()
        | None -> ()
      in
      loop ()
    done;
    t.deletions <- ck.ck_deletions;
    t.del_hash <- ck.ck_del_hash
  end

(* Phase wrapper: a "phase:<name>" trace span plus the duration gauge
   (last execution) and the cumulative per-phase counter.  The gauge is
   set even when the phase aborts (deadline, fault): the time was spent
   either way. *)
let timed_phase phase f =
  if not (observing ()) then f ()
  else begin
    let t0 = Obs.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let d = Obs.now_s () -. t0 in
        Obs.Metrics.set m_phase_dur ~labels:[ ("phase", phase) ] d;
        Obs.Metrics.inc m_phase_total ~labels:[ ("phase", phase) ] ~by:d)
      (fun () -> Obs.Trace.span ("phase:" ^ phase) f)
  end

let run ?(budget = Budget.unlimited) ?(completed = []) t =
  let already_done = completed in
  let skip phase = List.mem phase already_done in
  let completed = ref (List.rev already_done) in
  (* On a resume the current state *is* the last durable checkpoint, so
     a mid-phase stop in the continued run rolls back to it. *)
  let last_ck = ref (match already_done with [] -> None | _ :: _ -> Some (checkpoint t)) in
  let rolled_back = ref false in
  let mark phase =
    completed := phase :: !completed;
    Flight.record Flight.k_phase ~a:(Flight.phase_code phase) ~b:1 ~c:0 ~d:t.deletions;
    emit_quality t ~kind:Q_phase ~phase ~pass:0;
    let ck = checkpoint t in
    last_ck := Some ck;
    match t.on_checkpoint with
    | None -> ()
    | Some hook -> hook ~phase ~completed:(List.rev !completed) ck
  in
  let guard ~phase () =
    if observing () then (
      match Budget.remaining_ms budget with
      | Some ms -> Obs.Metrics.set m_headroom ms
      | None -> ());
    if Fault.trip "router.improve" then
      raise
        (Stop_run
           (Fault_stop
              { phase;
                error = Bgr_error.make ~phase Bgr_error.Fault "injected fault at site router.improve"
              }));
    if Budget.expired budget then raise (Stop_run (Deadline { phase }))
  in
  let saved_mode = t.area_mode in
  let stopped_because =
    try
      (* The initial routing always runs to completion: it is what
         guarantees a verifiable spanning tree for every net, so the
         budget is only consulted from the first checkpoint on. *)
      if not (skip "initial_route") then begin
        Flight.record Flight.k_phase ~a:(Flight.phase_code "initial_route") ~b:0 ~c:0
          ~d:t.deletions;
        timed_phase "initial_route" (fun () -> initial_route t);
        mark "initial_route"
      end;
      let limit d = Budget.phase_pass_limit budget ~default:d in
      let improvement phase default_limit f =
        if not (skip phase) then begin
          t.cur_phase <- phase;
          Flight.record Flight.k_phase ~a:(Flight.phase_code phase) ~b:0 ~c:0 ~d:t.deletions;
          guard ~phase ();
          let r =
            timed_phase phase (fun () ->
                let r = f ~guard:(guard ~phase) ~max_passes:(limit default_limit) t in
                Obs.Trace.add_attr "reroutes" (Obs.Trace.Int r.reroutes);
                Obs.Trace.add_attr "passes" (Obs.Trace.Int r.passes);
                r)
          in
          trace "%s: %d reroutes in %d passes" phase r.reroutes r.passes;
          mark phase
        end
      in
      improvement "recover_violations" t.opts.max_recover_passes (fun ~guard ~max_passes t ->
          recover_violations ~guard ~max_passes t);
      improvement "improve_delay" t.opts.max_delay_passes (fun ~guard ~max_passes t ->
          improve_delay ~guard ~max_passes t);
      improvement "improve_area" t.opts.max_area_passes (fun ~guard ~max_passes t ->
          improve_area ~guard ~max_passes t);
      (* The area phase may lengthen critical nets inside still-met
         constraints; a final timing cleanup (an extra turn of the
         Sec. 3.5 rip-up loops) undoes that at negligible area cost. *)
      (match t.sta with
      | None -> ()
      | Some _ ->
        improvement "final_recovery" t.opts.max_recover_passes (fun ~guard ~max_passes t ->
            recover_violations ~guard ~max_passes t);
        improvement "final_delay" t.opts.max_delay_passes (fun ~guard ~max_passes t ->
            improve_delay ~guard ~max_passes t));
      Finished
    with Stop_run reason ->
      (match reason with
      | Deadline { phase } ->
        Flight.record Flight.k_stop ~a:(Flight.phase_code phase) ~b:1 ~c:0 ~d:t.deletions
      | Fault_stop { phase; _ } ->
        Flight.record Flight.k_stop ~a:(Flight.phase_code phase) ~b:2 ~c:0 ~d:t.deletions
      | Finished -> ());
      set_area_mode t saved_mode;
      (match !last_ck with
      | Some ck when t.deletions <> ck.ck_deletions ->
        trace "%s: rolling back to the last checkpoint" (stop_reason_string reason);
        if observing () then Obs.Metrics.inc m_rollbacks;
        restore t ck;
        rolled_back := true
      | Some _ | None -> ());
      reason
  in
  { completed_phases = List.rev !completed; stopped_because; rolled_back = !rolled_back }

(* --- results ----------------------------------------------------------- *)

let tree_edges t n = t.nets.(n).tree
let routing_graph t n = t.nets.(n).rg

let net_length_um t n =
  let ns = t.nets.(n) in
  Routing_graph.geometric_length_um ns.rg ~edge_ids:ns.tree

let total_length_mm t =
  let total = ref 0.0 in
  Array.iteri (fun n _ -> total := !total +. net_length_um t n) t.nets;
  Dims.mm_of_um !total

let wire_caps t = Array.map (fun ns -> ns.cl_ff) t.nets

(* --- audit/repair access --------------------------------------------- *)

let mirrored t n = Array.length t.nets.(n).partner_map > 0
let partner_map_copy t n = Array.copy t.nets.(n).partner_map

let drop_pair_recognition t n =
  t.nets.(n).partner_map <- [||];
  match (Netlist.net (Floorplan.netlist t.fp) n).Netlist.diff_partner with
  | Some p -> t.nets.(p).partner_map <- [||]
  | None -> ()

(* Rebuild every piece of derived state — bridge sets, candidate lists,
   density charts, tentative trees, wire caps and timing weights — from
   the primal live graphs, which are the only source of truth after a
   resume or a detected corruption.  Primal damage (a disconnected net)
   is left alone: there is nothing to rebuild it from. *)
let rebuild_derived t =
  Density.clear t.dens;
  Array.iter
    (fun ns ->
      let g = ns.rg.Routing_graph.graph in
      ns.bridge <- Bridges.bridges g;
      ns.candidates <-
        List.rev
          (Ugraph.fold_edges g
             (fun acc (e : Ugraph.edge) ->
               if ns.bridge.(e.Ugraph.id) then acc else e.Ugraph.id :: acc)
             []);
      ns.rev <- ns.rev + 1;
      register_net_density t ns)
    t.nets;
  Array.iter
    (fun ns ->
      match Routing_graph.tentative_tree ns.rg with
      | None -> ()
      | Some edges ->
        ns.tree <- edges;
        let set = Array.make (Ugraph.n_edges_total ns.rg.Routing_graph.graph) false in
        List.iter (fun e -> set.(e) <- true) edges;
        ns.tree_set <- set;
        ns.cl_ff <- current_cl t ns;
        apply_net_timing t ns)
    t.nets;
  match t.sta with Some sta -> Sta.refresh sta | None -> ()

type chan_pin = { cp_x : int; cp_from_top : bool }

type chan_net = {
  cn_net : int;
  cn_lo : int;
  cn_hi : int;
  cn_pins : chan_pin list;
  cn_pitch : int;
}

let channel_nets t ~channel =
  let netlist = Floorplan.netlist t.fp in
  let out = ref [] in
  let on_net n ns =
    let lo = ref max_int and hi = ref min_int in
    let pins = ref [] in
    let touch x =
      if x < !lo then lo := x;
      if x > !hi then hi := x
    in
    let add_pin x from_top =
      touch x;
      pins := { cp_x = x; cp_from_top = from_top } :: !pins
    in
    let on_edge eid =
      match Routing_graph.edge_kind ns.rg eid with
      | Routing_graph.Trunk { channel = c; span } when c = channel ->
        touch (Interval.lo span);
        touch (Interval.hi span)
      | Routing_graph.Branch { row; x } ->
        (* Row r sits above channel r: its feedthrough enters channel r
           from the top, channel r+1 from the bottom. *)
        if row = channel then add_pin x true
        else if row + 1 = channel then add_pin x false
      | Routing_graph.Correspondence p when p.Routing_graph.channel = channel -> begin
        (* Find which terminal this correspondence serves. *)
        let e = Ugraph.edge ns.rg.Routing_graph.graph eid in
        let term_vertex =
          match ns.rg.Routing_graph.vkind.(e.Ugraph.u) with
          | Routing_graph.Terminal _ -> e.Ugraph.u
          | Routing_graph.Position _ -> e.Ugraph.v
        in
        match ns.rg.Routing_graph.vkind.(term_vertex) with
        | Routing_graph.Terminal (Netlist.Pin pin) ->
          let row = Floorplan.terminal_row t.fp pin in
          add_pin p.Routing_graph.x (row = channel)
        | Routing_graph.Terminal (Netlist.Port q) ->
          let from_top =
            match (Netlist.port netlist q).Netlist.side with
            | Netlist.North -> true
            | Netlist.South -> false
          in
          add_pin p.Routing_graph.x from_top
        | Routing_graph.Position _ -> assert false
      end
      | Routing_graph.Trunk _ | Routing_graph.Correspondence _ -> ()
    in
    List.iter on_edge ns.tree;
    if !pins <> [] || !lo <= !hi then
      out :=
        { cn_net = n;
          cn_lo = !lo;
          cn_hi = !hi;
          cn_pins = List.rev !pins;
          cn_pitch = ns.rg.Routing_graph.pitch }
        :: !out
  in
  Array.iteri on_net t.nets;
  List.rev !out
