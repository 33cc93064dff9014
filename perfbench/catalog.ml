(* The workloads and the metric names the benchmark prints: the
   end-to-end set with [--trace 0], the per-layer set with [--trace 1].
   BENCHMARK.json declares the same names, units and directions; the
   self-test keeps the two in step. *)

type kind =
  | Bulk  (** bulk routing jobs, then a reroute stream on the result *)
  | Eco  (** a fully routed design as set-up, then the reroute stream *)

type workload = {
  w_name : string;
  w_gates : int;
  w_timing_driven : bool;
  w_domains : int;
  w_kind : kind;
  w_stream_rounds : int;
      (** rounds of the reroute stream, each over every net: enough for
          at least 1,000 requests, so at least 10 lie beyond p99.
          [eco-800]'s stream is its measured work, so it runs longer;
          [area-1600]'s requests are about ten times cheaper, so it runs
          more rounds to measure over a window of seconds. *)
}

(* Every workload routes the ROADMAP baseline design of its size: the
   generator's default seed 1, as [bgr_run generate] makes it.  [--seed]
   seeds the request order of the reroute stream instead.  Designs from
   other generator seeds differ too much for any bound to hold: over five
   of them at 1,600 gates the quartile spread was 13 % of the median for
   [total_s] and 30-47 % for the reroute metrics. *)
let design_seed = 1

let workloads =
  [ { w_name = "timing-800";
      w_gates = 800;
      w_timing_driven = true;
      w_domains = 2;
      w_kind = Bulk;
      w_stream_rounds = 2 };
    { w_name = "area-1600";
      w_gates = 1600;
      w_timing_driven = false;
      w_domains = 1;
      w_kind = Bulk;
      w_stream_rounds = 8 };
    { w_name = "eco-800";
      w_gates = 800;
      w_timing_driven = true;
      w_domains = 1;
      w_kind = Eco;
      w_stream_rounds = 3 } ]

type better =
  | Lower
  | Higher

let better_string = function Lower -> "lower" | Higher -> "higher"

(* (name, unit, better) *)
let end_to_end =
  [ ("setup_s", "s", Lower);
    ("total_cpu_s", "s", Lower);
    ("peak_heap_mb", "MB", Lower);
    ("delay_ps", "ps", Lower);
    ("area_mm2", "mm2", Lower);
    ("wire_mm", "mm", Lower) ]

let per_layer =
  [ ("io.parse_s", "s", Lower);
    ("flow.prepare_s", "s", Lower);
    ("layout.feed_insert_s", "s", Lower);
    ("router.create_s", "s", Lower);
    ("router.state_mb", "MB", Lower);
    ("router.graph_edges", "count", Lower) ]
  @ List.concat_map
      (fun phase ->
        [ ("router." ^ phase ^ "_s", "s", Lower);
          ("router." ^ phase ^ ".deletions", "count", Lower);
          ("router." ^ phase ^ ".reroutes", "count", Lower);
          ("router." ^ phase ^ ".passes", "count", Lower) ])
      Drive.phase_names
  @ [ ("router.initial_route.deletions_per_s", "1/s", Higher);
      ("router.improve_area.useful_ratio", "ratio", Higher);
      ("router.reroute.p50_ms", "ms", Lower);
      ("router.reroute.p99_ms", "ms", Lower);
      ("router.reroute.per_s", "1/s", Higher);
      ("router.reroute.changed_ratio", "ratio", Higher);
      ("router.reroute.outlier_s", "s", Lower);
      ("router.reroute.outlier_net", "id", Lower);
      ("router.reroute.outlier_sinks", "count", Lower);
      ("router.reroute.outlier_edges", "count", Lower);
      ("router.reroute.outlier_share", "ratio", Lower);
      ("graph.cl_without_us", "us", Lower);
      ("graph.cl_without_per_rescore", "count", Lower);
      ("timing.sta_refresh_ms", "ms", Lower);
      ("timing.refresh_for_net_us", "us", Lower);
      ("channel.route_s", "s", Lower);
      ("channel.max_channel_ms", "ms", Lower);
      ("flow.finish_s", "s", Lower);
      ("par.domains", "count", Higher);
      ("par.warnings", "count", Lower);
      ("quality.violations", "count", Lower);
      ("ledger.residual_s", "s", Lower);
      ("wall.total_s", "s", Lower);
      ("trace.overhead_s", "s", Lower) ]
