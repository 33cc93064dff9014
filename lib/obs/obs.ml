(* Process-global tracer + metrics registry.  See obs.mli for the
   ownership and failure-policy contract.  The one invariant that
   matters: nothing in here may influence a routing decision. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock : (unit -> float) option ref = ref None

let clock_mutex = Mutex.create ()

let last_now = ref neg_infinity

let now_s () =
  match !test_clock with
  | Some f -> f ()
  | None ->
      (* Monotonicize: gettimeofday can step backwards under NTP; a
         negative span duration would corrupt trace files. *)
      Mutex.lock clock_mutex;
      let t = Unix.gettimeofday () in
      let t = if t > !last_now then ( last_now := t; t ) else !last_now in
      Mutex.unlock clock_mutex;
      t

let set_clock_for_tests c = test_clock := c

(* ------------------------------------------------------------------ *)
(* Global switches                                                    *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

let enabled () = !enabled_flag

let worker_probe = ref (fun () -> false)

let set_worker_probe f = worker_probe := f

let in_worker () = !worker_probe ()

(* Drop hot-path records while disabled or on a pool worker. *)
let skip_record () = (not !enabled_flag) || in_worker ()

(* The serving daemon records metrics from two domains (the socket
   event loop and the job executor), so the warning list and the
   metrics registry serialize on one coarse mutex.  The tracer's scope
   stack stays single-domain property of whoever emits spans (the
   orchestrator / job executor) — only its sink writes run under the
   lock via [emit]'s caller. *)
let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let warnings_rev = ref []

let warnings () = locked (fun () -> List.rev !warnings_rev)

let warn fmt =
  Printf.ksprintf (fun s -> locked (fun () -> warnings_rev := s :: !warnings_rev)) fmt

(* Atomic durable rewrite (temp + fsync + rename): a scrape target or
   a flight-record dump must never be observable as zero-length, even
   across a power loss — the fsync of the temp file *before* the
   rename is what makes the rename a real commit point. *)
let write_file_atomic path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc s;
     flush oc;
     try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e);
  Sys.rename tmp path

let assert_orchestrator ~what =
  if in_worker () then
    Bgr_error.raise_error Internal
      "Obs.%s called from inside a pool worker; the tracer and registry belong to the orchestrator"
      what

(* ------------------------------------------------------------------ *)
(* Tracer                                                             *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type attr = Str of string | Int of int | Float of float | Bool of bool

  let attr_to_string = function
    | Str s -> s
    | Int i -> string_of_int i
    | Float f -> Qjson.to_string (Qjson.num f)
    | Bool b -> string_of_bool b

  type span = {
    sp_name : string;
    sp_start_us : float;
    sp_dur_us : float;
    sp_depth : int;
    sp_id : int;
    sp_parent : int;
    sp_pid : int;
    sp_attrs : (string * attr) list;
  }

  (* Trace epoch: fixed by the first [enable] after a reset. *)
  let epoch = ref nan

  let epoch_s () = !epoch

  type scope = {
    sc_name : string;
    sc_start : float;  (* absolute seconds *)
    sc_id : int;
    mutable sc_attrs : (string * attr) list;
  }

  let stack : scope list ref = ref []

  (* Span ids are process-local ordinals; a merged multi-process
     timeline keys spans by (pid, id).  [foreign_parent] links a
     process's depth-0 spans under a span of another process (the
     supervisor hands its serve.worker span id to the worker). *)
  let span_seq = ref 0

  let process_pid = ref 1

  let set_pid pid = process_pid := pid

  let trace_ident : string option ref = ref None

  let set_trace_id tid = trace_ident := tid

  let trace_id () = !trace_ident

  let foreign_parent : int option ref = ref None

  let set_parent_span p = foreign_parent := p

  let current_span_id () =
    match !stack with top :: _ -> Some top.sc_id | [] -> None

  let parent_of_stack () =
    match !stack with
    | top :: _ -> top.sc_id
    | [] -> ( match !foreign_parent with Some p -> p | None -> 0 )

  let retained_cap = 100_000

  let completed_rev = ref []

  let completed_n = ref 0

  let completed () = List.rev !completed_rev

  (* ---- sinks ---- *)

  type sink = {
    sk_what : string;  (* "chrome" | "jsonl" *)
    sk_oc : out_channel;
    mutable sk_first : bool;  (* chrome: no comma before first event *)
  }

  let chrome_sink : sink option ref = ref None

  let jsonl_sink : sink option ref = ref None

  (* Any failure inside [f] kills the sink: close quietly, warn once,
     keep routing.  The obs.sink fault plugs in here so the degradation
     path is testable. *)
  let sink_guard slot f =
    match !slot with
    | None -> ()
    | Some sk -> (
        try
          Fault.check ~phase:"obs" "obs.sink";
          f sk
        with e ->
          slot := None;
          (try close_out_noerr sk.sk_oc with _ -> ());
          warn "trace sink (%s) failed and was disabled: %s" sk.sk_what
            (match e with
            | Bgr_error.Error err -> err.Bgr_error.message
            | Sys_error m -> m
            | e -> Printexc.to_string e))

  let open_sink slot ~what ~path ~header =
    assert_orchestrator ~what:"Trace.open_sink";
    (match !slot with
    | Some sk ->
        warn "%s trace sink reopened at %s; the previous sink was closed and its tail may be incomplete"
          what path;
        (try close_out_noerr sk.sk_oc with _ -> ());
        slot := None
    | None -> ());
    match open_out path with
    | oc ->
        output_string oc header;
        slot := Some { sk_what = what; sk_oc = oc; sk_first = true }
    | exception Sys_error m -> warn "cannot open %s trace sink %s: %s" what path m

  let to_chrome_file path = open_sink chrome_sink ~what:"chrome" ~path ~header:"[\n"

  let to_jsonl_file path = open_sink jsonl_sink ~what:"jsonl" ~path ~header:""

  let close_sinks () =
    (match !chrome_sink with
    | Some sk ->
        sink_guard chrome_sink (fun sk -> output_string sk.sk_oc "\n]\n");
        (match !chrome_sink with
        | Some _ ->
            (try close_out sk.sk_oc
             with Sys_error m -> warn "closing chrome trace sink: %s" m);
            chrome_sink := None
        | None -> ())
    | None -> ());
    match !jsonl_sink with
    | Some sk ->
        (try close_out sk.sk_oc
         with Sys_error m -> warn "closing jsonl trace sink: %s" m);
        jsonl_sink := None
    | None -> ()

  (* ---- event emission ---- *)

  (* The fixed fields keep their printf templates (ts/dur at %.3f);
     names and attributes go through Qjson. *)
  let json_str s = Qjson.to_string (Qjson.Str s)

  let attr_json = function
    | Str s -> Qjson.Str s
    | Int i -> Qjson.int i
    | Float f -> Qjson.num f
    | Bool b -> Qjson.Bool b

  let args_json attrs =
    match attrs with
    | [] -> ""
    | attrs ->
        ",\"args\":" ^ Qjson.to_string (Qjson.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs))

  let chrome_event ~ph ~extra sp =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"bgr\",\"ph\":\"%s\",\"pid\":%d,\"tid\":1,\"ts\":%.3f%s%s}"
      (json_str sp.sp_name) ph sp.sp_pid sp.sp_start_us extra (args_json sp.sp_attrs)

  let jsonl_line sp =
    Printf.sprintf
      "{\"name\":%s,\"start_us\":%.3f,\"dur_us\":%.3f,\"depth\":%d,\"id\":%d,\"parent\":%d,\"pid\":%d%s}\n"
      (json_str sp.sp_name) sp.sp_start_us sp.sp_dur_us sp.sp_depth sp.sp_id
      sp.sp_parent sp.sp_pid
      (args_json sp.sp_attrs)

  let emit sp =
    if !completed_n < retained_cap then begin
      completed_rev := sp :: !completed_rev;
      incr completed_n
    end;
    sink_guard chrome_sink (fun sk ->
        let ev =
          if sp.sp_dur_us = 0.0 then chrome_event ~ph:"i" ~extra:",\"s\":\"t\"" sp
          else chrome_event ~ph:"X" ~extra:(Printf.sprintf ",\"dur\":%.3f" sp.sp_dur_us) sp
        in
        if sk.sk_first then sk.sk_first <- false else output_string sk.sk_oc ",\n";
        output_string sk.sk_oc ev);
    sink_guard jsonl_sink (fun sk -> output_string sk.sk_oc (jsonl_line sp))

  let rel_us t = (t -. !epoch) *. 1e6

  (* Bake the ambient trace id into the span's attributes so every
     sink (and the retained list) carries the correlation key. *)
  let with_trace_id attrs =
    match !trace_ident with
    | None -> attrs
    | Some tid ->
        if List.mem_assoc "trace_id" attrs then attrs
        else attrs @ [ ("trace_id", Str tid) ]

  let span ?(attrs = []) name f =
    if skip_record () then f ()
    else begin
      let parent = parent_of_stack () in
      incr span_seq;
      let sc = { sc_name = name; sc_start = now_s (); sc_id = !span_seq; sc_attrs = attrs } in
      let depth = List.length !stack in
      stack := sc :: !stack;
      Fun.protect
        ~finally:(fun () ->
          (match !stack with top :: rest when top == sc -> stack := rest | _ -> ());
          let stop = now_s () in
          emit
            {
              sp_name = name;
              sp_start_us = rel_us sc.sc_start;
              sp_dur_us = (stop -. sc.sc_start) *. 1e6;
              sp_depth = depth;
              sp_id = sc.sc_id;
              sp_parent = parent;
              sp_pid = !process_pid;
              sp_attrs = with_trace_id sc.sc_attrs;
            })
        f
    end

  let instant ?(attrs = []) name =
    if not (skip_record ()) then begin
      let parent = parent_of_stack () in
      incr span_seq;
      emit
        {
          sp_name = name;
          sp_start_us = rel_us (now_s ());
          sp_dur_us = 0.0;
          sp_depth = List.length !stack;
          sp_id = !span_seq;
          sp_parent = parent;
          sp_pid = !process_pid;
          sp_attrs = with_trace_id attrs;
        }
    end

  (* A span recorded by another process (already carrying its own id,
     parent and pid), re-emitted into this process's retained list and
     sinks.  Timestamps must already be re-based onto this process's
     epoch by the caller.  No-op while disabled. *)
  let emit_foreign sp = if !enabled_flag then emit sp

  let add_attr k v =
    if not (skip_record ()) then
      match !stack with
      | top :: _ -> top.sc_attrs <- top.sc_attrs @ [ (k, v) ]
      | [] -> ()

  let reset () =
    stack := [];
    completed_rev := [];
    completed_n := 0;
    span_seq := 0;
    trace_ident := None;
    foreign_parent := None;
    epoch := nan
end

let enable () =
  enabled_flag := true;
  if Float.is_nan !Trace.epoch then Trace.epoch := now_s ()

let disable () = enabled_flag := false

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type kind = Counter | Gauge | Histogram of float array

  type series = {
    se_labels : (string * string) list;  (* sorted by key *)
    mutable se_value : float;  (* counter/gauge value; histogram sum *)
    se_buckets : int array;  (* per-bucket counts, last = +Inf; [||] otherwise *)
    mutable se_count : int;  (* histogram observation count *)
  }

  type family = {
    f_name : string;
    f_help : string;
    f_kind : kind;
    f_labelnames : string list;  (* sorted *)
    mutable f_series_rev : series list;
  }

  let registry : (string, family) Hashtbl.t = Hashtbl.create 32

  let order_rev : string list ref = ref []

  let default_buckets =
    [| 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

  let valid_name n =
    String.length n > 0
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n

  let kind_name = function
    | Counter -> "counter"
    | Gauge -> "gauge"
    | Histogram _ -> "histogram"

  let same_kind a b =
    match (a, b) with
    | Counter, Counter | Gauge, Gauge -> true
    | Histogram x, Histogram y -> x = y
    | _ -> false

  let register ~help ~labels name kind =
    if not (valid_name name) then
      Bgr_error.raise_error Internal "invalid metric name %S" name;
    let sorted_labels = List.sort compare labels in
    let labels = List.sort_uniq compare labels in
    if List.length labels <> List.length sorted_labels then
      Bgr_error.raise_error Internal "duplicate label names on metric %s" name;
    (match kind with
    | Histogram bounds ->
        let rec strictly i =
          i + 1 >= Array.length bounds || (bounds.(i) < bounds.(i + 1) && strictly (i + 1))
        in
        if Array.length bounds = 0 || not (strictly 0) then
          Bgr_error.raise_error Internal
            "histogram %s needs strictly increasing, non-empty bucket bounds" name
    | Counter | Gauge -> ());
    locked @@ fun () ->
    match Hashtbl.find_opt registry name with
    | Some f ->
        if not (same_kind f.f_kind kind) then
          Bgr_error.raise_error Internal "metric %s re-registered as %s, was %s" name
            (kind_name kind) (kind_name f.f_kind);
        if f.f_labelnames <> labels then
          Bgr_error.raise_error Internal "metric %s re-registered with different labels" name;
        f
    | None ->
        let f = { f_name = name; f_help = help; f_kind = kind; f_labelnames = labels; f_series_rev = [] } in
        (* Unlabelled families pre-create their single series so a
           registered-but-quiet metric still renders a zero sample. *)
        if labels = [] then begin
          let buckets =
            match kind with Histogram b -> Array.make (Array.length b + 1) 0 | _ -> [||]
          in
          f.f_series_rev <- [ { se_labels = []; se_value = 0.0; se_buckets = buckets; se_count = 0 } ]
        end;
        Hashtbl.add registry name f;
        order_rev := name :: !order_rev;
        f

  let counter ?(help = "") ?(labels = []) name = register ~help ~labels name Counter

  let gauge ?(help = "") ?(labels = []) name = register ~help ~labels name Gauge

  let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
    register ~help ~labels name (Histogram (Array.copy buckets))

  let find_series f labels =
    let labels = List.sort compare labels in
    match List.find_opt (fun s -> s.se_labels = labels) f.f_series_rev with
    | Some s -> Some s
    | None -> None

  let get_series f labels =
    let labels = List.sort compare labels in
    match List.find_opt (fun s -> s.se_labels = labels) f.f_series_rev with
    | Some s -> s
    | None ->
        if List.map fst labels <> f.f_labelnames then
          Bgr_error.raise_error Internal "metric %s expects labels {%s}, got {%s}" f.f_name
            (String.concat "," f.f_labelnames)
            (String.concat "," (List.map fst labels));
        let buckets =
          match f.f_kind with Histogram b -> Array.make (Array.length b + 1) 0 | _ -> [||]
        in
        let s = { se_labels = labels; se_value = 0.0; se_buckets = buckets; se_count = 0 } in
        f.f_series_rev <- s :: f.f_series_rev;
        s

  let inc ?(labels = []) ?(by = 1.0) f =
    if not (skip_record ()) then begin
      (match f.f_kind with
      | Counter -> ()
      | k -> Bgr_error.raise_error Internal "inc on %s metric %s" (kind_name k) f.f_name);
      if by < 0.0 then
        Bgr_error.raise_error Internal "counter %s incremented by negative %g" f.f_name by;
      locked @@ fun () ->
      let s = get_series f labels in
      s.se_value <- s.se_value +. by
    end

  let set ?(labels = []) f v =
    if not (skip_record ()) then begin
      (match f.f_kind with
      | Gauge -> ()
      | k -> Bgr_error.raise_error Internal "set on %s metric %s" (kind_name k) f.f_name);
      locked @@ fun () ->
      let s = get_series f labels in
      s.se_value <- v
    end

  let observe ?(labels = []) f v =
    if not (skip_record ()) then begin
      let bounds =
        match f.f_kind with
        | Histogram b -> b
        | k -> Bgr_error.raise_error Internal "observe on %s metric %s" (kind_name k) f.f_name
      in
      locked @@ fun () ->
      let s = get_series f labels in
      let n = Array.length bounds in
      let i =
        let rec find i = if i >= n then n else if v <= bounds.(i) then i else find (i + 1) in
        find 0
      in
      s.se_buckets.(i) <- s.se_buckets.(i) + 1;
      s.se_value <- s.se_value +. v;
      s.se_count <- s.se_count + 1
    end

  let value ?(labels = []) f =
    locked (fun () ->
        match find_series f labels with Some s -> Some s.se_value | None -> None)

  let histogram_snapshot ?(labels = []) f =
    locked @@ fun () ->
    match (f.f_kind, find_series f labels) with
    | Histogram bounds, Some s -> Some (Array.copy bounds, Array.copy s.se_buckets, s.se_value, s.se_count)
    | _ -> None

  let series f =
    locked (fun () -> List.rev_map (fun s -> (s.se_labels, s.se_value)) f.f_series_rev)

  let reset_values () =
    locked @@ fun () ->
    Hashtbl.iter
      (fun _ f ->
        let keep_empty = f.f_labelnames = [] in
        f.f_series_rev <-
          (if keep_empty then
             let buckets =
               match f.f_kind with Histogram b -> Array.make (Array.length b + 1) 0 | _ -> [||]
             in
             [ { se_labels = []; se_value = 0.0; se_buckets = buckets; se_count = 0 } ]
           else []))
      registry

  (* ---- rendering ---- *)

  let prom_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let label_block ?extra labels =
    let pairs =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels
      @ match extra with None -> [] | Some kv -> [ kv ]
    in
    match pairs with [] -> "" | pairs -> "{" ^ String.concat "," pairs ^ "}"

  (* Exact like the JSON dump; non-finite values in the exposition
     format's spelling. *)
  let prom_value v =
    if Float.is_finite v then Qjson.to_string (Qjson.Num v)
    else if Float.is_nan v then "NaN"
    else if v > 0.0 then "+Inf"
    else "-Inf"

  (* first-registration order *)
  let families () = List.rev !order_rev |> List.map (Hashtbl.find registry)

  let render_prometheus () =
    assert_orchestrator ~what:"Metrics.render_prometheus";
    locked @@ fun () ->
    let b = Buffer.create 4096 in
    List.iter
      (fun f ->
        if f.f_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.f_name (prom_escape f.f_help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
        let rows = List.rev f.f_series_rev in
        List.iter
          (fun s ->
            match f.f_kind with
            | Counter | Gauge ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" f.f_name (label_block s.se_labels)
                     (prom_value s.se_value))
            | Histogram bounds ->
                let cum = ref 0 in
                Array.iteri
                  (fun i le ->
                    cum := !cum + s.se_buckets.(i);
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                         (label_block ~extra:(Printf.sprintf "le=\"%s\"" (prom_value le)) s.se_labels)
                         !cum))
                  bounds;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                     (label_block ~extra:"le=\"+Inf\"" s.se_labels)
                     s.se_count);
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" f.f_name (label_block s.se_labels)
                     (prom_value s.se_value));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" f.f_name (label_block s.se_labels) s.se_count))
          rows)
      (families ());
    Buffer.contents b

  let series_json f s =
    let labels = Qjson.Obj (List.map (fun (k, v) -> (k, Qjson.Str v)) s.se_labels) in
    match f.f_kind with
    | Counter | Gauge -> Qjson.Obj [ ("labels", labels); ("value", Qjson.num s.se_value) ]
    | Histogram bounds ->
        let n = Array.length bounds in
        Qjson.Obj
          [ ("labels", labels);
            ("count", Qjson.int s.se_count);
            ("sum", Qjson.num s.se_value);
            ( "buckets",
              Qjson.Arr
                (List.init n (fun i -> Qjson.Arr [ Qjson.num bounds.(i); Qjson.int s.se_buckets.(i) ]))
            );
            ("overflow", Qjson.int s.se_buckets.(n)) ]

  let render_json () =
    assert_orchestrator ~what:"Metrics.render_json";
    locked @@ fun () ->
    let family_json f =
      Qjson.Obj
        [ ("name", Qjson.Str f.f_name);
          ("kind", Qjson.Str (kind_name f.f_kind));
          ("help", Qjson.Str f.f_help);
          ("label_names", Qjson.Arr (List.map (fun l -> Qjson.Str l) f.f_labelnames));
          ("series", Qjson.Arr (List.rev_map (series_json f) f.f_series_rev)) ]
    in
    Qjson.to_string (Qjson.Obj [ ("metrics", Qjson.Arr (List.map family_json (families ()))) ])

  (* ---- merging another process's [render_json] dump ----

     A worker process writes its registry with [render_json] just
     before it exits; the supervising daemon merges it back here
     (counters and histogram tallies add, gauges take the last write).
     Input from the other process is checked like any untrusted file:
     a family or series that does not decode, or disagrees with the
     registry on kind, label names or bucket bounds, is skipped with a
     warning. *)

  let all_some l = if List.mem None l then None else Some (List.filter_map Fun.id l)

  let field k conv j = Option.bind (Qjson.member k j) conv

  let strings_of l = Option.bind (Qjson.to_list l) (fun l -> all_some (List.map Qjson.to_str l))

  let labels_of j =
    Option.bind (field "labels" Qjson.to_obj j) (fun kvs ->
        all_some (List.map (fun (k, v) -> Option.map (fun s -> (k, s)) (Qjson.to_str v)) kvs))

  (* [(bound, count)] per finite bucket *)
  let buckets_of j =
    let bucket b =
      match Qjson.to_list b with
      | Some [ le; c ] -> (
          match (Qjson.to_float le, Qjson.to_int c) with
          | Some le, Some c -> Some (le, c)
          | _ -> None)
      | _ -> None
    in
    Option.bind (field "buckets" Qjson.to_list j) (fun bs -> all_some (List.map bucket bs))

  (* Add one decoded series into [f]; false when it does not fit. *)
  let merge_series f j =
    match labels_of j with
    | Some labels when List.sort compare (List.map fst labels) = f.f_labelnames -> (
        match f.f_kind with
        | Counter | Gauge -> (
            match field "value" Qjson.to_float j with
            | None -> false
            | Some v ->
                locked (fun () ->
                    let s = get_series f labels in
                    s.se_value <- (if f.f_kind = Gauge then v else s.se_value +. v));
                true)
        | Histogram bounds -> (
            match
              ( field "count" Qjson.to_int j,
                field "sum" Qjson.to_float j,
                buckets_of j,
                field "overflow" Qjson.to_int j )
            with
            | Some count, Some sum, Some bs, Some overflow
              when Array.of_list (List.map fst bs) = bounds ->
                locked (fun () ->
                    let s = get_series f labels in
                    List.iteri (fun i (_, c) -> s.se_buckets.(i) <- s.se_buckets.(i) + c) bs;
                    let n = Array.length bounds in
                    s.se_buckets.(n) <- s.se_buckets.(n) + overflow;
                    s.se_value <- s.se_value +. sum;
                    s.se_count <- s.se_count + count);
                true
            | _ -> false))
    | _ -> false

  let merge_json ?(source = "worker") text =
    assert_orchestrator ~what:"Metrics.merge_json";
    let bad fmt = Printf.ksprintf (fun m -> warn "metrics merge (%s): %s" source m) fmt in
    let merge_family j =
      match
        ( field "name" Qjson.to_str j,
          field "kind" Qjson.to_str j,
          field "label_names" strings_of j,
          field "series" Qjson.to_list j )
      with
      | Some name, Some kind, Some labels, Some series -> (
          let help = Option.value (field "help" Qjson.to_str j) ~default:"" in
          let family () =
            match (kind, series) with
            | "counter", _ -> Some (counter ~help ~labels name)
            | "gauge", _ -> Some (gauge ~help ~labels name)
            | "histogram", [] -> None
            | "histogram", first :: _ -> (
                (* bounds travel with each series; the first fixes the layout *)
                match buckets_of first with
                | Some bs ->
                    Some (histogram ~help ~labels ~buckets:(Array.of_list (List.map fst bs)) name)
                | None ->
                    bad "unparsable bucket bounds for %s" name;
                    None)
            | k, _ ->
                bad "unknown family kind %S for %s" k name;
                None
          in
          match family () with
          | exception Bgr_error.Error e ->
              bad "family %s incompatible with registry: %s" name e.Bgr_error.message;
              0
          | None -> 0
          | Some f ->
              List.fold_left
                (fun n sj ->
                  if merge_series f sj then n + 1
                  else begin
                    bad "series of %s skipped (unparsable, or label or bucket mismatch)" name;
                    n
                  end)
                0 series)
      | _ ->
          bad "malformed family entry skipped";
          0
    in
    match Qjson.parse text with
    | Error m ->
        bad "%s" m;
        0
    | Ok j -> (
        match field "metrics" Qjson.to_list j with
        | None ->
            bad "no metrics array";
            0
        | Some families -> List.fold_left (fun n j -> n + merge_family j) 0 families)
end

let reset () =
  assert_orchestrator ~what:"reset";
  Trace.close_sinks ();
  Trace.reset ();
  Metrics.reset_values ();
  warnings_rev := [];
  if !enabled_flag then Trace.epoch := now_s ()
