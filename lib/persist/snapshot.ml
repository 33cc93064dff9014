type t = {
  s_phases : string list;
  s_deletions : int;
  s_del_hash : int;
  s_live : int list array;
  s_densities : (int * int) array array;
}

let of_checkpoint ~phases ~dens ck =
  let deletions, del_hash = Router.checkpoint_stats ck in
  { s_phases = phases;
    s_deletions = deletions;
    s_del_hash = del_hash;
    s_live = Router.checkpoint_live ck;
    s_densities =
      Array.init (Density.n_channels dens) (fun c -> Density.chart dens ~channel:c) }

let to_checkpoint t =
  Router.checkpoint_make ~deletions:t.s_deletions ~del_hash:t.s_del_hash ~live:t.s_live

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "bgr-snapshot 1\n";
  Buffer.add_string b "phases";
  List.iter
    (fun p ->
      Buffer.add_char b ' ';
      Buffer.add_string b p)
    t.s_phases;
  Buffer.add_char b '\n';
  Printf.bprintf b "deletions %d\n" t.s_deletions;
  Printf.bprintf b "hash %d\n" t.s_del_hash;
  Printf.bprintf b "nets %d\n" (Array.length t.s_live);
  Array.iteri
    (fun n live ->
      Printf.bprintf b "net %d %d" n (List.length live);
      List.iter (fun e -> Printf.bprintf b " %d" e) live;
      Buffer.add_char b '\n')
    t.s_live;
  Printf.bprintf b "densities %d\n" (Array.length t.s_densities);
  Array.iteri
    (fun c chart ->
      Printf.bprintf b "chart %d dM" c;
      Array.iter (fun (d_max, _) -> Printf.bprintf b " %d" d_max) chart;
      Buffer.add_char b '\n';
      Printf.bprintf b "chart %d dm" c;
      Array.iter (fun (_, d_min) -> Printf.bprintf b " %d" d_min) chart;
      Buffer.add_char b '\n')
    t.s_densities;
  let body = Buffer.contents b in
  Printf.sprintf "%scrc %08x\n" body (Crc32.string body)

exception Bad of string

let of_string ?file s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match
    (* Split off the [crc XXXXXXXX] trailer (the last line). *)
    let len = String.length s in
    let e = if len > 0 && s.[len - 1] = '\n' then len - 1 else len in
    if e <= 0 then fail "empty snapshot";
    let body, trailer =
      match String.rindex_from_opt s (e - 1) '\n' with
      | None -> fail "snapshot has no CRC trailer"
      | Some i -> (String.sub s 0 (i + 1), String.sub s (i + 1) (e - i - 1))
    in
    let crc =
      match String.split_on_char ' ' (String.trim trailer) with
      | [ "crc"; hex ] -> (
        match int_of_string_opt ("0x" ^ hex) with
        | Some v -> v
        | None -> fail "snapshot CRC trailer is not hexadecimal")
      | _ -> fail "snapshot has no CRC trailer"
    in
    if Crc32.string body <> crc then fail "snapshot CRC mismatch (torn or corrupted write)";
    let int_tok what tok =
      match int_of_string_opt tok with
      | Some v -> v
      | None -> fail "snapshot: %s wants an integer, got %S" what tok
    in
    let lines =
      String.split_on_char '\n' body
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" then None
             else Some (String.split_on_char ' ' l |> List.filter (fun t -> t <> "")))
    in
    let expect_header = function
      | [ "bgr-snapshot"; "1" ] :: rest -> rest
      | _ -> fail "not a bgr snapshot (or unsupported version)"
    in
    let lines = expect_header lines in
    let phases, lines =
      match lines with
      | ("phases" :: ps) :: rest -> (ps, rest)
      | _ -> fail "snapshot: expected a phases line"
    in
    let scalar name lines =
      match lines with
      | [ key; v ] :: rest when key = name -> (int_tok name v, rest)
      | _ -> fail "snapshot: expected a %s line" name
    in
    let deletions, lines = scalar "deletions" lines in
    let hash, lines = scalar "hash" lines in
    let n_nets, lines = scalar "nets" lines in
    if n_nets < 0 then fail "snapshot: negative net count";
    let live = Array.make n_nets [] in
    let lines = ref lines in
    for n = 0 to n_nets - 1 do
      match !lines with
      | ("net" :: id :: count :: edges) :: rest ->
        if int_tok "net id" id <> n then fail "snapshot: net lines out of order at %d" n;
        let edges = List.map (int_tok "edge id") edges in
        if List.length edges <> int_tok "edge count" count then
          fail "snapshot: net %d edge count disagrees with its list" n;
        live.(n) <- edges;
        lines := rest
      | _ -> fail "snapshot: expected a net line for net %d" n
    done;
    let n_channels, rest = scalar "densities" !lines in
    if n_channels < 0 then fail "snapshot: negative channel count";
    lines := rest;
    let densities =
      Array.init n_channels (fun c ->
          match !lines with
          | ("chart" :: id1 :: "dM" :: maxs) :: ("chart" :: id2 :: "dm" :: mins) :: rest ->
            if int_tok "channel" id1 <> c || int_tok "channel" id2 <> c then
              fail "snapshot: chart lines out of order at channel %d" c;
            let maxs = List.map (int_tok "d_M") maxs and mins = List.map (int_tok "d_m") mins in
            if List.length maxs <> List.length mins then
              fail "snapshot: chart widths disagree in channel %d" c;
            lines := rest;
            Array.of_list (List.combine maxs mins)
          | _ -> fail "snapshot: expected two chart lines for channel %d" c)
    in
    if !lines <> [] then fail "snapshot: trailing garbage after the charts";
    { s_phases = phases;
      s_deletions = deletions;
      s_del_hash = hash;
      s_live = live;
      s_densities = densities }
  with
  | t -> Ok t
  | exception Bad m -> Error (Bgr_error.make ?file ~phase:"persist" Bgr_error.Parse "%s" m)

let m_bytes =
  Obs.Metrics.gauge "bgr_snapshot_bytes" ~help:"Size of the most recent snapshot, in bytes"

let m_write =
  Obs.Metrics.histogram "bgr_snapshot_write_seconds"
    ~help:"Latency of one atomic snapshot write (serialize + fsync + rename)"

let write ~path t =
  Fault.check ~phase:"persist" "persist.snapshot";
  Obs.Trace.span "persist:snapshot" @@ fun () ->
  let t0 = if Obs.enabled () then Obs.now_s () else 0.0 in
  let tmp = path ^ ".tmp" in
  match
    let s = to_string t in
    Obs.Metrics.set m_bytes (float_of_int (String.length s));
    let oc = open_out_bin tmp in
    output_string oc s;
    flush oc;
    Fault.check ~phase:"persist" "persist.fsync";
    (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
    close_out oc;
    Sys.rename tmp path;
    Flight.record Flight.k_snapshot ~a:0 ~b:0 ~c:0 ~d:(String.length s)
  with
  | () ->
    if Obs.enabled () then Obs.Metrics.observe m_write (Obs.now_s () -. t0);
    Obs.Trace.add_attr "path" (Obs.Trace.Str path)
  | exception Sys_error msg ->
    Bgr_error.raise_error ~phase:"persist" ~file:path Bgr_error.Io_error "%s" msg

let load ~path =
  match Lineio.read_all path with
  | s -> of_string ~file:path s
  | exception Sys_error msg ->
    Error (Bgr_error.make ~file:path ~phase:"persist" Bgr_error.Io_error "%s" msg)
