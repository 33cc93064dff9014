type record = { q_t_s : float; q_sample : Router.quality_sample }

let magic = "BGRQ1\n"
let default_filename = "quality.bgrq"

let kind_code = function
  | Router.Q_cadence -> 0
  | Router.Q_pass -> 1
  | Router.Q_phase -> 2

let kind_of_code = function
  | 0 -> Router.Q_cadence
  | 1 -> Router.Q_pass
  | _ -> Router.Q_phase

(* --- encoding -------------------------------------------------------- *)

(* One {!Frame} per sample, floats as IEEE-754 bit patterns.  The
   payload is self-describing (length-prefixed phase and criterion
   strings, counted arrays), so readers need no side table — unlike the
   deletion journal there is no fixed payload length. *)

let add_short_string b s =
  let s = if String.length s > 255 then String.sub s 0 255 else s in
  Buffer.add_uint8 b (String.length s);
  Buffer.add_string b s

let clamp_u16 v = if v < 0 then 0 else if v > 0xFFFF then 0xFFFF else v

let encode_payload (r : record) =
  let s = r.q_sample in
  let b = Buffer.create 128 in
  Buffer.add_uint8 b (kind_code s.Router.qs_kind);
  add_short_string b s.qs_phase;
  Buffer.add_uint16_be b (clamp_u16 s.qs_pass);
  Buffer.add_int64_be b (Int64.of_int s.qs_deletions);
  Frame.put_f64 b r.q_t_s;
  Frame.put_f64 b s.qs_worst_margin_ps;
  Buffer.add_int32_be b (Int32.of_int s.qs_worst_constraint);
  Buffer.add_int32_be b (Int32.of_int s.qs_violations);
  Frame.put_f64 b s.qs_total_negative_ps;
  Frame.put_f64 b s.qs_ep_slack_min_ps;
  Frame.put_f64 b s.qs_ep_slack_max_ps;
  Buffer.add_uint16_be b (clamp_u16 (Array.length s.qs_density));
  Array.iter (fun d -> Buffer.add_int32_be b (Int32.of_int d)) s.qs_density;
  let crit = if List.length s.qs_criteria > 255 then [] else s.qs_criteria in
  Buffer.add_uint8 b (List.length crit);
  List.iter
    (fun (name, count) ->
      add_short_string b name;
      Buffer.add_int32_be b (Int32.of_int count))
    crit;
  Buffer.add_uint16_be b (clamp_u16 (Array.length s.qs_margins));
  Array.iter (fun m -> Frame.put_f64 b m) s.qs_margins;
  Buffer.contents b

let encode_frame r = Frame.encode (encode_payload r)

let decode_payload s =
  let limit = String.length s in
  let p = ref 0 in
  let need n what =
    if !p + n > limit then raise (Frame.Malformed (Printf.sprintf "truncated %s" what))
  in
  let u8 what = need 1 what; let v = Char.code s.[!p] in incr p; v in
  let u16 what = need 2 what; let v = String.get_uint16_be s !p in p := !p + 2; v in
  let u32 what =
    need 4 what;
    let v = Int32.to_int (String.get_int32_be s !p) land 0xFFFFFFFF in
    p := !p + 4;
    v
  in
  let i32 what = need 4 what; let v = Int32.to_int (String.get_int32_be s !p) in p := !p + 4; v in
  let i64 what = need 8 what; let v = Int64.to_int (String.get_int64_be s !p) in p := !p + 8; v in
  let f64 what =
    need 8 what;
    let v = Int64.float_of_bits (String.get_int64_be s !p) in
    p := !p + 8;
    v
  in
  let short_string what =
    let n = u8 what in
    need n what;
    let v = String.sub s !p n in
    p := !p + n;
    v
  in
  let qs_kind = kind_of_code (u8 "kind") in
  let qs_phase = short_string "phase" in
  let qs_pass = u16 "pass" in
  let qs_deletions = i64 "deletions" in
  let q_t_s = f64 "time" in
  let qs_worst_margin_ps = f64 "worst margin" in
  let qs_worst_constraint = i32 "worst constraint" in
  let qs_violations = u32 "violations" in
  let qs_total_negative_ps = f64 "total negative margin" in
  let qs_ep_slack_min_ps = f64 "endpoint slack min" in
  let qs_ep_slack_max_ps = f64 "endpoint slack max" in
  let n_density = u16 "density count" in
  let qs_density = Array.init n_density (fun _ -> u32 "density") in
  let n_crit = u8 "criterion count" in
  let qs_criteria =
    List.init n_crit (fun _ ->
        let name = short_string "criterion name" in
        let count = u32 "criterion count" in
        (name, count))
  in
  let n_margins = u16 "margin count" in
  let qs_margins = Array.init n_margins (fun _ -> f64 "margin") in
  if !p <> limit then
    raise (Frame.Malformed (Printf.sprintf "%d trailing bytes in record payload" (limit - !p)));
  { q_t_s;
    q_sample =
      { Router.qs_kind;
        qs_phase;
        qs_pass;
        qs_deletions;
        qs_worst_margin_ps;
        qs_worst_constraint;
        qs_total_negative_ps;
        qs_violations;
        qs_ep_slack_min_ps;
        qs_ep_slack_max_ps;
        qs_density;
        qs_criteria;
        qs_margins } }

(* --- writing --------------------------------------------------------- *)

type writer = {
  w_oc : out_channel;
  w_path : string;
  w_t0 : float;
  mutable w_appended : int;
  mutable w_closed : bool;
}

let create ~path =
  match open_out_bin path with
  | oc ->
    output_string oc magic;
    flush oc;
    { w_oc = oc; w_path = path; w_t0 = Obs.now_s (); w_appended = 0; w_closed = false }
  | exception Sys_error msg ->
    Bgr_error.raise_error ~phase:"analyze" ~file:path Bgr_error.Io_error "%s" msg

let append w sample =
  Fault.check ~phase:"analyze" "analyze.qlog";
  let r = { q_t_s = Obs.now_s () -. w.w_t0; q_sample = sample } in
  output_string w.w_oc (encode_frame r);
  flush w.w_oc;
  w.w_appended <- w.w_appended + 1;
  r

let appended w = w.w_appended
let path w = w.w_path

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    try flush w.w_oc; close_out_noerr w.w_oc with Sys_error _ -> ()
  end

(* Telemetry must never fail (or alter) the run: an open failure and
   the first append failure each become one [warn] line, and a failed
   append closes the log and stops recording. *)
let sink ~warn path =
  match create ~path with
  | exception Bgr_error.Error e ->
    warn ("warning: quality: " ^ e.Bgr_error.message);
    (None, fun () -> None)
  | w ->
    let dead = ref false in
    let emit s =
      if not !dead then
        try ignore (append w s)
        with e ->
          dead := true;
          close w;
          let m =
            match e with Bgr_error.Error err -> err.Bgr_error.message | e -> Printexc.to_string e
          in
          warn ("warning: quality: recording stopped: " ^ m)
    in
    ( Some emit,
      fun () ->
        close w;
        if !dead then None else Some w.w_appended )

(* --- reading --------------------------------------------------------- *)

type read_result = { records : record list; torn : bool; warnings : string list }

let read_string ?file s =
  Frame.read_string ~magic ~max_len:0xFFFFF ~what:"quality log" ~phase:"analyze" ?file ~init:[]
    (fun ~at:_ records payload -> decode_payload payload :: records)
    s
  |> Result.map (fun (r : _ Frame.salvaged) ->
         { records = List.rev r.value; torn = r.torn; warnings = Option.to_list r.warning })

let read ~path = Result.bind (Frame.read_file ~phase:"analyze" path) (read_string ~file:path)
