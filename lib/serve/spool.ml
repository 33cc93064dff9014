let job_file = "JOB"
let result_file = "RESULT"
let error_file = "ERROR"

let ( / ) = Filename.concat

type job = {
  j_id : string;
  j_timing_driven : bool;
  j_deadline_ms : int option;
  j_attempts : int;
  j_kills : int;
  j_last_kill : string;
  j_kill_history : string list;
}

type t = { t_root : string; mutable t_scan_warnings : string list }

let io_fail path msg =
  Bgr_error.raise_error ~phase:"serve" ~file:path Bgr_error.Io_error "%s" msg

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) -> io_fail dir (Unix.error_message e)

let open_root root =
  ensure_dir root;
  ensure_dir (root / "jobs");
  ensure_dir (root / "dead");
  ensure_dir (root / "quarantine");
  { t_root = root; t_scan_warnings = [] }

let root t = t.t_root

let job_dir t id = t.t_root / "jobs" / id

let dead_dir t id = t.t_root / "dead" / id

let quarantine_dir t id = t.t_root / "quarantine" / id

(* Atomic durable write (temp file, fsync, rename), as a structured
   error. *)
let write_file_atomic path s =
  try Obs.write_file_atomic path s with Sys_error msg -> io_fail path msg

let read_file path =
  match Lineio.read_all path with
  | s -> Ok s
  | exception Sys_error msg ->
    Error (Bgr_error.make ~file:path ~phase:"serve" Bgr_error.Io_error "%s" msg)

let list_dir path =
  match Sys.readdir path with
  | entries ->
    let l = Array.to_list entries in
    List.sort compare l
  | exception Sys_error _ -> []

let exists t id =
  Sys.file_exists (job_dir t id)
  || Sys.file_exists (dead_dir t id)
  || Sys.file_exists (quarantine_dir t id)

let fresh_id t =
  let numeric_suffix name =
    if String.length name > 4 && String.sub name 0 4 = "job-" then
      int_of_string_opt (String.sub name 4 (String.length name - 4))
    else None
  in
  let top =
    List.fold_left
      (fun acc name -> match numeric_suffix name with Some n -> max acc n | None -> acc)
      0
      (list_dir (t.t_root / "jobs")
      @ list_dir (t.t_root / "dead")
      @ list_dir (t.t_root / "quarantine"))
  in
  Printf.sprintf "job-%06d" (top + 1)

(* --- the JOB manifest -------------------------------------------------- *)

(* [kills]/[last_kill] were added after manifests already existed on
   disk, so they are only written when meaningful and are optional on
   parse — a pre-existing JOB file still loads. *)
let job_string j =
  let base =
    Printf.sprintf "bgr-job 1\nid %s\ntiming_driven %b\ndeadline_ms %d\nattempts %d\n"
      j.j_id j.j_timing_driven
      (match j.j_deadline_ms with None -> 0 | Some ms -> ms)
      j.j_attempts
  in
  if j.j_kills = 0 && j.j_last_kill = "" then base
  else
    Printf.sprintf "%skills %d\nlast_kill %s\n%s" base j.j_kills j.j_last_kill
      (* the full reason sequence; reasons come from the kill_reason
         vocabulary (no commas or spaces), joined oldest first *)
      (match j.j_kill_history with
      | [] -> ""
      | h -> Printf.sprintf "kill_history %s\n" (String.concat "," h))

exception Bad of string

let parse_job ?file s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  match
    let kv =
      String.split_on_char '\n' s
      |> List.filter_map (fun l ->
             let l = String.trim l in
             if l = "" then None
             else
               match String.index_opt l ' ' with
               | None -> fail "job manifest line %S has no value" l
               | Some i ->
                 Some (String.sub l 0 i, String.trim (String.sub l i (String.length l - i))))
    in
    (match kv with
    | ("bgr-job", "1") :: _ -> ()
    | _ -> fail "not a bgr job manifest (or unsupported version)");
    let get k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> fail "job manifest is missing the %s field" k
    in
    let int_of k =
      match int_of_string_opt (get k) with
      | Some v -> v
      | None -> fail "job manifest field %s wants an integer, got %S" k (get k)
    in
    let td =
      match get "timing_driven" with
      | "true" -> true
      | "false" -> false
      | v -> fail "job manifest field timing_driven wants a boolean, got %S" v
    in
    let deadline = int_of "deadline_ms" in
    let kills =
      match List.assoc_opt "kills" kv with
      | None -> 0
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail "job manifest field kills wants an integer, got %S" v)
    in
    { j_id = get "id";
      j_timing_driven = td;
      j_deadline_ms = (if deadline = 0 then None else Some deadline);
      j_attempts = int_of "attempts";
      j_kills = kills;
      j_last_kill = Option.value (List.assoc_opt "last_kill" kv) ~default:"";
      j_kill_history =
        (match List.assoc_opt "kill_history" kv with
        | None | Some "" -> []
        | Some h -> String.split_on_char ',' h) }
  with
  | j -> Ok j
  | exception Bad m -> Error (Bgr_error.make ?file ~phase:"serve" Bgr_error.Parse "%s" m)

let accept t j ~design_text =
  let dir = job_dir t j.j_id in
  ensure_dir dir;
  write_file_atomic (dir / Persist.design_file) design_text;
  write_file_atomic (dir / job_file) (job_string j)

let load_job t id =
  let candidates = [ job_dir t id; dead_dir t id; quarantine_dir t id ] in
  let path =
    match List.find_opt (fun d -> Sys.file_exists (d / job_file)) candidates with
    | Some d -> d / job_file
    | None -> job_dir t id / job_file
  in
  Result.bind (read_file path) (parse_job ~file:path)

let read_manifest dir = Result.bind (read_file (dir / job_file)) (parse_job ~file:(dir / job_file))

let record_attempt t j =
  let j = { j with j_attempts = j.j_attempts + 1 } in
  write_file_atomic (job_dir t j.j_id / job_file) (job_string j);
  j

let record_kill t j ~reason =
  let j =
    { j with
      j_kills = j.j_kills + 1;
      j_last_kill = reason;
      j_kill_history = j.j_kill_history @ [ reason ] }
  in
  write_file_atomic (job_dir t j.j_id / job_file) (job_string j);
  j

let mark_done t id ~json = write_file_atomic (job_dir t id / result_file) (json ^ "\n")

let retire t id ~json =
  let dir = job_dir t id in
  write_file_atomic (dir / error_file) (json ^ "\n");
  match Sys.rename dir (dead_dir t id) with
  | () -> ()
  | exception Sys_error msg -> io_fail dir msg

let quarantine t id ~json =
  let dir = job_dir t id in
  write_file_atomic (dir / error_file) (json ^ "\n");
  match Sys.rename dir (quarantine_dir t id) with
  | () -> ()
  | exception Sys_error msg -> io_fail dir msg

type state = Pending of job | Done of string | Dead of string | Quarantined of string

let state_of t id =
  let live = job_dir t id in
  let error_json dir fallback =
    match read_file (dir / error_file) with
    | Ok s -> String.trim s
    | Error _ -> fallback
  in
  if Sys.file_exists live then begin
    let result = live / result_file in
    if Sys.file_exists result then
      match read_file result with
      | Ok s -> Some (Done (String.trim s))
      | Error _ -> Some (Done "{}")
    else
      match load_job t id with
      | Ok j -> Some (Pending j)
      | Error _ -> None
  end
  else if Sys.file_exists (dead_dir t id) then
    Some (Dead (error_json (dead_dir t id) "{}"))
  else if Sys.file_exists (quarantine_dir t id) then
    Some (Quarantined (error_json (quarantine_dir t id) "{}"))
  else None

let revive ?(force = false) t id =
  let dead = dead_dir t id and quarantined = quarantine_dir t id in
  let from =
    if Sys.file_exists dead then Ok dead
    else if Sys.file_exists quarantined then
      if force then Ok quarantined
      else
        Error
          (Bgr_error.make ~phase:"serve" Bgr_error.Validate
             "job %s is quarantined (it repeatedly killed its worker); revive it with force \
              to retry anyway"
             id)
    else
      Error
        (Bgr_error.make ~phase:"serve" Bgr_error.Validate
           "job %s is not in the dead-letter or quarantine dir" id)
  in
  Result.bind from (fun src ->
      match Sys.rename src (job_dir t id) with
      | exception Sys_error msg ->
        Error (Bgr_error.make ~file:src ~phase:"serve" Bgr_error.Io_error "%s" msg)
      | () ->
        (try Sys.remove (job_dir t id / error_file) with Sys_error _ -> ());
        Result.map
          (fun j ->
            let j =
              { j with j_attempts = 0; j_kills = 0; j_last_kill = ""; j_kill_history = [] }
            in
            write_file_atomic (job_dir t id / job_file) (job_string j);
            j)
          (load_job t id))

let scan t =
  t.t_scan_warnings <- [];
  List.filter_map
    (fun id ->
      let dir = t.t_root / "jobs" / id in
      if not (Sys.is_directory dir) then None
      else if Sys.file_exists (dir / result_file) then None
      else
        match load_job t id with
        | Ok j -> Some j
        | Error e ->
          t.t_scan_warnings <-
            t.t_scan_warnings
            @ [ Printf.sprintf "skipping job %s: %s" id e.Bgr_error.message ];
          None)
    (list_dir (t.t_root / "jobs"))

let scan_warnings t = t.t_scan_warnings
