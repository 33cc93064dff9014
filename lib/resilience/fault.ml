type mode = Nth of int | Prob of float | Always

type plan = { seed : int; rules : (string * mode) list }

(* --- the site registry ------------------------------------------------ *)

(* Every injection site the pipeline actually calls.  A plan naming a
   site outside this registry would silently never fire — the test it
   belongs to would pass vacuously — so parse_plan rejects it. *)
let builtin_sites =
  [ "io.parse";
    "router.improve";
    "par.spawn";
    "persist.append";
    "persist.snapshot";
    "persist.fsync";
    "obs.sink";
    "analyze.qlog";
    "serve.accept";
    "serve.read";
    "serve.write";
    "serve.job";
    "serve.worker.spawn";
    "serve.worker.hang";
    "serve.worker.kill" ]

let declared_sites : (string, unit) Hashtbl.t = Hashtbl.create 8

let declare_site s = Hashtbl.replace declared_sites s ()

let known_site s = List.mem s builtin_sites || Hashtbl.mem declared_sites s

let parse_entry s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault entry %S has no ':' (want SITE:n=K | SITE:p=F | SITE:always)" s)
  | Some i ->
    let site = String.trim (String.sub s 0 i) in
    let spec = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
    if site = "" then Error (Printf.sprintf "fault entry %S names no site" s)
    else begin
      match String.split_on_char '=' spec with
      | [ "always" ] -> Ok (site, Always)
      | [ "n"; k ] -> (
        match int_of_string_opt k with
        | Some k when k >= 1 -> Ok (site, Nth k)
        | Some _ | None -> Error (Printf.sprintf "fault entry %S: n wants a positive integer" s))
      | [ "p"; f ] -> (
        match float_of_string_opt f with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok (site, Prob p)
        | Some _ | None -> Error (Printf.sprintf "fault entry %S: p wants a probability in [0,1]" s))
      | _ -> Error (Printf.sprintf "fault entry %S: unknown mode %S" s spec)
    end

let parse_plan text =
  let entries =
    String.split_on_char ';' text
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go seed rules = function
    | [] -> Ok { seed; rules = List.rev rules }
    | e :: rest ->
      if String.length e > 5 && String.sub e 0 5 = "seed=" then begin
        match int_of_string_opt (String.sub e 5 (String.length e - 5)) with
        | Some s -> go s rules rest
        | None -> Error (Printf.sprintf "fault plan: bad seed in %S" e)
      end
      else begin
        match parse_entry e with
        | Ok (site, _) when List.mem_assoc site rules ->
          (* Silently taking the last (or first) clause would make a
             typo'd plan test something other than what it says. *)
          Error (Printf.sprintf "fault plan: duplicate clause for site %S" site)
        | Ok (site, _) when not (known_site site) ->
          (* An unknown site would never fire and the plan would test
             nothing; reject it at the boundary instead. *)
          Error
            (Printf.sprintf "fault plan: unknown site %S (known sites: %s)" site
               (String.concat ", " builtin_sites))
        | Ok r -> go seed (r :: rules) rest
        | Error m -> Error m
      end
  in
  go 1 [] entries

(* --- installation ---------------------------------------------------- *)

type installation = {
  i_plan : plan;
  hits : (string, int) Hashtbl.t;
  fired_tbl : (string, int) Hashtbl.t;
  mutable rng : int;
}

let mk_installation plan =
  { i_plan = plan;
    hits = Hashtbl.create 8;
    fired_tbl = Hashtbl.create 8;
    rng = (plan.seed * 2654435761) lxor 0x9e3779b9 }

(* The active installation.  Sites are hit from pool workers too, so
   all access serializes on [m]. *)
let m = Mutex.create ()
let current : installation option ref = ref None
let env_loaded = ref false

let load_env_locked () =
  if not !env_loaded then begin
    env_loaded := true;
    match Sys.getenv_opt "BGR_FAULT_PLAN" with
    | None | Some "" -> ()
    | Some text -> (
      match parse_plan text with
      | Ok plan -> current := Some (mk_installation plan)
      | Error msg -> Printf.eprintf "BGR_FAULT_PLAN ignored: %s\n%!" msg)
  end

let with_plan plan f =
  Mutex.lock m;
  load_env_locked ();
  let saved = !current in
  current := Some (mk_installation plan);
  Mutex.unlock m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock m;
      current := saved;
      Mutex.unlock m)
    f

let active () =
  Mutex.lock m;
  load_env_locked ();
  let r = match !current with Some i -> i.i_plan.rules <> [] | None -> false in
  Mutex.unlock m;
  r

let next_unit inst =
  (* Deterministic 48-bit LCG (Java's constants); only consumed when a
     [p=] rule is hit. *)
  inst.rng <- ((inst.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  float_of_int ((inst.rng lsr 24) land 0xFFFFFF) /. float_of_int 0x1000000

let trip site =
  Mutex.lock m;
  load_env_locked ();
  let fire =
    match !current with
    | None -> false
    | Some inst -> (
      match List.assoc_opt site inst.i_plan.rules with
      | None -> false
      | Some mode ->
        let n = 1 + Option.value (Hashtbl.find_opt inst.hits site) ~default:0 in
        Hashtbl.replace inst.hits site n;
        let fire =
          match mode with Nth k -> n = k | Always -> true | Prob p -> next_unit inst < p
        in
        if fire then
          Hashtbl.replace inst.fired_tbl site
            (1 + Option.value (Hashtbl.find_opt inst.fired_tbl site) ~default:0);
        fire)
  in
  Mutex.unlock m;
  fire

let check ?phase site =
  if trip site then
    raise (Bgr_error.Error (Bgr_error.make ?phase Bgr_error.Fault "injected fault at site %s" site))

let fired site =
  Mutex.lock m;
  let r =
    match !current with
    | None -> 0
    | Some inst -> Option.value (Hashtbl.find_opt inst.fired_tbl site) ~default:0
  in
  Mutex.unlock m;
  r
