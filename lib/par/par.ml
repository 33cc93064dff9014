let available_domains () = Domain.recommended_domain_count ()

let default_domains () =
  match Sys.getenv_opt "BGR_DOMAINS" with
  | None -> available_domains ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> available_domains ())

(* One mailbox per helper: [job = Some _] means a round is in flight.
   The same condition serves both directions — the helper waits while
   the mailbox is empty, the submitter waits while it is full — the
   predicates are disjoint. *)
type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
  mutable dead : bool;  (* helper domain exited; mailbox stays empty *)
  mutable respawned : bool;  (* the slot's single respawn is spent *)
  mutable retired : bool;  (* permanently out of service *)
  mutable busy_s : float;
      (* Cumulative seconds this helper spent inside jobs.  Written by
         the helper itself between rounds; the orchestrator reads it
         only after the barrier (the mailbox handshake orders the
         accesses), folding the delta since [busy_reported_s] into the
         metrics registry. *)
  mutable busy_reported_s : float;
}

type t = {
  workers : worker array;
  handles : unit Domain.t option array;
  mutable alive : bool;
  mutable in_round : bool;
      (* A round is in flight: a nested submission from the caller's
         own chunk would clobber the helpers' mailboxes, so it runs
         sequentially instead (only the orchestrating domain ever
         touches this flag). *)
  mutable warnings_rev : string list;
}

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* Obs cannot depend on this library (Par already depends on nothing
   below bgr_resilience, and Router sits on both); the probe injection
   gives the registry its "drop records from workers" discipline
   without a cycle. *)
let () = Obs.set_worker_probe in_worker

let m_busy =
  Obs.Metrics.counter "bgr_domain_busy_seconds" ~labels:[ "domain" ]
    ~help:"Seconds each domain spent executing pool chunks (domain 0 is the orchestrator)"

let m_idle =
  Obs.Metrics.counter "bgr_domain_idle_seconds" ~labels:[ "domain" ]
    ~help:"Seconds each domain sat idle inside pool rounds it participated in"

let m_rounds = Obs.Metrics.counter "bgr_par_rounds_total" ~help:"Parallel pool rounds dispatched"

let m_chunks =
  Obs.Metrics.counter "bgr_par_chunks_total" ~help:"Work chunks executed across all pool rounds"

let m_respawns =
  Obs.Metrics.counter "bgr_par_respawns_total" ~help:"Pool workers respawned after a death"

let assert_orchestrator ~what =
  if in_worker () then
    Bgr_error.raise_error Bgr_error.Internal
      "%s must run on the orchestrating domain, never a pool worker" what

(* Mark a worker dead under its lock with the mailbox cleared, so a
   barrier waiting on [job = None] can never hang on it. *)
let mark_dead w =
  Mutex.lock w.m;
  w.dead <- true;
  w.job <- None;
  Condition.broadcast w.cv;
  Mutex.unlock w.m

let worker_loop w =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    Mutex.lock w.m;
    while w.job = None && not w.stop do
      Condition.wait w.cv w.m
    done;
    match w.job with
    | None -> Mutex.unlock w.m (* stop requested *)
    | Some job ->
      Mutex.unlock w.m;
      (* Injected worker death fires after pickup but before any chunk
         is pulled: the atomic counter hands the whole round to the
         surviving participants (the caller always participates), so a
         death never loses work — it only costs parallelism. *)
      if Fault.trip "par.worker" then mark_dead w
      else begin
        (* The job wrapper traps its own exceptions into the round's
           result cell; anything escaping here would kill the helper, so
           swallow defensively. *)
        let timed = Obs.enabled () in
        let t0 = if timed then Obs.now_s () else 0.0 in
        (try job () with _ -> ());
        if timed then w.busy_s <- w.busy_s +. (Obs.now_s () -. t0);
        Mutex.lock w.m;
        w.job <- None;
        Condition.signal w.cv;
        Mutex.unlock w.m;
        loop ()
      end
  in
  try loop () with _ -> mark_dead w

(* Spawn a helper, retrying once: a failed [Domain.spawn] (resource
   exhaustion, or the injected "par.spawn" fault) is often transient. *)
let spawn_worker w =
  let attempt () =
    if Fault.trip "par.spawn" then failwith "injected spawn failure at site par.spawn";
    Domain.spawn (fun () -> worker_loop w)
  in
  match attempt () with
  | h -> Some h
  | exception _ -> ( match attempt () with h -> Some h | exception _ -> None)

let create ?domains () =
  let n = match domains with Some n -> max 1 n | None -> default_domains () in
  let workers =
    Array.init (n - 1) (fun _ ->
        { m = Mutex.create ();
          cv = Condition.create ();
          job = None;
          stop = false;
          dead = false;
          respawned = false;
          retired = false;
          busy_s = 0.0;
          busy_reported_s = 0.0 })
  in
  let warnings = ref [] in
  let handles =
    Array.map
      (fun w ->
        match spawn_worker w with
        | Some h -> Some h
        | None ->
          w.dead <- true;
          w.respawned <- true;
          w.retired <- true;
          warnings :=
            "could not spawn a pool worker (retried once); continuing with fewer domains"
            :: !warnings;
          None)
      workers
  in
  { workers; handles; alive = true; in_round = false; warnings_rev = !warnings }

let domains t = Array.length t.workers + 1

let warnings t = List.rev t.warnings_rev
let degraded t = Array.exists (fun w -> w.retired) t.workers

(* Bring dead helpers back after a round: one respawn per slot, then
   the slot is retired and the pool stays degraded (with every helper
   retired the pool degenerates to the sequential engine). *)
let heal t =
  Array.iteri
    (fun i w ->
      if w.dead && not w.retired && t.alive then begin
        (match t.handles.(i) with
        | Some h -> ( try Domain.join h with _ -> ())
        | None -> ());
        t.handles.(i) <- None;
        if w.respawned then begin
          w.retired <- true;
          t.warnings_rev <-
            "a pool worker died again after its respawn; continuing with fewer domains"
            :: t.warnings_rev
        end
        else begin
          w.respawned <- true;
          match spawn_worker w with
          | Some h ->
            w.dead <- false;
            w.stop <- false;
            t.handles.(i) <- Some h;
            Obs.Metrics.inc m_respawns;
            t.warnings_rev <- "a pool worker died mid-run; respawned it" :: t.warnings_rev
          | None ->
            w.retired <- true;
            t.warnings_rev <-
              "a pool worker died and could not be respawned; continuing with fewer domains"
              :: t.warnings_rev
        end
      end)
    t.workers

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.stop <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m)
      t.workers;
    Array.iter (function Some h -> ( try Domain.join h with _ -> ()) | None -> ()) t.handles
  end

(* The shared pool: grown on demand, never shrunk.  Creation and growth
   happen on the orchestrating domain only (nested requests from
   workers degrade to sequential before reaching [get]). *)
let global : t option ref = ref None

let get ?domains:want () =
  let want = match want with Some n -> max 1 n | None -> default_domains () in
  match !global with
  | Some p when p.alive && domains p >= want -> p
  | prev ->
    (match prev with Some p -> shutdown p | None -> ());
    let p = create ~domains:want () in
    global := Some p;
    p

(* Round ordinal for the flight recorder: only the orchestrating
   domain dispatches rounds, so a plain ref suffices. *)
let round_ordinal = ref 0

(* Run [n_chunks] work items, each exactly once, across the helpers and
   the caller; re-raise the first exception after the barrier. *)
let run_chunked t ~n_chunks f =
  if n_chunks > 0 then begin
    if
      Array.length t.workers = 0 || (not t.alive) || in_worker () || t.in_round
      || n_chunks = 1
    then
      for c = 0 to n_chunks - 1 do
        f c
      done
    else begin
      t.in_round <- true;
      round_ordinal := !round_ordinal + 1;
      Flight.record Flight.k_pool_round ~a:0 ~b:0 ~c:!round_ordinal ~d:n_chunks;
      let timed = Obs.enabled () in
      let t_round0 = if timed then Obs.now_s () else 0.0 in
      let next = Atomic.make 0 in
      let first_exn : exn option Atomic.t = Atomic.make None in
      let body () =
        let rec go () =
          let c = Atomic.fetch_and_add next 1 in
          if c < n_chunks then begin
            (match Atomic.get first_exn with
            | Some _ -> () (* a participant failed: abandon the rest *)
            | None -> (
              try f c
              with e -> ignore (Atomic.compare_and_set first_exn None (Some e))));
            go ()
          end
        in
        go ()
      in
      Array.iter
        (fun w ->
          Mutex.lock w.m;
          if not w.dead then begin
            w.job <- Some body;
            Condition.signal w.cv
          end;
          Mutex.unlock w.m)
        t.workers;
      let t_caller0 = if timed then Obs.now_s () else 0.0 in
      (try body ()
       with e ->
         (* [body] traps [f]'s exceptions itself; only truly unexpected
            failures land here, and the barrier must still run. *)
         ignore (Atomic.compare_and_set first_exn None (Some e)));
      let caller_busy = if timed then Obs.now_s () -. t_caller0 else 0.0 in
      Array.iter
        (fun w ->
          Mutex.lock w.m;
          while w.job <> None do
            Condition.wait w.cv w.m
          done;
          Mutex.unlock w.m)
        t.workers;
      t.in_round <- false;
      Flight.record Flight.k_pool_round ~a:0 ~b:1 ~c:!round_ordinal ~d:n_chunks;
      if timed then begin
        let round = Obs.now_s () -. t_round0 in
        Obs.Metrics.inc m_rounds;
        Obs.Metrics.inc m_chunks ~by:(float_of_int n_chunks);
        Obs.Metrics.inc m_busy ~labels:[ ("domain", "0") ] ~by:caller_busy;
        Obs.Metrics.inc m_idle ~labels:[ ("domain", "0") ]
          ~by:(Float.max 0.0 (round -. caller_busy));
        Array.iteri
          (fun i w ->
            let delta = w.busy_s -. w.busy_reported_s in
            w.busy_reported_s <- w.busy_s;
            let d = string_of_int (i + 1) in
            Obs.Metrics.inc m_busy ~labels:[ ("domain", d) ] ~by:(Float.max 0.0 delta);
            Obs.Metrics.inc m_idle ~labels:[ ("domain", d) ]
              ~by:(Float.max 0.0 (round -. delta)))
          t.workers
      end;
      heal t;
      match Atomic.get first_exn with Some e -> raise e | None -> ()
    end
  end

let parallel_iter ?chunk t f n =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 ((n + (4 * domains t) - 1) / (4 * domains t))
    in
    let n_chunks = (n + chunk - 1) / chunk in
    run_chunked t ~n_chunks (fun c ->
        let lo = c * chunk and hi = min n ((c + 1) * chunk) in
        for i = lo to hi - 1 do
          f i
        done)
  end

let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    (* Element 0 is computed on the caller to seed the result array
       without an Option/Obj detour; the rest fills in parallel. *)
    let out = Array.make n (f arr.(0)) in
    parallel_iter t (fun i -> out.(i + 1) <- f arr.(i + 1)) (n - 1);
    out
  end
