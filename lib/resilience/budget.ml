type armed = {
  clock : unit -> float;  (* seconds *)
  mutable last : float;  (* monotonic guard: highest time observed *)
  start : float;
  deadline : float option;  (* absolute, in [clock]'s timebase *)
  passes : int option;
}

type t = Unlimited | Armed of armed

let unlimited = Unlimited

let default_clock () = Unix.gettimeofday ()

let make ?wall_ms ?phase_passes ?(clock = default_clock) () =
  match (wall_ms, phase_passes) with
  | None, None -> Unlimited
  | _ ->
    let start = clock () in
    Armed
      { clock;
        last = start;
        start;
        deadline = Option.map (fun ms -> start +. (ms /. 1000.0)) wall_ms;
        passes = phase_passes }

let now a =
  let t = a.clock () in
  if t > a.last then a.last <- t;
  a.last

let expired = function
  | Unlimited -> false
  | Armed a -> ( match a.deadline with None -> false | Some d -> now a >= d)

let remaining_ms = function
  | Unlimited -> None
  | Armed a -> (
    match a.deadline with None -> None | Some d -> Some (Float.max 0.0 ((d -. now a) *. 1000.0)))

let phase_pass_limit t ~default =
  match t with
  | Unlimited -> default
  | Armed a -> ( match a.passes with None -> default | Some p -> min p default)
