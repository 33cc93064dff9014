type armed = {
  clock : unit -> float;  (* seconds *)
  mutable last : float;  (* monotonic guard: highest time observed *)
  deadline : float;  (* absolute, in [clock]'s timebase *)
}

type t = Unlimited | Armed of armed

let unlimited = Unlimited

let default_clock () = Unix.gettimeofday ()

let make ?(clock = default_clock) ~wall_ms () =
  let start = clock () in
  Armed { clock; last = start; deadline = start +. (wall_ms /. 1000.0) }

let now a =
  let t = a.clock () in
  if t > a.last then a.last <- t;
  a.last

let expired = function Unlimited -> false | Armed a -> now a >= a.deadline

let remaining_ms = function
  | Unlimited -> None
  | Armed a -> Some (Float.max 0.0 ((a.deadline -. now a) *. 1000.0))
