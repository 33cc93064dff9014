(** Wall-clock and iteration budgets for the routing pipeline.

    A budget carries an optional wall-clock deadline (relative to the
    moment the budget was armed) and an optional per-phase iteration
    ceiling.  Deadlines are measured on a monotonicized clock: the
    default clock wraps [Unix.gettimeofday] so observed time never goes
    backwards even if the system clock is stepped.  Tests can inject a
    fake clock to make expiry fully deterministic. *)

type t

val unlimited : t
(** Never expires; no phase ceiling. *)

val make : ?wall_ms:float -> ?phase_passes:int -> ?clock:(unit -> float) -> unit -> t
(** [make ~wall_ms ()] arms a deadline [wall_ms] milliseconds from now.
    [phase_passes] caps the pass count of every improvement phase (the
    effective limit is the minimum of this ceiling and the phase's own
    option).  [clock] returns seconds and defaults to a monotonicized
    [Unix.gettimeofday]; the budget records its start time by calling
    it once. *)

val expired : t -> bool
(** True once the armed deadline has passed.  Always false for
    {!unlimited}. *)

val remaining_ms : t -> float option
(** [None] when no deadline is armed; never negative. *)

val phase_pass_limit : t -> default:int -> int
(** The effective pass ceiling for one phase: [min ceiling default],
    or [default] when the budget carries no ceiling. *)
