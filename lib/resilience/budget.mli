(** Wall-clock budgets for the routing pipeline.

    A budget is an optional wall-clock deadline, relative to the moment
    the budget was armed.  It bounds time only: every improvement phase
    already stops at its fixed pass ceiling ([Router.max_recover_passes]
    and friends).  Deadlines are measured on a monotonicized clock: the
    default clock wraps [Unix.gettimeofday] so observed time never goes
    backwards even if the system clock is stepped.  Tests can inject a
    fake clock to make expiry fully deterministic. *)

type t

val unlimited : t
(** Never expires. *)

val make : ?clock:(unit -> float) -> wall_ms:float -> unit -> t
(** [make ~wall_ms ()] arms a deadline [wall_ms] milliseconds from now.
    [clock] returns seconds and defaults to a monotonicized
    [Unix.gettimeofday]; the budget records its start time by calling
    it once. *)

val expired : t -> bool
(** True once the armed deadline has passed.  Always false for
    {!unlimited}. *)

val remaining_ms : t -> float option
(** [None] for {!unlimited}; never negative. *)
