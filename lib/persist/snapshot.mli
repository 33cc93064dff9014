(** Phase-boundary snapshots of the routing state.

    A snapshot captures a {!Router.checkpoint} — the completed phases,
    the deletion counters and every net's live candidate-edge set —
    plus the channel density charts as an integrity cross-check (the
    resume path rebuilds densities from the live sets and refuses to
    continue if they disagree with the recorded charts).

    The file is line-oriented text ending in a [crc XXXXXXXX] trailer
    over everything before it, and is written via temp-file + [fsync] +
    atomic rename ({!write}): a reader observes either the previous
    snapshot or the new one, never a torn mixture.

    Fault-injection sites: [persist.snapshot] (head of {!write}, before
    the temp file exists) and [persist.fsync]. *)

type t = {
  s_phases : string list;  (** completed phases, in execution order *)
  s_deletions : int;
  s_del_hash : int;
  s_live : int list array;  (** per-net live candidate edge ids *)
  s_densities : (int * int) array array;
      (** per-channel [(d_M, d_m)] columns, as recorded at the
          checkpoint — the integrity cross-check *)
}

val of_checkpoint :
  phases:string list -> dens:Density.t -> Router.checkpoint -> t

val to_checkpoint : t -> Router.checkpoint

val to_string : t -> string

val of_string : ?file:string -> string -> (t, Bgr_error.t) result
(** Parse and verify the CRC trailer; any mismatch or malformation is
    a structured [Parse] error. *)

val write : path:string -> t -> unit
(** Atomic replace: write [path ^ ".tmp"], [fsync], rename. *)

val load : path:string -> (t, Bgr_error.t) result
