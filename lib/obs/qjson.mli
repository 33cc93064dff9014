(** A minimal JSON value type with a renderer and a strict
    recursive-descent parser, with no external dependency.  It is the
    one JSON codec of the code base: trace sinks and the metrics dump
    ({!Obs}), [quality.json] ([Quality.to_json] and the A/B diff),
    and the serving layer's JSON replies and summaries.

    Non-finite floats have no JSON encoding: {!num} (and the renderer)
    map them to [null], and {!to_float} maps [null] back to [nan], so
    summaries of constraint-free runs (worst margin = infinity) survive
    a round trip as "not a number" rather than a parse error. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : float -> t
(** [Num v], or [Null] when [v] is not finite. *)

val int : int -> t

val to_string : t -> string
(** Compact (single-line) rendering with full escaping. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document; the error carries the
    byte offset. *)

val member : string -> t -> t option

val to_float : t -> float option
(** [Null] reads as [nan]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
