(** Zero-dependency SVG renderers for the quality explorers.  Every
    chart function returns one complete, well-formed, self-contained SVG
    document string (no stylesheet, script or external reference) —
    checkable with any XML parser and viewable as a plain file. *)

(** {1 Primitives}

    Shared by every chart here and by the postmortem timeline.  Each
    returns one newline-terminated element; coordinates print with two
    decimals and text is XML-escaped. *)

val document : w:int -> h:int -> string -> string
(** [document ~w ~h body]: a [w] x [h] document, a white background,
    then [body]. *)

val text :
  ?anchor:string -> ?size:int -> ?fill:string -> ?rotate:int option -> float -> float -> string ->
  string
(** [text x y s]; [anchor] defaults to ["start"], [size] to 11 and
    [fill] to a dark grey; [rotate] turns it by degrees about [(x, y)]. *)

val line :
  ?stroke:string -> ?width:float -> ?dash:string -> float -> float -> float -> float -> string
(** [line x1 y1 x2 y2]; [stroke] defaults to a light grey, [width] to 1. *)

val rect : ?fill:string -> ?title:string -> float -> float -> float -> float -> string
(** [rect x y w h]; a non-empty [title] becomes its hover [<title>]. *)

(** {1 Charts} *)

val convergence : Qlog.record list -> string
(** Two stacked panels over a shared deletion-count axis: worst and
    total-negative margin (ps) on top, violation count and peak channel
    density below, with dashed verticals at phase boundaries. *)

val density_heatmap : Qlog.record list -> string
(** Channels x samples grid, cell colour = that channel's bridge
    density [C_M] at that sample, with a colour scale. *)

val slack_waterfall : Quality.summary -> string
(** One horizontal bar per path constraint (final margins, sorted
    worst-first); violations extend red past the zero line. *)
