(** The one framing codec behind every bgr binary file and stream:
    the deletion journal (BGRJ1), the quality log (BGRQ1), the flight
    record (BGRF1), the daemon wire (BGRS1) and the worker pipe
    (BGRW1).

    Each begins with a 6-byte magic (format name and version, then a
    newline) followed by frames

    {v [u32 length | payload | u32 CRC-32(payload)] v}

    with every integer big-endian.  A format keeps only its magic, its
    length cap and its payload codec; this module makes every framing
    decision.  Files are read by a {e salvaging} reader (a damaged
    final frame is a torn tail), streams by a {e strict} incremental
    extractor (any damage is fatal to the connection).  See
    docs/FORMATS.md § Framing. *)

(** {1 Writing} *)

val add : Buffer.t -> string -> unit
(** Append one frame carrying the payload. *)

val encode : string -> string
(** One frame carrying the payload. *)

(** {1 Files: the salvaging reader} *)

exception Malformed of string
(** Raised by a payload decoder (or {!get_lpstr}) on a payload it
    rejects.  The file reader turns it into a [Parse] error naming the
    frame's byte offset. *)

type 'a salvaged = {
  value : 'a;  (** the decoder folded over the intact frames *)
  valid_bytes : int;  (** offset just past the last intact frame *)
  torn : bool;  (** a damaged or incomplete final frame was dropped *)
  warning : string option;  (** what was dropped, with its byte offset *)
}

val read_string :
  magic:string ->
  max_len:int ->
  what:string ->
  phase:string ->
  ?file:string ->
  init:'a ->
  (at:int -> 'a -> string -> 'a) ->
  string ->
  ('a salvaged, Bgr_error.t) result
(** [read_string ~magic ~max_len ~what ~phase ~init decode image]
    checks the magic, then folds [decode ~at acc payload] over the
    intact frames in file order ([at] is the frame's byte offset).  In
    one pass:

    {ul
    {- a wrong magic, a declared length outside [1..max_len], a CRC
       mismatch on any frame but the last, or a payload [decode]
       rejects with {!Malformed} is [Error _] with code [Parse] — a file
       an append-only writer dying once cannot produce;}
    {- a partial length prefix, a frame running past the end of the
       image, or a CRC mismatch on the final frame is a torn tail:
       [torn], one [warning], and [valid_bytes] at the truncation
       point.}}

    [what] names the format in every message; [phase] labels errors. *)

val read_file : phase:string -> string -> (string, Bgr_error.t) result
(** The whole contents of a file; an unreadable file is [Io_error]. *)

(** {1 Streams: the strict extractor} *)

type extract =
  | Need of int  (** at least this many more bytes required *)
  | Frame of string * int  (** payload, total frame bytes consumed *)
  | Bad of Bgr_error.t  (** oversized length or CRC mismatch *)

val extract : phase:string -> max_len:int -> string -> pos:int -> extract
(** Examine [s] from [pos] for one complete frame.  Declared lengths
    [0..max_len] are legal; a larger one is [Bad] before any payload
    byte arrives, so a hostile prefix cannot make a peer buffer
    unbounded data. *)

val greet : magic:string -> string -> (string, string) result option
(** Check a stream peer's greeting at the start of its receive buffer:
    [None] until the buffer holds a whole magic, then [Some (Ok rest)]
    (the bytes after the magic) or [Some (Error banner)] (the first
    [String.length magic] bytes, which are not the magic). *)

(** {1 Payload primitives}

    Big-endian, as the framing.  Getters raise {!Short} when the value
    runs past the end of the payload. *)

exception Short

val put_u32 : Buffer.t -> int -> unit
val put_f64 : Buffer.t -> float -> unit
(** IEEE-754 bit pattern. *)

val put_lpstr : Buffer.t -> string -> unit
(** [u32 length | bytes]. *)

val get_u32 : string -> int -> int
val get_f64 : string -> int -> float

val get_lpstr : max_len:int -> string -> int -> string * int
(** The string at a position and the position after it; a declared
    length above [max_len] raises {!Malformed}. *)
