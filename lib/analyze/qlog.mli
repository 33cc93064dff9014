(** The solution-quality event log ([.bgrq]): an append-only, CRC-framed
    binary stream of {!Router.quality_sample} records stamped with the
    run-relative wall-clock time of emission.

    The file is the magic header followed by one {!Frame} per record
    (declared lengths up to 0xFFFFF), floats as IEEE-754 bit patterns.
    The payload itself is self-describing — length-prefixed phase and
    criterion strings, counted density/margin arrays — so the format
    survives designs of any channel or constraint count.

    Recovery on read is the {!Frame.read_string} salvage rule: a damaged or
    incomplete {e final} frame is a torn tail (the recording process
    died mid-append), truncated away with a warning; damage anywhere
    earlier is a structured [Parse] error. *)

type record = {
  q_t_s : float;  (** seconds since the writer was opened *)
  q_sample : Router.quality_sample;
}

val magic : string
(** ["BGRQ1\n"] — file magic and format version. *)

val default_filename : string
(** ["quality.bgrq"] — the conventional name inside a run directory,
    next to the journal and snapshot. *)

(** {1 Writing} *)

type writer

val create : path:string -> writer
(** Create (truncate) the log and write the magic header.  Raises a
    structured [Io_error] when the file cannot be opened. *)

val append : writer -> Router.quality_sample -> record
(** Frame and append one sample, stamped with the time since
    {!create}, and flush it to the OS.  Subject to fault injection at
    site ["analyze.qlog"].  Returns the stamped record. *)

val appended : writer -> int
(** Samples appended so far. *)

val path : writer -> string

val close : writer -> unit
(** Flush and close; idempotent. *)

val sink :
  warn:(string -> unit) ->
  string ->
  (Router.quality_sample -> unit) option * (unit -> int option)
(** [sink ~warn path] is [(emit, finish)] for recording a run into a
    new log at [path].  Telemetry never fails the run: an open failure
    gives no [emit], and the first failed append closes the log and
    turns later emits into no-ops; each is reported once through
    [warn] (a ["warning: quality: ..."] line).  [finish ()] closes the
    log and returns the samples recorded, or [None] when the log never
    opened or recording stopped. *)

(** {1 Reading} *)

type read_result = {
  records : record list;  (** intact records, in emission order *)
  torn : bool;  (** a damaged final frame was truncated away *)
  warnings : string list;  (** human-readable salvage notes *)
}

val read_string : ?file:string -> string -> (read_result, Bgr_error.t) result
(** Decode a whole log image.  [file] labels errors. *)

val read : path:string -> (read_result, Bgr_error.t) result

(**/**)

val encode_frame : record -> string
(** Exposed for tests (corruption injection). *)
