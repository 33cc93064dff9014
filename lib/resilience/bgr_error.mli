(** Structured errors for the whole routing pipeline.

    Every failure the pipeline can report — malformed design text,
    semantic validation, illegal geometry, unroutable nets, exhausted
    budgets, injected faults — is carried as one value with enough
    structure for a service (or the CLI) to render it uniformly as

    {v file:line: [code] message v}

    and to map it to a documented process exit code.  [line] is
    1-based; line [0] means "the whole file" (semantic errors with no
    single offending line). *)

type code =
  | Parse  (** malformed design text (bad token, bad arity, truncation) *)
  | Validate  (** well-formed text describing an inconsistent design *)
  | Geometry  (** illegal floorplan geometry (overlaps, out-of-chip) *)
  | Unroutable  (** a net's candidate graph cannot connect its terminals *)
  | Deadline  (** a wall-clock or iteration budget was exhausted *)
  | Fault  (** an injected fault (see {!Fault}) *)
  | Io_error  (** the file could not be read at all *)
  | Internal  (** an invariant violation inside the router *)

type t = {
  code : code;
  phase : string option;  (** pipeline phase, e.g. ["load"], ["improve_delay"] *)
  file : string option;  (** source design file, when known *)
  line : int option;  (** 1-based line in [file]; [0] = whole file *)
  message : string;
}

exception Error of t

val make :
  ?phase:string -> ?file:string -> ?line:int -> code -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [make code fmt ...] builds an error value. *)

val raise_error :
  ?phase:string -> ?file:string -> ?line:int -> code -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Like {!make} but raises {!Error}. *)

val code_name : code -> string

val all_codes : code list
(** Every code, in declaration order. *)

val code_of_name : string -> code option
(** Inverse of {!code_name} — how a code round-trips a process or wire
    boundary (the daemon's worker pipe, the client CLI's exit-code
    mapping).  [None] for names outside the taxonomy (e.g. the wire's
    ["canceled"] and ["quarantined"], which are daemon verdicts, not
    pipeline errors). *)

val exit_code : code -> int
(** The documented process exit code for each failure class:
    [Parse] 2, [Validate] 3, [Geometry] 3, [Unroutable] 4, [Fault] 5,
    [Deadline] 6, [Io_error] 7, [Internal] 10. *)

val with_file : string -> t -> t
(** Attach a file name when the error does not carry one yet. *)

val to_string : t -> string
(** [file:line: [code] message]; omits the [file:line:] prefix when no
    file is known, and renders a missing line as [0]. *)

val pp : Format.formatter -> t -> unit
