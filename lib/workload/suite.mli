(** The benchmark suite mirroring Table 1: three circuits C1..C3 at two
    placements.

    The paper's circuits were proprietary NTT transmission-system chips
    (C1 = the 10-Gbit/s regenerator-section overhead processor) whose
    exact cell/net counts are unreadable in the available transcription;
    the synthetic stand-ins below use fixed seeds and 1994-plausible
    sizes (DESIGN.md Sec. 2).  C1P1/C1P2 and C2P1/C2P2 share circuits
    and differ only in feed-cell spacing; C3 appears at P1 only, as in
    the paper. *)

type case = {
  case_name : string;  (** e.g. "C1P1" *)
  circuit : string;  (** "C1" .. "C3" *)
  placement : Placement.style;
  input : Flow.input;
}

val make_case : circuit:string -> placement:Placement.style -> case

val all : unit -> case list
(** C1P1, C1P2, C2P1, C2P2, C3P1 — the Table 1/2/3 rows. *)

val mini : unit -> case
(** A small circuit for tests and the quickstart example. *)
