(** Layout-informed constraint calibration.

    The paper's C3 constraints were "improved according to the layout
    data analysis from the initial constraints provided from logic
    information": purely logic-derived limits can sit below what any
    wiring could achieve.  Calibration tightens each limit to
    [headroom] above the constraint's half-perimeter (lower-bound)
    delay — tight enough that timing-driven routing matters, loose
    enough to be meetable. *)

val against_reference_route : input:Flow.input -> headroom:float -> Path_constraint.t list
(** Calibrate against an unconstrained reference routing of [input]:
    bounds use that run's floorplan and channel heights — the
    "layout data analysis" of the paper's C3 constraints.  Each limit
    becomes [hpwl_delay * (1 + headroom)] over physical terminal
    rectangles (channel heights included); constraints with no
    feasible path keep their original limit. *)
