(** Deterministic fault injection.

    The pipeline is sprinkled with named {e injection sites} (e.g.
    ["io.parse"], ["router.improve"], ["par.spawn"],
    ["persist.append"], ["persist.snapshot"], ["persist.fsync"], and
    ["obs.sink"] — the last one fails a trace sink write, which [Obs]
    must degrade to a warning rather than fail the run).
    Each site calls {!trip} on every pass; with no plan installed the
    call is a few nanoseconds and never fires.  A {e plan} decides
    which hits of which sites fail:

    {v
    seed=42; par.spawn:n=1; io.parse:p=0.05; router.improve:always
    v}

    - [SITE:n=K] — fire on exactly the K-th hit of [SITE] (1-based);
    - [SITE:p=F] — fire each hit with probability [F], drawn from a
      seeded PRNG ([seed=N], default 1);
    - [SITE:always] — fire on every hit.

    Entries are separated by [;] or [,].  The plan is installed either
    programmatically ({!with_plan} — what the tests use) or from the
    [BGR_FAULT_PLAN] environment variable (what the CI fault job uses);
    a malformed environment plan is reported once on stderr and
    ignored, never fatal.

    Counters live in the plan installation, so [n=K] is deterministic
    for a single-threaded site.  Sites hit concurrently from pool
    workers serialize on an internal mutex; {e which} domain observes
    the fatal hit may vary, but the recovery paths under test are
    required to converge to the same result regardless. *)

type plan

val builtin_sites : string list
(** Every injection site the pipeline calls, the registry
    {!parse_plan} validates against: ["io.parse"],
    ["router.improve"], ["par.spawn"],
    ["persist.append"], ["persist.snapshot"], ["persist.fsync"],
    ["obs.sink"], ["analyze.qlog"], and the serving daemon's
    ["serve.accept"], ["serve.read"], ["serve.write"], ["serve.job"],
    ["serve.worker.spawn"] (supervisor side, before the worker process
    is forked), ["serve.worker.hang"] and ["serve.worker.kill"] (both
    tripped {e inside} the worker subprocess, attempt-gated: with
    [n=K] the K-th attempt's worker hangs / SIGKILLs itself — see
    [Worker.main]). *)

val declare_site : string -> unit
(** Register an extra site name (idempotent).  Tests exercising the
    plan machinery with synthetic sites declare them here so
    {!parse_plan} accepts them. *)

val known_site : string -> bool
(** The site is in {!builtin_sites} or was {!declare_site}d. *)

val parse_plan : string -> (plan, string) result
(** Parse the [seed=N; SITE:n=K | SITE:p=F | SITE:always] grammar.
    A plan naming the same site twice is rejected — the clauses would
    shadow each other and the plan would not test what it says.  A
    plan naming a site outside the {!builtin_sites} /
    {!declare_site} registry is rejected too: an unknown site would
    silently never fire and the plan would test nothing. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Install [plan] with fresh counters, run the thunk, restore the
    previous installation (counters included). *)

val active : unit -> bool
(** A plan (programmatic or environment) is installed and non-empty. *)

val trip : string -> bool
(** [trip site] records a hit at [site] and reports whether the plan
    fires there now.  Always false with no plan installed. *)

val check : ?phase:string -> string -> unit
(** {!trip}, raising [Bgr_error.Error] with code [Fault] when it
    fires. *)

val fired : string -> int
(** How many times [site] has fired under the current installation. *)
