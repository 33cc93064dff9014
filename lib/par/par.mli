(** A fixed-size domain pool with chunked data-parallel iteration —
    the execution substrate of the parallel routing engine.

    Hand-rolled over [Domain] + [Mutex]/[Condition] from the OCaml 5
    stdlib (no external dependencies).  A pool of [domains - 1] helper
    domains sits blocked on per-worker mailboxes; every parallel
    operation hands the same chunk-pulling job to each helper, runs it
    on the calling domain too, and waits for all helpers to drain.
    Work items are distributed by an atomic chunk counter, so any
    number of participating domains computes the same set of chunks.

    Guarantees relied upon by the router:

    - {b Determinism}: [parallel_map] writes result [i]
      of input [i] — the output never depends on which domain computed
      which chunk or in what order.
    - {b Exceptions propagate}: the first exception raised by any
      participant (helpers included) is re-raised on the caller after
      the barrier; remaining chunks are abandoned.
    - {b Nesting is safe}: a parallel operation issued from inside a
      worker falls back to sequential execution instead of
      deadlocking, so parallel suite runs may wrap parallel routers.
    - {b A spawn shortfall only costs parallelism}: {!create} spawns
      helpers until one fails, and the pool is the helpers that
      started; {!domains} counts them, {!warnings} records the
      shortfall, and with none started execution is plain sequential.
      Fault-injection site: ["par.spawn"] (spawn failure).

    A pool is meant to be driven by a single orchestrating domain;
    concurrent submissions to the same pool from several domains are
    not supported. *)

type t

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_domains : unit -> int
(** The [BGR_DOMAINS] environment variable when set to a positive
    integer, otherwise {!available_domains}. *)

val create : ?domains:int -> unit -> t
(** A pool of up to [domains] participants ([domains - 1] spawned
    helper domains plus the caller), fewer when a spawn fails.
    Defaults to {!default_domains}.  [domains <= 1] yields a
    helper-free pool whose operations all run sequentially. *)

val domains : t -> int
(** Participant count: the helpers that started plus the calling
    domain. *)

val shutdown : t -> unit
(** Stop and join the helper domains.  Idempotent.  Operations on a
    shut-down pool run sequentially. *)

val get : ?domains:int -> unit -> t
(** The shared global pool, created lazily and grown (never shrunk) to
    satisfy the largest [domains] requested so far; a pool that came
    up short is rebuilt on the next request.  Never shut down —
    use {!create} for pools whose lifetime a test must control. *)

val in_worker : unit -> bool
(** True when called from inside a pool helper — the condition under
    which nested parallel operations degrade to sequential. *)

val assert_orchestrator : what:string -> unit
(** Raise a structured [Internal] error when called from a pool helper.
    The write-ahead journal serializes its appends through the
    router's sequential apply step; this assertion is how the journal
    enforces that no scoring worker ever reaches the commit path. *)

val warnings : t -> string list
(** The spawn shortfall, if any: at most one line. *)

val parallel_iter : ?chunk:int -> t -> (int -> unit) -> int -> unit
(** [parallel_iter pool f n] runs [f i] for every [i] in [0..n-1],
    each index exactly once, distributed over the pool in contiguous
    chunks ([chunk] indices per work item; default [n / (4 * domains)],
    at least 1). *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; index-stable. *)
