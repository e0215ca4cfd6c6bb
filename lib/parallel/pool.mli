(** Fixed-size domain pool for deterministic data parallelism.

    Built on stdlib [Domain]/[Mutex]/[Condition] only (no domainslib).
    A pool of [jobs] domains total — [jobs - 1] spawned workers plus the
    submitting domain, which participates in executing its own batches —
    serves chunked parallel iteration primitives. All primitives are
    {e deterministic by construction}: results are assembled by index,
    so the output is independent of how chunks are scheduled across
    domains. (The bodies themselves must of course be free of
    order-dependent shared mutable state; see [docs/parallelism.md] for
    the engine's safety argument.)

    With [jobs = 1] every primitive takes the plain sequential path in
    the calling domain — no worker domains are ever spawned, no mutex is
    taken, and the iteration order is exactly that of the equivalent
    [for] loop.

    Nested submission is supported: a task running on a pool worker may
    itself call {!iter}/{!map}/... on the same pool. The submitter
    always helps drain the shared task queue while waiting for its own
    batch, so nesting cannot deadlock even when every worker is busy. *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool that executes batches on [jobs] domains
    ([jobs - 1] spawned workers; the submitter is the remaining one).
    [jobs] is clamped to at least 1. Workers are spawned eagerly and
    idle on a condition variable until work arrives. *)

val size : t -> int
(** The [jobs] the pool was created with (after clamping). *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. Outstanding
    batches must have completed; calling {!iter} etc. on a pool after
    shutdown falls back to the sequential path. *)

val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] for every
    [lo <= i < hi], split into contiguous chunks of [chunk] indices
    (default: a heuristic targeting ~8 chunks per domain). Returns when
    every index has been processed; the first exception raised by any
    [body] is re-raised in the caller (after the batch drains). *)

val iter : ?chunk:int -> t -> ('a -> unit) -> 'a array -> unit
(** Chunked parallel [Array.iter]. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Chunked parallel [Array.map]: [ (map pool f a).(i) = f a.(i) ],
    results positioned by index regardless of scheduling. *)

(** {1 Default pool}

    The process-wide pool shared by the engine, the brute-force baseline
    and the bench harness. Sized by the [TKA_JOBS] environment variable
    when set (clamped to >= 1), otherwise
    [Domain.recommended_domain_count () - 1] (at least 1). Created
    lazily on first use and torn down from an [at_exit] hook. *)

val default_jobs : unit -> int
(** The jobs count the default pool has (or would be created with). *)

val env_jobs_error : unit -> string option
(** A diagnostic when [TKA_JOBS] is set but invalid (non-numeric or
    [< 1]) — such a value is {e ignored} by {!default_jobs}, so
    executables should call this at startup and fail loudly instead of
    silently falling through to the default sizing (the CLI and the
    bench harness do). [None] when the variable is unset or valid. *)

val set_default_jobs : int -> unit
(** Override the default pool size (the CLI [--jobs] flag and the bench
    harness call this). If a default pool of a different size already
    exists it is shut down and recreated lazily at the new size. *)

val get_default : unit -> t
(** The shared default pool, created on first call. *)
