(** One tenant's conversation with the daemon: a loaded design and the
    session-scoped RPC methods over it.

    A session owns no victim cache — its design state is a
    {!Tka_incr.Analyzer.create}[ ~cache] over the {!Registry} cache for
    its design's fingerprint, so every result it enumerates is
    immediately reusable by co-tenants (and vice versa). All results
    are {e bit-identical} to the equivalent one-shot library run (a
    private analyzer, [Eco.run], [Repair.run]) at any jobs count: the
    session only composes the analyzer and the engine, both of which
    carry that contract. Each design state (a load, an
    eco or repair commit, a whatif's edited copy) is one analyzer,
    which computes its fixpoint once and answers a repeated [analyze]
    (or [eco]'s pre-edit analysis) from its last analysis under that
    filter ({!Tka_incr.Analyzer.run}); the reply is byte-identical to a
    re-run's, cache counters included, and counts in
    [serve.analysis_reuses].

    Methods (see [docs/serving.md] for the wire reference):

    - [load]: parse a netlist body, attach the shared cache;
    - [info]: size statistics of the loaded design;
    - [analyze]: run both dual enumerations through the cache and
      report the requested mode's per-cardinality sets and delays;
    - [whatif]: apply an edit script to a {e copy}, analyze it against
      a cache seeded from the base design's
      ({!Tka_incr.Cache.remapped_copy}), leave the session unchanged;
    - [eco]: {!Tka_incr.Eco.run}[ ~verify:false] on the design state
      — pick the top elimination set, apply its removal edits over the
      edited fingerprint's registry cache, re-analyze incrementally —
      and commit the edited state: the session's design advances;
    - [repair]: {!Tka_incr.Repair.run} on the design's netlist, over a
      private cache; unless [dry_run], commit the loop's final state,
      whose cache seeds the repaired fingerprint's registry entry on
      first arrival, so the next [analyze] misses nothing.

    Out-of-range [fix_k], [budget] and [recover] are checked by those
    library calls; their [Invalid_argument] message comes back as a
    [Bad_request] error.

    Concurrency: one session is driven by one connection thread, but
    many sessions run concurrently; everything shared (registry,
    caches, metrics, the domain pool) is lock- or atomic-guarded. *)

type t

val create :
  registry:Registry.t ->
  lookup:(string -> Tka_cell.Cell.t option) ->
  default_k:int ->
  t

val loaded : t -> bool

val reuses : t -> int
(** Analyses this session answered from a design state's memo. *)

val handle :
  t -> meth:string -> params:Proto.J.t -> (Proto.J.t, Proto.error_code * string) result
(** Dispatch a session method. [Error (Bad_request, _)] on an unknown
    method — the server owns the connection-level methods ([ping],
    [metrics], [stats], [batch], [shutdown]). *)
