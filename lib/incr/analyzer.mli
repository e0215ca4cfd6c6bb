(** One design state of the incremental ECO loop: a netlist, its
    topology, the enumeration bound [k], the victim {!Cache} it
    analyzes through, its all-aggressor noise fixpoint and its last
    analysis per filter mode.

    {[
      let a = Analyzer.create ~k nl in
      let elim, _ = Analyzer.run a in                  (* full; populates *)
      let a', dirty = Analyzer.apply a edits in        (* remapped copy *)
      let elim', st = Analyzer.run a' in               (* incremental *)
      (* st.rs_hits clean victims were installed from the cache *)
    ]}

    A state computes its fixpoint once, on first use, and hands it to
    every analysis of that state, whatever the filter — exact, since
    the fixpoint is a pure function of the netlist. Every genuine
    {!run} recomputes the per-net {!Fingerprint} (cheap relative to
    enumeration) and hands the engine a cache view guarded by the
    fingerprints, so results are {e bit-identical} to a from-scratch
    run — at any [--jobs] count — no matter what was edited; only the
    time to produce them changes. Levels whose nets all hit the cache
    cost lookups only, which is how the level-synchronous sweep "skips
    clean levels" (see [docs/incremental.md]).

    A state is not thread-safe: drive it from one thread at a time (its
    cache may be shared, see {!create}).

    Reported when {!Tka_obs.Metrics} is enabled: [incr.cache_hits],
    [incr.cache_misses] (per victim lookup) and [incr.dirty_nets]
    (accumulated by {!apply}); {!run} and {!apply} open [incr.*] trace
    spans. *)

type t

type run_stats = {
  rs_hits : int;  (** victims installed from the cache *)
  rs_misses : int;  (** victims enumerated (then stored) *)
  rs_reused : bool;
      (** answered from the state's last analysis, without a run (the
          counters are then those of an all-hit re-run) *)
}

val create : ?cache:Cache.t -> k:int -> Tka_circuit.Netlist.t -> t
(** The state of a netlist, with engine config
    {!Tka_topk.Engine.default_config}[ ~k] (the filter is chosen per
    {!run}; both are hashed into every cache key, so results computed
    under different modes never alias).

    Without [cache] the state owns a fresh cache. With it, it analyzes
    through that {e injected} cache — the daemon path ([Tka_serve]):
    one victim cache per design fingerprint, shared by every session
    analyzing that design, so a second tenant hits warm on the first
    victim. The injected cache may be consulted and populated
    concurrently by any number of states (it is mutex-guarded, and the
    engine's determinism contract makes racing stores write identical
    values). {!apply} leaves it untouched, so co-tenants still
    analyzing the unedited design are unaffected. {!load_checkpoint}
    {e replaces} the state's cache reference, detaching it from the
    shared one.

    @raise Invalid_argument when [k < 1]. *)

val netlist : t -> Tka_circuit.Netlist.t
val topo : t -> Tka_circuit.Topo.t
val k : t -> int
val cache : t -> Cache.t

val fixpoint : t -> Tka_noise.Iterate.t
(** The all-aggressor fixpoint ({!Tka_noise.Iterate.run}) of the
    state, computed on first use (by this or by {!run}) and kept. *)

val run : ?filter:Tka_filter.Mode.t -> t -> Tka_topk.Elimination.t * run_stats
(** Analyze (both dual modes) under [filter] (default [Off]) through
    the cache. The first run on a design misses everywhere and
    populates; runs on a state made by {!apply} hit on every victim
    outside the dirty closure.

    A run whose cache saw no other writer (its generation moved by
    exactly the run's misses, {!Cache.generation}) is kept: while that
    cache's generation stays put, the next [run] under the same filter
    returns the same result with [rs_reused] set and every lookup
    counted as a hit — byte for byte what a re-run would report. *)

val apply :
  ?cache:(Tka_circuit.Netlist.t -> seed:(unit -> Cache.t) -> Cache.t) ->
  t ->
  Edit.t list ->
  t * int
(** Apply an edit script ({!Edit.apply}) and return the state of the
    edited netlist — same [k] — together with the size of the dirty
    closure ({!Dirty.closure} of the touched nets on this state's
    topology — an upper bound on the next run's misses, also added to
    the [incr.dirty_nets] counter).

    [cache nl' ~seed] gives the edited state its cache; [seed ()] is a
    {!Cache.remapped_copy} of this state's cache, renumbered through
    the edit's coupling-id map, and the default takes it. The daemon
    passes its registry's cache for the edited design instead, seeded
    on first arrival. The argument state is never mutated: it stays
    valid for the unedited design, which is what makes a rejected
    trial edit a no-op. *)

val save_checkpoint : t -> string -> unit
(** {!Cache.save} of the state's cache. *)

val load_checkpoint : t -> string -> unit
(** Replace the state's cache with {!Cache.load}[ path] — the
    warm-start path for a second process on the same design. Stale or
    foreign entries are harmless (fingerprint-guarded misses).
    @raise Failure on a malformed file. *)

val warm_start : t -> string -> unit
(** {!load_checkpoint} when the file exists, logging the entry count;
    a malformed or old-format file is logged and ignored, leaving the
    state cold — the shared warm-start step of [Eco.run] and
    [Repair.run]. *)
