(** The incremental ECO re-analysis session.

    Owns a {!Cache} across an edit → re-analyze loop:

    {[
      let az = Analyzer.create ~k () in
      let elim, _ = Analyzer.run az (Topo.create nl) in        (* full; populates *)
      let az', nl', dirty = Analyzer.apply az nl edits in      (* remapped copy *)
      let elim', st = Analyzer.run az' (Topo.create nl') in    (* incremental *)
      (* st.rs_hits clean victims were installed from the cache *)
    ]}

    Every {!run} recomputes the noise fixpoint and the per-net
    {!Fingerprint} (both cheap relative to enumeration) and hands the
    engine a cache view guarded by the fingerprints, so results are
    {e bit-identical} to a from-scratch run — at any [--jobs] count —
    no matter what was edited; only the time to produce them changes.
    Levels whose nets all hit the cache cost lookups only, which is how
    the level-synchronous sweep "skips clean levels" (see
    [docs/incremental.md]).

    Reported when {!Tka_obs.Metrics} is enabled: [incr.cache_hits],
    [incr.cache_misses] (per victim lookup) and [incr.dirty_nets]
    (accumulated by {!apply}); {!run} and {!apply} open [incr.*] trace
    spans. *)

type t

type run_stats = {
  rs_hits : int;  (** victims installed from the cache *)
  rs_misses : int;  (** victims enumerated (then stored) *)
}

val create : ?filter:Tka_filter.Mode.t -> ?cache:Cache.t -> k:int -> unit -> t
(** The engine config is {!Tka_topk.Engine.default_config} with [k]
    and [filter] (default [Off]), fixed for the session because it is
    hashed into every cache key (results computed under different
    filter modes never alias).

    Without [cache] the analyzer owns a fresh cache. With it, it
    analyzes through that {e injected} cache — the daemon path
    ([Tka_serve]): one victim cache per design fingerprint, shared by
    every session analyzing that design, so a second tenant hits warm
    on the first victim. The injected cache may be consulted and
    populated concurrently by any number of sessions (it is
    mutex-guarded, and the engine's determinism contract makes racing
    stores write identical values). {!apply} leaves it untouched, so
    co-tenants still analyzing the unedited design are unaffected.
    {!load_checkpoint} {e replaces} the session's cache reference,
    detaching it from the shared one. *)

val config : t -> Tka_topk.Engine.config
val cache : t -> Cache.t

val run :
  ?fixpoint:Tka_noise.Iterate.t -> t -> Tka_circuit.Topo.t -> Tka_topk.Elimination.t * run_stats
(** Analyze (both dual modes) through the cache. The first run on a
    design misses everywhere and populates; subsequent runs after
    {!apply} hit on every victim outside the dirty closure. *)

val apply :
  t -> Tka_circuit.Netlist.t -> Edit.t list -> t * Tka_circuit.Netlist.t * int
(** Apply an edit script ({!Edit.apply}) and return a new analyzer for
    the edited netlist — same config, over a {!Cache.remapped_copy} of
    this one's cache, renumbered through the edit's coupling-id map —
    together with the edited netlist and the size of the dirty closure
    ({!Dirty.closure} of the touched nets — an upper bound on the next
    run's misses, also added to the [incr.dirty_nets] counter). The
    argument is never mutated: it stays valid for the unedited design,
    which is what makes a rejected trial edit a no-op. *)

val save_checkpoint : t -> string -> unit
(** {!Cache.save} of the session cache. *)

val load_checkpoint : t -> string -> unit
(** Replace the session cache with {!Cache.load}[ path] — the
    warm-start path for a second process on the same design. Stale or
    foreign entries are harmless (fingerprint-guarded misses).
    @raise Failure on a malformed file. *)

val warm_start : t -> string -> unit
(** {!load_checkpoint} when the file exists, logging the entry count;
    a malformed or old-format file is logged and ignored, leaving the
    session cold — the shared warm-start step of [Eco.run] and
    [Repair.run]. *)
