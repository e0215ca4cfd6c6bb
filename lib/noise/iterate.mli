(** Iterative noise / timing-window fixpoint analysis.

    Delay noise and timing windows depend on each other (the
    chicken-and-egg problem of Section 1): noise widens a net's window;
    a wider window lets the net couple more noise downstream — this is
    what makes indirect (secondary, tertiary, ...) aggressors matter.
    Following Sapatnekar's iterative scheme, the analysis alternates

    + STA with per-net extra late push = current noise estimates,
    + per-victim worst-case delay noise with the resulting windows,

    until the noise vector is stable. Starting [`From_noiseless]
    ascends to the least fixpoint; [`From_all_overlap] starts from the
    infinite-window noise bound and descends (the two standard starting
    points; both converge on a complete lattice, per Zhou). Industrial
    tools report 3–4 iterations; so does this implementation on the
    generated benchmarks.

    The [active] predicate selects which directed couplings inject
    noise: the whole design for ordinary analysis, only a candidate set
    when evaluating a top-k addition set, or everything {e except} a
    candidate set for elimination. *)

type mode = From_noiseless | From_all_overlap

type t = {
  analysis : Tka_sta.Analysis.t;  (** final STA, windows include noise *)
  base : Tka_sta.Analysis.t;  (** noiseless STA of the same netlist *)
  noise : float array;  (** per-net delay noise at the fixpoint *)
  iterations : int;  (** sweeps executed *)
  converged : bool;
}

type ctx
(** State shared by many {!run}s on one topology, for the exact
    re-ranking loops that score hundreds of nearby coupling sets: the
    noiseless base STA, each victim's all-aggressor list, an envelope
    memo ({!Envelope_builder.memo}) and a victim-noise memo keyed by
    every input of {!Victim_noise.delay_noise} (victim id, LAT, late
    slew, own noise, and each active aggressor's directed id and full
    window), compared bit for bit. Results through a ctx are
    bitwise-identical to results without one. Built lazily on first
    use. NOT thread-safe: confine a ctx to one sequential loop, one
    domain. *)

val context : Tka_circuit.Topo.t -> ctx

val run :
  ?mode:mode ->
  ?active:(Coupled_noise.directed -> bool) ->
  ?max_iterations:int ->
  ?tolerance:float ->
  ?ctx:ctx ->
  Tka_circuit.Topo.t ->
  t
(** Defaults: [From_noiseless], all couplings active, at most 30
    iterations, tolerance 1e-4 ns (0.1 ps).

    The first pass from [From_noiseless] reads the noiseless base
    directly; every later pass, and the final STA, is an
    {!Tka_sta.Analysis.update} of the previous one, so only the cones
    whose noise moved are re-propagated. With [ctx] (which must have
    been built for [topo], else [Invalid_argument]) the base and
    aggressor lists are shared across runs and victim evaluations go
    through the ctx's memos ([iterate.victim_memo_hits]/[_misses]);
    without it nothing is memoised — on a single fixpoint the memos
    cost more than they save. Logs a warning (source [iterate]) if the
    iteration cap is hit before convergence; each run updates the
    [iterate.runs]/[iterate.passes] counters and the
    [iterate.last_residual_ns] gauge when {!Tka_obs.Metrics} is
    enabled. *)

val circuit_delay : t -> float
(** Max noisy LAT over primary outputs. *)

val noiseless_delay : t -> float

val total_delay_noise : t -> float
(** [circuit_delay - noiseless_delay]. *)

val windows : t -> Envelope_builder.windows
(** Accessor for the final (noisy) windows. *)

val net_noise : t -> Tka_circuit.Netlist.net_id -> float
