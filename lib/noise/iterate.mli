(** Iterative noise / timing-window fixpoint analysis.

    Delay noise and timing windows depend on each other (the
    chicken-and-egg problem of Section 1): noise widens a net's window;
    a wider window lets the net couple more noise downstream — this is
    what makes indirect (secondary, tertiary, ...) aggressors matter.
    Following Sapatnekar's iterative scheme, the analysis alternates

    + STA with per-net extra late push = current noise estimates,
    + per-victim worst-case delay noise with the resulting windows,

    until the noise vector is stable. Starting from the noiseless
    windows, it ascends to the least fixpoint (the lattice argument is
    Zhou's). Industrial tools report 3–4 iterations; so does this
    implementation on the generated benchmarks.

    {!active} selects which directed couplings inject noise: the whole
    design for ordinary analysis, only a candidate set when evaluating a
    top-k addition set, or everything {e except} a candidate set for
    elimination. *)

type active =
  | All  (** every directed coupling *)
  | Only of int list  (** just these directed ids (addition) *)
  | Except of int list  (** every directed coupling but these (elimination) *)
(** The directed couplings that inject noise, named by directed id
    ({!Coupled_noise.directed_id}, as from [Coupling_set.to_list]; ids
    that name no coupling are ignored). Only the victims a set names
    get a filtered aggressor list, in the all-aggressor list's order;
    every other victim shares the all-aggressor list ([Except]) or has
    none ([Only]). *)

type pass
(** One pass of an all-aggressor run: the STA it read and the noise
    vector after it. Never written after the run, so ctxs on different
    domains can share it. *)

type t = {
  analysis : Tka_sta.Analysis.t;  (** final STA, windows include noise *)
  base : Tka_sta.Analysis.t;  (** noiseless STA of the same netlist *)
  noise : float array;  (** per-net delay noise at the fixpoint *)
  iterations : int;  (** sweeps executed *)
  converged : bool;
  passes : pass array option;
      (** [All] runs: every pass, in order — what {!context} patches
          on; [None] under [Only]/[Except] *)
}

type ctx
(** State shared by many {!run}s on one topology, for the exact
    re-ranking loops that score hundreds of nearby coupling sets. A ctx
    is made from an all-aggressor run, the {e reference}: its noiseless
    base STA is the run's [base], and [Except] scores patch on the
    run's recorded passes. Built on first use from there: each victim's
    all-aggressor list and coupling partners, each pass's per-victim
    |delta| and the victims by delta (on the first [Except] score), and
    a victim-noise memo keyed by every input of
    {!Victim_noise.delay_noise} (victim id, LAT, late slew, own noise,
    and each active aggressor's directed id and full window, compared
    bit for bit). Results through a ctx are bitwise-identical to
    results without one. NOT thread-safe: confine a ctx to one
    sequential loop, one domain; ctxs made from the same run may live
    on different domains. *)

val context : t -> ctx
(** [context run] scores through [run], which must be an [All] run
    ({!run}'s default), else [Invalid_argument]. *)

val run :
  ?active:active ->
  ?max_iterations:int ->
  ?tolerance:float ->
  ?ctx:ctx ->
  Tka_circuit.Topo.t ->
  t
(** Defaults: [All], at most 30 iterations, tolerance 1e-4 ns
    (0.1 ps). Every run starts from noiseless windows.

    Every pass re-times by a seeded {!Tka_sta.Analysis.update} from the
    victims whose noise moved in the pass before (the first pass reads
    the noiseless base directly), and so does the final STA. An [All]
    run keeps each pass's STA and noise vector in [passes]. Under
    [Only] no victim outside the set can carry noise,
    so each pass evaluates just the set's victims. With [ctx] (whose
    run must be on [topo], else [Invalid_argument]) the base
    and aggressor lists are shared across runs and victim evaluations
    go through the ctx's memo ([iterate.victim_memo_hits]/[_misses]);
    without it nothing is memoised — on a single fixpoint the memo
    costs more than it saves.

    An [Except] run through a ctx is a patch on the run the ctx was
    made from, the reference: pass p starts from a seeded update of the
    reference's pass-p STA, and re-evaluates only the {e frontier} —
    the victims the set touches, those whose noise differs from the
    reference's, the nets whose window moved, and their coupling
    partners. Every other victim takes the reference's pass-p noise,
    which is exact because {!Victim_noise.delay_noise} is a pure
    function of inputs that match the reference's bit for bit; the
    residual is the max of the frontier's deltas and the largest
    off-frontier reference delta. A run that needs more passes than
    the reference recorded carries on with the full loop
    ([iterate.reference_fallbacks]). Frontier evaluations, [Only]
    victims included, count in [iterate.frontier_victims].

    A run is traced as a [noise.fixpoint] span under [All] and as an
    [iterate.run] span otherwise. Logs a warning (source [iterate]) if
    the iteration cap is hit before convergence; each run updates the
    [iterate.runs]/[iterate.passes]/[iterate.non_converged] counters
    and the [iterate.last_residual_ns] gauge when {!Tka_obs.Metrics} is
    enabled. *)

val circuit_delay : t -> float
(** Max noisy LAT over primary outputs. *)

val noiseless_delay : t -> float

val total_delay_noise : t -> float
(** [circuit_delay - noiseless_delay]. *)

val windows : t -> Envelope_builder.windows
(** Accessor for the final (noisy) windows. *)

val net_noise : t -> Tka_circuit.Netlist.net_id -> float
