(** Differential oracle invariants for the top-k engine.

    Each check takes a concrete circuit (and, where relevant, a
    concrete set or edit script) so that a failing instance can be
    replayed from a reproducer without regenerating anything. The
    invariants, and why they hold (see [docs/verification.md]):

    - {!brute}: for k ≤ 3 the implicit enumeration's exact-evaluated
      pick must never beat the brute-force optimum (both evaluate sets
      with the same iterative analysis, and brute force scans every
      subset), must match it exactly for k = 1, and must land within
      1% of it for k = 2, 3 — the paper's Table 1 claim.
    - {!duality}: eliminating a set S is, by construction, the same
      fixpoint as activating its complement — both leave every victim
      the same aggressor list — so the two delays must be
      bit-identical.
    - {!rerank}: exact re-ranking through a shared
      {!Tka_noise.Iterate.ctx} (base STA, seeded updates, victim
      memo, elimination scores patched onto a recorded all-aggressor
      run) is an optimisation of the fresh evaluation,
      so every pool score must be bit-identical to it.
    - {!jobs}: the domain-pool engine is deterministic by construction;
      a 1-domain and an N-domain run must agree bitwise on every
      semantic field.
    - {!incremental}: re-analysis through the {!Tka_incr} cache after
      an edit script must be bit-identical to a from-scratch run on
      the edited design.
    - {!filter_consistency}: the aggressor candidate filter is a sound
      relaxation — [Off] is bit-identical to the default, filtered
      estimates only ever move toward "less noise found", and every
      drop decision carries an independently-checked certificate. *)

type verdict =
  | Pass
  | Skip of string  (** instance not checkable (budget expired, no couplings) *)
  | Fail of string  (** the invariant is violated; payload describes how *)

val brute : ?budget_s:float -> k:int -> Tka_circuit.Topo.t -> verdict
(** Differential check of both modes against {!Tka_topk.Brute_force}.
    [k] must be ≤ 3 (raises [Invalid_argument] otherwise — larger k is
    a harness bug, not an instance failure). Default budget 30 s per
    brute-force run; expiry yields [Skip]. *)

val duality : set:Tka_topk.Coupling_set.t -> Tka_circuit.Topo.t -> verdict
(** [duality ~set topo] checks that {!Tka_topk.Refine.exact_delay}
    with [set] removed (elimination) is bit-identical to it with
    [universe \ set] added (addition). *)

val rerank : k:int -> Tka_circuit.Topo.t -> verdict
(** For each mode and every cardinality [1..k], score each set of the
    {!Tka_topk.Refine.pool} with {!Tka_topk.Refine.exact_delay} through
    the re-ranking's shared ctx (pool order) and without one; any bit
    difference fails with the set named. [Skip] on a design without
    couplings. *)

val jobs : ?jobs:int -> k:int -> Tka_circuit.Topo.t -> verdict
(** Bit-identity of a [jobs = 1] and a [jobs = N] (default 4) run of
    {!Tka_topk.Elimination.compute}. The pool default in effect on
    entry is restored on exit. *)

val netlist_fingerprint : Tka_circuit.Netlist.t -> string
(** Structural hash (nets, gate bindings, coupling caps, in id order)
    as a fixed-width hex string. Two netlists with the same fingerprint
    are structurally identical for analysis purposes. *)

val table2x : ?expected:string -> Tka_layout.Table2x.spec -> verdict
(** Generate [spec] twice and check the {!netlist_fingerprint}s agree
    (the generator draws from one seeded stream in a fixed order, so a
    spec pins its netlist exactly); with [expected], also pin the value
    against a recorded fingerprint so silent generator drift across
    revisions fails loudly. *)

val filter_consistency : k:int -> Tka_circuit.Topo.t -> verdict
(** Check the three contracts of the {!Tka_filter} layer on one
    circuit. (1) [--filter none] is bit-identical to the default
    (every field, via {!Tka_incr.Eco.elim_identical}). (2) [window]
    and [logic] are relaxations: per cardinality the filtered addition
    estimate may not exceed the unfiltered one, and the filtered
    elimination estimate may not fall below it, beyond a 1% relative
    tolerance (de-rating only shrinks envelopes). (3) Certificates:
    every [Window_disjoint] drop — under both engines' window sets —
    must have an envelope that is identically zero on the victim's
    dominance interval, re-derived here through the waveform layer;
    and in [logic] mode every implication value must agree with
    exhaustive boolean simulation over all primary-input assignments
    (skipped beyond 16 inputs). [Skip] when
    the circuit has no couplings. *)

val incremental :
  k:int -> Tka_circuit.Netlist.t -> Tka_incr.Edit.t list -> verdict
(** Apply the script through {!Tka_incr.Analyzer}, re-analyze
    incrementally, and compare bitwise against a from-scratch
    {!Tka_topk.Elimination.compute} of the edited design. [Skip] on an
    empty script. *)

val repair : ?budget:int -> k:int -> Tka_circuit.Netlist.t -> verdict
(** Drive {!Tka_incr.Repair.run} (default [budget] 3, [fix_k] 1) and
    check its three contracts: the accepted repair state is
    bit-identical to a scratch re-analysis; replaying the journal —
    both as returned and after a JSON round-trip of every entry —
    reproduces the final netlist exactly ({!netlist_fingerprint}); and
    a scratch analysis of the replayed netlist is bit-identical to the
    loop's final state. [Skip] on a design without couplings. *)
