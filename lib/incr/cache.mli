(** Content-addressed store of per-victim engine results.

    Maps [(mode, net)] to a {!Tka_topk.Engine.cached_victim} guarded by
    its {!Fingerprint} key: {!find} returns the record only when the
    caller's key matches the stored one, so a stale record behaves as a
    miss, never as wrong data. Domain-safe (one mutex; the engine's
    pool workers look up and store concurrently).

    {2 Coupling-id coherence}

    Stored coupling sets use {e directed} coupling ids
    ([2 * coupling + side], {!Tka_noise.Coupled_noise.directed_id}).
    Removing a physical cap compacts coupling ids, so after an edit the
    surviving records must be renumbered: {!remapped_copy} applies the
    old→new physical-id map from {!Edit.apply} to every stored set and
    drops records that reference a removed cap (such records could
    never be hit again — their victim's fingerprint changed — but their
    stale ids must not alias surviving couplings).

    Because keys are deliberately id-free, a key match alone cannot
    detect that stored ids index a {e different} coupling table — e.g.
    a checkpoint written after an edit and reloaded against the
    original design would alias compacted ids onto the wrong caps. The
    cache therefore records the {!Fingerprint.universe} hash of the
    coupling table its values are expressed in; {!Analyzer.run}
    flushes the cache when it does not match the analyzed netlist.

    {2 Checkpoint format}

    {!save}/{!load} use NDJSON (one JSON object per line, via
    {!Tka_obs.Jsonx}): a header line

    {v {"format":"tka-incr-cache","version":2,"universe":"c0ff..."} v}

    then one line per record. Floats are serialised as 16-hex-digit
    IEEE-754 bit patterns so the round trip is exact — the bit-identity
    contract survives the disk. See [docs/file-formats.md]. *)

type t

val create : unit -> t
val size : t -> int

val clear : t -> unit
(** Drop every record and the recorded universe. *)

val generation : t -> int
(** How many {!store}s and {!clear}s this cache has seen. The engine
    stores exactly once per missed lookup, so an {!Analyzer.run} that
    moves the generation by exactly its [rs_misses] saw no other
    writer; while the generation then stays put, a re-run of the same
    analysis would hit on every victim. {!Analyzer.run} memoizes a
    design state's analyses on this rule. A fresh, loaded or {!remapped_copy} cache starts
    at 0. *)

val universe : t -> Fnv.t option
(** The coupling-universe hash the stored values are expressed in
    ([None] for a fresh cache). *)

val set_universe : t -> Fnv.t -> unit

val find :
  t ->
  mode:Tka_topk.Engine.mode ->
  net:Tka_circuit.Netlist.net_id ->
  key:Fnv.t ->
  Tka_topk.Engine.cached_victim option
(** The stored record, if present {e and} stored under an equal key. *)

val store :
  t ->
  mode:Tka_topk.Engine.mode ->
  net:Tka_circuit.Netlist.net_id ->
  key:Fnv.t ->
  Tka_topk.Engine.cached_victim ->
  unit
(** Insert or overwrite the record for [(mode, net)]. *)

val remapped_copy :
  t -> (Tka_circuit.Netlist.coupling_id -> Tka_circuit.Netlist.coupling_id option) -> t
(** A {e fresh} cache holding every record with its directed coupling
    ids renumbered through the physical-id map ([None] = removed);
    records referencing a removed cap are dropped. The source is left
    untouched, so it stays valid for the unedited design (a daemon
    co-tenant, or a repair trial that gets rejected). The copy's
    universe is unset; the caller (or the first {!Analyzer.run}
    against the edited netlist) records it. *)

val save : t -> string -> unit
(** Write the checkpoint (atomically: temp file + rename). *)

val load : string -> t
(** Parse a checkpoint. @raise Failure on a malformed or
    wrong-version file (a caller wanting warm-start-if-possible should
    catch and fall back to {!create}). *)
