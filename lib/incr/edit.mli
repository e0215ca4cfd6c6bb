(** ECO edit scripts over a netlist.

    The mitigation moves of the paper's workflow, reified as data so
    the incremental analyzer can both apply them (via
    {!Tka_circuit.Transform.map}) and reason about what they dirty:

    - {!Remove_coupling}: shield or reroute — the physical cap is gone;
    - {!Scale_coupling}: increased spacing — the cap shrinks by a
      factor in [0, 1] (a factor of 0 removes it);
    - {!Resize_driver}: swap a gate's cell for a stronger (or weaker)
      variant with the same pin names;
    - {!Strengthen_driver}: widen the gate's transistors in place by a
      factor — output resistances shrink by [1/factor], input pin
      capacitances grow by [factor] (the upstream stage pays for the
      bigger gate), intrinsic terms unchanged. The repair loop's
      "buffer/resize the victim driver" move without needing a named
      replacement cell.

    Applying a script produces a new netlist with {e identical} net and
    gate ids (Transform.map preserves structure), but coupling ids are
    compacted when caps are removed — {!apply} therefore also returns
    the old→new coupling-id map the result cache needs to stay
    coherent (see {!Cache.remapped_copy}). *)

type t =
  | Remove_coupling of Tka_circuit.Netlist.coupling_id
  | Scale_coupling of {
      coupling : Tka_circuit.Netlist.coupling_id;
      factor : float;  (** in [0, 1]; 0 removes the cap *)
    }
  | Resize_driver of {
      gate : Tka_circuit.Netlist.gate_id;
      cell : Tka_cell.Cell.t;
    }
  | Strengthen_driver of {
      gate : Tka_circuit.Netlist.gate_id;
      factor : float;  (** finite and > 0; > 1 strengthens *)
    }

val check : Tka_circuit.Netlist.t -> t list -> (unit, string) result
(** [Error] names the first edit with an id out of range for the
    netlist (["coupling 7 out of range (design has 5)"], likewise for a
    gate) or a factor outside its rule. *)

val apply :
  Tka_circuit.Netlist.t ->
  t list ->
  Tka_circuit.Netlist.t
  * (Tka_circuit.Netlist.coupling_id -> Tka_circuit.Netlist.coupling_id option)
(** [apply nl edits] rebuilds [nl] with the whole script applied in one
    {!Tka_circuit.Transform.map} pass (edits compose: scaling twice
    multiplies, a removal wins over any scaling, the last resize of a
    gate wins, strengthen factors multiply and apply on top of the
    final resized cell). Returns the new netlist and the old→new coupling-id
    map ([None] for couplings that were removed or scaled to zero).
    Net and gate ids are unchanged by construction.

    @raise Invalid_argument with {!check}'s message when it fails. *)

val touched_nets : Tka_circuit.Netlist.t -> t list -> Tka_circuit.Netlist.net_id list
(** The nets whose {e local} electrical parameters the script changes
    (deduplicated): both sides of an edited coupling; for a driver
    resize, the gate's output net and its input nets (whose loads see
    the new pin capacitances). Seeds for {!Dirty.closure}.
    @raise Invalid_argument like {!apply}. *)

val to_json : t -> Tka_obs.Jsonx.t
(** One edit as a JSON object — the wire/journal format shared with
    the serve protocol and the repair journal:
    [{"op":"remove_coupling","coupling":N}],
    [{"op":"scale_coupling","coupling":N,"factor":F}],
    [{"op":"resize_driver","gate":N,"cell":"name"}],
    [{"op":"strengthen_driver","gate":N,"factor":F}]. Floats
    round-trip bit-exactly through {!Tka_obs.Jsonx}. *)

val of_json :
  lookup:(string -> Tka_cell.Cell.t option) -> Tka_obs.Jsonx.t -> (t, string) result
(** Inverse of {!to_json}; [lookup] resolves a [resize_driver] cell
    name (e.g. {!Tka_cell.Default_lib.find}). Ids must be integers; a
    [scale_coupling] factor must be a number in [0, 1] and a
    [strengthen_driver] factor a finite number > 0. Ranges against a
    netlist are {!check}'s job. *)

val list_of_json :
  lookup:(string -> Tka_cell.Cell.t option) ->
  Tka_obs.Jsonx.t list ->
  (t list, string) result
(** {!of_json} of each item, in order; the first [Error] wins. *)

val pp : Format.formatter -> t -> unit
