(** Per-coupling noise pulses in the linear (Thevenin) framework.

    For a coupling capacitor [Cc] between an aggressor and a victim
    held by resistance [R] over total victim capacitance [Ct], one
    aggressor transition injects a charge-sharing bump:

    - peak [Vp = (Cc / Ct) * tau / (tau + slew/2)] in Vdd units, where
      [tau = R * Ct] — fast aggressors against a slow holding network
      couple the full charge-sharing ratio, slow aggressors much less;
    - rise time = the aggressor transition time;
    - decay constant = [tau].

    The pulse's time origin ([onset = 0]) is the {e start} of the
    aggressor transition; envelope construction shifts it into the
    aggressor's switching window. *)

type directed = {
  dc_coupling : Tka_circuit.Netlist.coupling_id;
  dc_victim : Tka_circuit.Netlist.net_id;
  dc_aggressor : Tka_circuit.Netlist.net_id;
}
(** One side of a coupling cap, viewed as "aggressor [dc_aggressor]
    attacking victim [dc_victim]". *)

val aggressors_of_victim :
  Tka_circuit.Netlist.t -> Tka_circuit.Netlist.net_id -> directed list
(** Every directed coupling attacking the given net (its primary
    aggressors). *)

val directed_id : directed -> int
(** Dense id of a directed coupling: [2 * coupling + side], where side
    0 attacks the lower-numbered net. The unit of the top-k problem —
    the paper's "aggressor–victim coupling" is directional. *)

val of_directed_id : Tka_circuit.Netlist.t -> int -> directed
(** Inverse of {!directed_id}. *)

val coupling_of_directed_id : int -> Tka_circuit.Netlist.coupling_id
(** The physical coupling cap a directed id belongs to. *)

val with_coupling : int -> Tka_circuit.Netlist.coupling_id -> int
(** [with_coupling id c] is the directed id of the same side of cap
    [c] — how a directed id is renumbered when an edit compacts the
    coupling table (net ids are unchanged by coupling edits, so the
    side is preserved). *)

val directed_of_coupling :
  Tka_circuit.Netlist.t ->
  victim:Tka_circuit.Netlist.net_id ->
  Tka_circuit.Netlist.coupling_id ->
  directed
(** View a coupling from a chosen victim side. *)

val peak :
  Tka_circuit.Netlist.t ->
  victim:Tka_circuit.Netlist.net_id ->
  coupling_cap:float ->
  agg_slew:float ->
  float
(** The peak formula above. *)

val pulse :
  Tka_circuit.Netlist.t -> agg_slew:float -> directed -> Tka_waveform.Pulse.t
(** The full pulse for a directed coupling, [onset = 0]. *)

type holding
(** A victim's total capacitance [Ct] and holding time constant [tau]:
    what every pulse onto that victim reads of it. *)

val holding : Tka_circuit.Netlist.t -> Tka_circuit.Netlist.net_id -> holding

val write_swept :
  Tka_circuit.Netlist.t ->
  holding ->
  Tka_sta.Timing_window.t ->
  float array ->
  int ->
  directed ->
  unit
(** [write_swept nl (holding nl d.dc_victim) w buf s d] stores at
    [buf.(s)] the {!Tka_waveform.Envelope.of_swept} record that
    [Envelope.of_pulse ~window:(Timing_window.onset_interval w)
    (pulse nl ~agg_slew:w.slew_late d)] sweeps, bit for bit and with
    the same exceptions, and allocates nothing. *)
