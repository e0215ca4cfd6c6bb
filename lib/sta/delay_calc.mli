(** Net loads and stage delays on a netlist.

    Bridges {!Tka_circuit.Netlist} structure to the linear cell model of
    {!Tka_cell.Delay_model}. Coupling capacitance counts toward nominal
    load with a Miller factor of 1 (quiet neighbours); the {e change} of
    effective coupling during simultaneous switching is exactly what the
    noise analysis layers on top. *)

val net_load : Tka_circuit.Netlist.t -> Tka_circuit.Netlist.net_id -> float
(** Wire cap + sink pin caps + coupling caps, pF. *)

val stage_delay :
  Tka_circuit.Netlist.t -> Tka_circuit.Netlist.gate_id -> float
(** Propagation delay of the gate driving its loaded output net,
    including the wire-resistance RC adder of the output net. *)

val stage_delay_at :
  Tka_circuit.Netlist.t -> Tka_circuit.Netlist.gate_id -> load:float -> float
(** {!stage_delay} with the output net's {!net_load} already known:
    the same float operations, without re-summing the load. *)

val stage_output_slew :
  Tka_circuit.Netlist.t ->
  Tka_circuit.Netlist.gate_id ->
  load:float ->
  input_slew:float ->
  float
(** Output transition of the gate for a given input slew; [load] is its
    output net's {!net_load}. *)

val input_driver_resistance : float
(** Thevenin resistance assumed for whatever drives a primary input
    (1.5 kΩ). *)

val holding_resistance :
  Tka_circuit.Netlist.t -> Tka_circuit.Netlist.net_id -> float
(** Resistance holding the net at its quiet value: its driver cell's
    drive resistance plus the net's wire resistance (or
    {!input_driver_resistance} for primary inputs). Sets crosstalk pulse
    height and decay on that net. *)

val default_input_slew : float
(** Transition time assumed at primary inputs (0.04 ns). *)
