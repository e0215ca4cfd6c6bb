module N = Tka_circuit.Netlist
module DM = Tka_cell.Delay_model

let m_stage_delays = Tka_obs.Metrics.Counter.make "sta.stage_delay_calcs"

let input_driver_resistance = 1.5
let default_input_slew = 0.04

let net_load nl nid = N.total_cap nl nid

let stage_delay_at nl gid ~load =
  Tka_obs.Metrics.Counter.incr m_stage_delays;
  let g = N.gate nl gid in
  DM.gate_delay ~cell:g.N.cell ~load
  +. DM.rc ~resistance:(N.net nl g.N.fanout).N.wire_res ~capacitance:(0.5 *. load)

let stage_delay nl gid = stage_delay_at nl gid ~load:(net_load nl (N.gate nl gid).N.fanout)

let stage_output_slew nl gid ~load ~input_slew =
  DM.output_slew ~cell:(N.gate nl gid).N.cell ~input_slew ~load

let holding_resistance nl nid =
  let wire = (N.net nl nid).N.wire_res in
  match N.driver_gate nl nid with
  | None -> input_driver_resistance +. wire
  | Some g -> DM.holding_resistance g.N.cell +. wire
