module N = Tka_circuit.Netlist
module DC = Tka_sta.Delay_calc

type directed = {
  dc_coupling : N.coupling_id;
  dc_victim : N.net_id;
  dc_aggressor : N.net_id;
}

let aggressors_of_victim nl victim =
  List.map
    (fun cid ->
      {
        dc_coupling = cid;
        dc_victim = victim;
        dc_aggressor = N.coupling_partner nl cid victim;
      })
    (N.couplings_of_net nl victim)

(* Directed couplings are numbered 2*coupling + side so they can live in
   dense int sets: side 0 attacks net_a, side 1 attacks net_b. *)
let directed_id d =
  let c = d.dc_coupling in
  if d.dc_victim < d.dc_aggressor then (2 * c) else (2 * c) + 1

let coupling_of_directed_id id = id / 2
let with_coupling id cid = (2 * cid) + (id land 1)

let of_directed_id nl id =
  let cid = coupling_of_directed_id id in
  let c = N.coupling nl cid in
  let lo = min c.N.net_a c.N.net_b and hi = max c.N.net_a c.N.net_b in
  if id mod 2 = 0 then { dc_coupling = cid; dc_victim = lo; dc_aggressor = hi }
  else { dc_coupling = cid; dc_victim = hi; dc_aggressor = lo }

let directed_of_coupling nl ~victim cid =
  {
    dc_coupling = cid;
    dc_victim = victim;
    dc_aggressor = N.coupling_partner nl cid victim;
  }

(* the victim's total cap [ct] and holding time constant [tau] *)
let peak_of ~ct ~tau ~coupling_cap ~agg_slew =
  coupling_cap /. ct *. (tau /. (tau +. (agg_slew /. 2.)))

let peak nl ~victim ~coupling_cap ~agg_slew =
  let ct = N.total_cap nl victim in
  let tau = DC.holding_resistance nl victim *. ct in
  peak_of ~ct ~tau ~coupling_cap ~agg_slew

let pulse nl ~agg_slew d =
  let c = N.coupling nl d.dc_coupling in
  let ct = N.total_cap nl d.dc_victim in
  let tau = DC.holding_resistance nl d.dc_victim *. ct in
  let agg_slew = Float.max 1e-6 agg_slew in
  Tka_waveform.Pulse.make ~onset:0.
    ~peak:(peak_of ~ct ~tau ~coupling_cap:c.N.coupling_cap ~agg_slew)
    ~rise:agg_slew ~decay:tau
