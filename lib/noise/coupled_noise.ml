module N = Tka_circuit.Netlist
module DC = Tka_sta.Delay_calc
module TW = Tka_sta.Timing_window

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

type holding = { ct : float; tau : float }

let holding nl victim =
  let ct = N.total_cap nl victim in
  { ct; tau = DC.holding_resistance nl victim *. ct }

let[@inline] peak_of h ~coupling_cap ~agg_slew =
  coupling_cap /. h.ct *. (h.tau /. (h.tau +. (agg_slew /. 2.)))

let peak nl ~victim ~coupling_cap ~agg_slew =
  peak_of (holding nl victim) ~coupling_cap ~agg_slew

let pulse nl ~agg_slew d =
  let h = holding nl d.dc_victim in
  let agg_slew = Float.max 1e-6 agg_slew in
  Tka_waveform.Pulse.make ~onset:0.
    ~peak:(peak_of h ~coupling_cap:(N.coupling nl d.dc_coupling).N.coupling_cap ~agg_slew)
    ~rise:agg_slew ~decay:h.tau

(* [Envelope.of_pulse]'s record of [pulse nl ~agg_slew:w.slew_late d]
   swept over [TW.onset_interval w], spelt out: [Pulse.make]'s checks,
   [Pulse.write_points] with [onset = 0.], the interval's low end less
   the onset and its width. Calls and records would box the floats. *)
let write_swept nl h (w : TW.t) buf s d =
  let rise = Float.max 1e-6 w.TW.slew_late and decay = h.tau in
  let peak = peak_of h ~coupling_cap:(N.coupling nl d.dc_coupling).N.coupling_cap ~agg_slew:rise in
  if peak <= 0. then invalid_arg "Pulse.make: peak must be positive";
  if decay <= 0. then invalid_arg "Pulse.make: decay must be positive";
  let lo = w.TW.eat -. (w.TW.slew_early /. 2.) and hi = w.TW.lat -. (w.TW.slew_late /. 2.) in
  let hi = if hi >= lo then hi else if Float.is_nan lo then invalid_arg "Interval.point: NaN" else lo in
  buf.(s) <- 0.;
  buf.(s + 1) <- 0.;
  buf.(s + 2) <- 0. +. rise;
  buf.(s + 3) <- peak;
  buf.(s + 4) <- 0. +. rise +. decay;
  buf.(s + 5) <- peak /. 2.;
  buf.(s + 6) <- 0. +. rise +. (3. *. decay);
  buf.(s + 7) <- 0.;
  buf.(s + 8) <- lo -. 0.;
  buf.(s + 9) <- hi -. lo
