module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let m_runs = Metrics.Counter.make "sta.runs"
let m_windows = Metrics.Counter.make "sta.arrival_windows"
let m_recomputed = Metrics.Counter.make "sta.nets_recomputed"

type t = {
  topo : Topo.t;
  input_arrival : N.net_id -> Timing_window.t;
  load : float array;  (* per net: its load, for the driver's output slew *)
  delay : float array;  (* per net: its driver's stage delay *)
  extra : float array;  (* the [extra_lat] vector these windows include *)
  windows : Timing_window.t array;
}

let default_input_arrival _ =
  Timing_window.point ~t50:0. ~slew:Delay_calc.default_input_slew

let extra_of ~fn extra_lat nid =
  let d = extra_lat nid in
  if d < 0. then invalid_arg (fn ^ ": negative extra_lat");
  d

(* The window of one net from its fanin windows, plus its extra push.
   [run] and [update] both go through here, so a recomputed net gets
   the very float operations a full run would give it. *)
let net_window t nid extra =
  let nl = Topo.netlist t.topo in
  let w =
    match (N.net nl nid).N.driver with
    | N.Primary_input -> t.input_arrival nid
    | N.Driven_by gid ->
      let delay = t.delay.(nid) and load = t.load.(nid) in
      let through (_, in_net) =
        let wi = t.windows.(in_net) in
        Timing_window.make
          ~eat:(wi.Timing_window.eat +. delay)
          ~lat:(wi.Timing_window.lat +. delay)
          ~slew_early:
            (Delay_calc.stage_output_slew nl gid ~load
               ~input_slew:wi.Timing_window.slew_early)
          ~slew_late:
            (Delay_calc.stage_output_slew nl gid ~load
               ~input_slew:wi.Timing_window.slew_late)
      in
      (match (N.gate nl gid).N.fanin with
      | [] -> assert false (* cells have >= 1 input *)
      | first :: rest ->
        List.fold_left
          (fun acc input -> Timing_window.merge acc (through input))
          (through first) rest)
  in
  Timing_window.extend_lat extra w

let run ?(input_arrival = default_input_arrival) ?(extra_lat = fun _ -> 0.) topo =
  Trace.with_span ~cat:"sta" "sta.arrival_propagation" @@ fun () ->
  Metrics.Counter.incr m_runs;
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  (* Loads and stage delays do not depend on arrivals: compute each
     once here rather than once per fanin pin, and keep them for
     [update]. *)
  let load = Array.make nn 0. and delay = Array.make nn 0. in
  Array.iter
    (fun (g : N.gate) ->
      let out = g.N.fanout in
      load.(out) <- Delay_calc.net_load nl out;
      delay.(out) <- Delay_calc.stage_delay_at nl g.N.gate_id ~load:load.(out))
    (N.gates nl);
  let t =
    {
      topo;
      input_arrival;
      load;
      delay;
      extra = Array.make nn 0.;
      windows = Array.make nn (Timing_window.point ~t50:0. ~slew:1.);
    }
  in
  Array.iter
    (fun nid ->
      let e = extra_of ~fn:"Analysis.run" extra_lat nid in
      t.extra.(nid) <- e;
      t.windows.(nid) <- net_window t nid e)
    (Topo.net_order topo);
  Metrics.Counter.add m_windows nn;
  t

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_window (a : Timing_window.t) (b : Timing_window.t) =
  same_bits a.Timing_window.eat b.Timing_window.eat
  && same_bits a.Timing_window.lat b.Timing_window.lat
  && same_bits a.Timing_window.slew_early b.Timing_window.slew_early
  && same_bits a.Timing_window.slew_late b.Timing_window.slew_late

(* Seeded re-propagation, level by level: only the seeds and the fanout
   of nets whose window moved are visited. A visited net is recomputed
   when its own push moved or a fanin window did, and a recomputed
   window equal to the old one stops the event. Nets within one level
   read only lower levels, so the visiting order inside a level does
   not change a bit. *)
let update ~seeds prev ~extra_lat =
  let topo = prev.topo in
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  match seeds with
  | [] -> (prev, [])
  | _ :: _ ->
    Trace.with_span ~cat:"sta" "sta.update" @@ fun () ->
    let t =
      { prev with extra = Array.copy prev.extra; windows = Array.copy prev.windows }
    in
    (* per net: [queued] once it sits in a level bucket, [fanin_moved]
       once one of its fanin windows changed *)
    let queued = Bytes.make nn '\000' and fanin_moved = Bytes.make nn '\000' in
    let buckets = Array.make (Topo.max_level topo + 1) [] in
    let lowest = ref (Array.length buckets) in
    let enqueue nid =
      if Bytes.get queued nid = '\000' then begin
        Bytes.set queued nid '\001';
        let l = Topo.net_level topo nid in
        buckets.(l) <- nid :: buckets.(l);
        if l < !lowest then lowest := l
      end
    in
    let seed nid =
      t.extra.(nid) <- extra_of ~fn:"Analysis.update" extra_lat nid;
      enqueue nid
    in
    List.iter seed seeds;
    let recomputed = ref 0 and moved = ref [] in
    for l = !lowest to Array.length buckets - 1 do
      List.iter
        (fun nid ->
          let e = t.extra.(nid) in
          if (not (same_bits e prev.extra.(nid))) || Bytes.get fanin_moved nid <> '\000'
          then begin
            incr recomputed;
            let w = net_window t nid e in
            if not (same_window w prev.windows.(nid)) then begin
              t.windows.(nid) <- w;
              moved := nid :: !moved;
              List.iter
                (fun out ->
                  Bytes.set fanin_moved out '\001';
                  enqueue out)
                (N.fanout_nets nl nid)
            end
          end)
        buckets.(l)
    done;
    Metrics.Counter.add m_recomputed !recomputed;
    (t, !moved)

let topo t = t.topo
let netlist t = Topo.netlist t.topo

let window t nid = t.windows.(nid)

let output_arrivals t =
  let nl = netlist t in
  List.map (fun nid -> (nid, t.windows.(nid).Timing_window.lat)) (N.outputs nl)

let worst_output t =
  match output_arrivals t with
  | [] -> invalid_arg "Analysis.worst_output: no primary outputs"
  | (n0, a0) :: rest ->
    fst
      (List.fold_left
         (fun (bn, ba) (n, a) -> if a > ba then (n, a) else (bn, ba))
         (n0, a0) rest)

let circuit_delay t =
  List.fold_left (fun acc (_, a) -> Float.max acc a) Float.neg_infinity
    (output_arrivals t)
