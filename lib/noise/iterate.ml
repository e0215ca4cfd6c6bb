module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Analysis = Tka_sta.Analysis
module TW = Tka_sta.Timing_window

module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

let log_src = Log.Src.create "iterate" ~doc:"iterative noise analysis"
let m_runs = Metrics.Counter.make "iterate.runs"
let m_passes = Metrics.Counter.make "iterate.passes"
let m_non_converged = Metrics.Counter.make "iterate.non_converged"
let m_victim_hits = Metrics.Counter.make "iterate.victim_memo_hits"
let m_victim_misses = Metrics.Counter.make "iterate.victim_memo_misses"
let g_residual = Metrics.Gauge.make "iterate.last_residual_ns"

type mode = From_noiseless | From_all_overlap

type t = {
  analysis : Analysis.t;
  base : Analysis.t;
  noise : float array;
  iterations : int;
  converged : bool;
}

(* Victim-noise memo key: every input [Victim_noise.delay_noise] reads —
   the victim id, its LAT and late slew, its own noise, then each active
   aggressor's directed id and full window, in list order. Keys compare
   bit for bit, so a hit returns exactly what recomputation would. *)
module Victim_key = struct
  type t = float array

  let bits = Int64.bits_of_float

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (Int64.equal (bits a.(i)) (bits b.(i)) && go (i + 1)) in
    go 0

  let hash a =
    let h =
      Array.fold_left
        (fun h x -> (h lxor Int64.to_int (bits x)) * 0x100000001b3)
        0 a
    in
    (h lxor (h lsr 31)) land max_int
end

module Victim_memo = Hashtbl.Make (Victim_key)

type ctx = {
  cx_topo : Topo.t;
  cx_base : Analysis.t Lazy.t;
  cx_aggressors : Coupled_noise.directed list array Lazy.t;
  mutable cx_env : Envelope_builder.memo;
  cx_victims : float Victim_memo.t;
}

(* Both memos start over once the victim memo holds this many entries:
   a brute-force scan scores millions of sets through one ctx, and the
   envelope memo only grows on a victim miss. *)
let victim_memo_cap = 1 lsl 17

let all_aggressors nl =
  Array.init (N.num_nets nl) (Coupled_noise.aggressors_of_victim nl)

(* Everything is built on first use, so a ctx that is never scored
   through costs nothing. *)
let context topo =
  {
    cx_topo = topo;
    cx_base = lazy (Analysis.run topo);
    cx_aggressors = lazy (all_aggressors (Topo.netlist topo));
    cx_env = Envelope_builder.create_memo ();
    cx_victims = Victim_memo.create 256;
  }

let victim_key (windows : Envelope_builder.windows) ~own_noise ~victim ds =
  let key = Array.make (4 + (5 * List.length ds)) 0. in
  let w = windows victim in
  key.(0) <- float_of_int victim;
  key.(1) <- w.TW.lat;
  key.(2) <- w.TW.slew_late;
  key.(3) <- own_noise;
  List.iteri
    (fun i d ->
      let w = windows d.Coupled_noise.dc_aggressor in
      let o = 4 + (5 * i) in
      key.(o) <- float_of_int (Coupled_noise.directed_id d);
      key.(o + 1) <- w.TW.eat;
      key.(o + 2) <- w.TW.lat;
      key.(o + 3) <- w.TW.slew_early;
      key.(o + 4) <- w.TW.slew_late)
    ds;
  key

(* Without a ctx nothing a victim builds outlives it, so its envelopes
   go back to the arena at once; with one, the envelope memo keeps
   them, so that path stays unscoped. *)
let victim_noise ctx nl ~windows ~own_noise ~victim ds =
  match (ctx, ds) with
  | _, [] -> 0.
  | None, _ ->
    Tka_waveform.Arena.scoped (fun () ->
        Victim_noise.delay_noise nl ~windows ~own_noise ~victim ds)
  | Some cx, _ :: _ -> (
    let key = victim_key windows ~own_noise ~victim ds in
    match Victim_memo.find_opt cx.cx_victims key with
    | Some n ->
      Metrics.Counter.incr m_victim_hits;
      n
    | None ->
      Metrics.Counter.incr m_victim_misses;
      let n =
        Victim_noise.delay_noise nl ~windows ~own_noise ~memo:cx.cx_env ~victim ds
      in
      if Victim_memo.length cx.cx_victims >= victim_memo_cap then begin
        Victim_memo.reset cx.cx_victims;
        cx.cx_env <- Envelope_builder.create_memo ()
      end;
      Victim_memo.add cx.cx_victims key n;
      n)

let run ?(mode = From_noiseless) ?(active = fun _ -> true) ?(max_iterations = 30)
    ?(tolerance = 1e-4) ?ctx topo =
  Trace.with_span ~cat:"noise" "iterate.run" @@ fun () ->
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let base, all =
    match ctx with
    | None -> (Analysis.run topo, all_aggressors nl)
    | Some cx ->
      if cx.cx_topo != topo then invalid_arg "Iterate.run: ctx built for another topology";
      (Lazy.force cx.cx_base, Lazy.force cx.cx_aggressors)
  in
  let aggressors = Array.map (List.filter active) all in
  let noise = Array.make nn 0. in
  (match mode with
  | From_noiseless -> ()
  | From_all_overlap ->
    (* start from the infinite-window bound of each net *)
    let w = Analysis.window base in
    for v = 0 to nn - 1 do
      noise.(v) <-
        Victim_noise.upper_bound nl ~windows:w ~victim:v aggressors.(v)
    done);
  let iterations = ref 0 in
  let converged = ref false in
  (* the STA of the noise vector as of the latest pass; [base] is the
     STA of the all-zero vector *)
  let analysis = ref base in
  let residual = ref 0. in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    Metrics.Counter.incr m_passes;
    Trace.with_span ~cat:"noise"
      ~args:[ ("pass", Tka_obs.Jsonx.Int !iterations) ]
      "iterate.pass"
    @@ fun () ->
    let a =
      if !iterations = 1 && mode = From_noiseless then base
      else Analysis.update !analysis ~extra_lat:(Array.get noise)
    in
    let w = Analysis.window a in
    let delta = ref 0. in
    for v = 0 to nn - 1 do
      let fresh =
        victim_noise ctx nl ~windows:w ~own_noise:noise.(v) ~victim:v aggressors.(v)
      in
      delta := Float.max !delta (Float.abs (fresh -. noise.(v)));
      noise.(v) <- fresh
    done;
    analysis := a;
    residual := !delta;
    Log.debug log_src (fun m ->
        m
          ~fields:
            [
              Log.str "circuit" (N.name nl);
              Log.int "pass" !iterations;
              Log.float "residual_ns" !delta;
            ]
          "%s: pass %d residual %.6f ns" (N.name nl) !iterations !delta);
    if !delta <= tolerance then converged := true
  done;
  Metrics.Counter.incr m_runs;
  Metrics.Gauge.set g_residual !residual;
  (* final STA consistent with the converged noise vector *)
  let final = Analysis.update !analysis ~extra_lat:(Array.get noise) in
  if not !converged then begin
    Metrics.Counter.incr m_non_converged;
    Log.warn log_src (fun m ->
        m
          ~fields:
            [
              Log.str "circuit" (N.name nl);
              Log.int "max_iterations" max_iterations;
              Log.float "residual_ns" !residual;
            ]
          "noise iteration did not converge in %d sweeps on %s" max_iterations
          (N.name nl))
  end;
  { analysis = final; base; noise; iterations = !iterations; converged = !converged }

let circuit_delay t = Analysis.circuit_delay t.analysis
let noiseless_delay t = Analysis.circuit_delay t.base
let total_delay_noise t = circuit_delay t -. noiseless_delay t
let windows t = Analysis.window t.analysis
let net_noise t nid = t.noise.(nid)
