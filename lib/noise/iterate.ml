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
let m_frontier = Metrics.Counter.make "iterate.frontier_victims"
let m_fallbacks = Metrics.Counter.make "iterate.reference_fallbacks"
let g_residual = Metrics.Gauge.make "iterate.last_residual_ns"

type active = All | Only of int list | Except of int list

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

(* The all-aggressor run from noiseless, recorded pass by pass: the
   reference an elimination score is a patch on. Pass [p] holds the STA
   it read, the noise vector after it, each victim's |delta| in it, and
   the victims by decreasing delta (NaN first, as it wins any max). *)
type ref_pass = {
  rp_sta : Analysis.t;
  rp_noise : float array;
  rp_delta : float array;
  rp_order : N.net_id array;
}

type reference = {
  rf_passes : ref_pass array;
  rf_final : Analysis.t;  (* the STA of the last recorded noise vector *)
}

type ctx = {
  cx_topo : Topo.t;
  cx_base : Analysis.t Lazy.t;
  cx_aggressors : Coupled_noise.directed list array Lazy.t;
  cx_partners : N.net_id array array Lazy.t;  (* per net: the nets coupled to it *)
  cx_victims : float Victim_memo.t;
  mutable cx_reference : reference option;
}

(* The victim memo starts over once it holds this many entries: a
   brute-force scan scores millions of sets through one ctx. *)
let victim_memo_cap = 1 lsl 17

let default_max_iterations = 30
let default_tolerance = 1e-4

let all_aggressors nl =
  Array.init (N.num_nets nl) (Coupled_noise.aggressors_of_victim nl)

let coupling_partners nl =
  Array.init (N.num_nets nl) (fun m ->
      Array.of_list
        (List.map (fun c -> N.coupling_partner nl c m) (N.couplings_of_net nl m)))

(* Everything is built on first use, so a ctx that is never scored
   through costs nothing. *)
let context topo =
  let nl = Topo.netlist topo in
  {
    cx_topo = topo;
    cx_base = lazy (Analysis.run topo);
    cx_aggressors = lazy (all_aggressors nl);
    cx_partners = lazy (coupling_partners nl);
    cx_victims = Victim_memo.create 256;
    cx_reference = None;
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

(* Nothing a victim builds outlives it, so its envelopes go back to the
   arena at once. *)
let victim_noise ctx nl ~windows ~own_noise ~victim ds =
  let evaluate () =
    Tka_waveform.Arena.scoped (fun () ->
        Victim_noise.delay_noise nl ~windows ~own_noise ~victim ds)
  in
  match (ctx, ds) with
  | _, [] -> 0.
  | None, _ -> evaluate ()
  | Some cx, _ :: _ -> (
    let key = victim_key windows ~own_noise ~victim ds in
    match Victim_memo.find_opt cx.cx_victims key with
    | Some n ->
      Metrics.Counter.incr m_victim_hits;
      n
    | None ->
      Metrics.Counter.incr m_victim_misses;
      let n = evaluate () in
      if Victim_memo.length cx.cx_victims >= victim_memo_cap then
        Victim_memo.reset cx.cx_victims;
      Victim_memo.add cx.cx_victims key n;
      n)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Each victim's aggressor list under [active], and the victims whose
   list is not the all-aggressor one: only the victims the set names
   get a filtered list, kept in [all.(v)] order; the rest share
   [all.(v)] ([Except]) or [[]] ([Only]). Ids that name no directed
   coupling are ignored. *)
let aggressor_lists nl all = function
  | All -> (all, [])
  | (Only ids | Except ids) as active ->
    let keep = match active with Only _ -> true | All | Except _ -> false in
    let named = Array.make (Array.length all) [] in
    let touched = ref [] in
    List.iter
      (fun id ->
        if id >= 0 && id < 2 * N.num_couplings nl then begin
          let v = (Coupled_noise.of_directed_id nl id).Coupled_noise.dc_victim in
          if named.(v) = [] then touched := v :: !touched;
          named.(v) <- id :: named.(v)
        end)
      ids;
    let lists = if keep then Array.make (Array.length all) [] else Array.copy all in
    List.iter
      (fun v ->
        lists.(v) <-
          List.filter
            (fun d -> List.mem (Coupled_noise.directed_id d) named.(v) = keep)
            all.(v))
      !touched;
    (lists, !touched)

(* One pass of any loop below: [body ()] runs it and returns its
   residual. *)
let pass nl p body =
  Metrics.Counter.incr m_passes;
  Trace.with_span ~cat:"noise" ~args:[ ("pass", Tka_obs.Jsonx.Int p) ] "iterate.pass"
  @@ fun () ->
  let delta = body () in
  Log.debug log_src (fun m ->
      m
        ~fields:
          [
            Log.str "circuit" (N.name nl);
            Log.int "pass" p;
            Log.float "residual_ns" delta;
          ]
        "%s: pass %d residual %.6f ns" (N.name nl) p delta);
  delta

(* The fixpoint loop, resumable: [noise] holds the vector after
   [iterations] passes (updated in place), and [seeds] names every net
   whose noise differs bitwise from the push [sta] was computed with.
   Each pass re-times by a seeded update, evaluates [victims] (default
   every net; a subset only when no other victim can carry noise, and
   then it counts as frontier) and seeds the next update with the
   victims whose noise moved. Returns the STA of the final noise
   vector, the vector, the pass count, convergence and the last
   residual. *)
let fixpoint ?on_pass ?victims ctx nl ~aggressors ~max_iterations ~tolerance ~noise ~sta
    ~seeds ~iterations ~residual =
  let victims, frontier =
    match victims with
    | Some vs -> (vs, Array.length vs)
    | None -> (Array.init (Array.length noise) Fun.id, 0)
  in
  let sta = ref sta and seeds = ref seeds and iterations = ref iterations in
  let converged = ref false and residual = ref residual in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let delta =
      pass nl !iterations @@ fun () ->
      let a, _ = Analysis.update ~seeds:!seeds !sta ~extra_lat:(Array.get noise) in
      let w = Analysis.window a in
      let delta = ref 0. and changed = ref [] in
      Array.iter
        (fun v ->
          let fresh =
            victim_noise ctx nl ~windows:w ~own_noise:noise.(v) ~victim:v aggressors.(v)
          in
          delta := Float.max !delta (Float.abs (fresh -. noise.(v)));
          if not (same_bits fresh noise.(v)) then changed := v :: !changed;
          noise.(v) <- fresh)
        victims;
      Metrics.Counter.add m_frontier frontier;
      Option.iter (fun f -> f a noise) on_pass;
      sta := a;
      seeds := !changed;
      !delta
    in
    residual := delta;
    if delta <= tolerance then converged := true
  done;
  let final, _ = Analysis.update ~seeds:!seeds !sta ~extra_lat:(Array.get noise) in
  (final, noise, !iterations, !converged, !residual)

let by_delta_desc a b =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false -> Float.compare b a

(* The ctx's all-aggressor run from noiseless, recorded on first use
   through the ctx's memo. *)
let reference cx nl =
  match cx.cx_reference with
  | Some r -> r
  | None ->
    let all = Lazy.force cx.cx_aggressors in
    let nn = Array.length all in
    let passes = ref [] and before = ref (Array.make nn 0.) in
    let on_pass sta noise =
      let after = Array.copy noise in
      (* the very float operation the loop's residual applies *)
      let delta = Array.init nn (fun v -> Float.abs (after.(v) -. !before.(v))) in
      let order = Array.init nn Fun.id in
      Array.sort (fun a b -> by_delta_desc delta.(a) delta.(b)) order;
      passes :=
        { rp_sta = sta; rp_noise = after; rp_delta = delta; rp_order = order }
        :: !passes;
      before := after
    in
    let final, _, _, _, _ =
      fixpoint ~on_pass (Some cx) nl ~aggressors:all
        ~max_iterations:default_max_iterations ~tolerance:default_tolerance
        ~noise:(Array.make nn 0.) ~sta:(Lazy.force cx.cx_base) ~seeds:[] ~iterations:0
        ~residual:0.
    in
    Metrics.Counter.incr m_runs;
    let r = { rf_passes = Array.of_list (List.rev !passes); rf_final = final } in
    cx.cx_reference <- Some r;
    r

(* An [Except] run from noiseless as a patch on the reference. In pass
   p a victim is re-evaluated only on the frontier: the touched
   victims, the victims [diff] whose noise differs from the
   reference's, the nets whose window moved against the reference's
   pass-p STA, and their coupling partners. Every other victim has the
   reference's pass-p inputs bit for bit, so it takes the reference's
   noise and delta; the largest off-frontier delta is the first
   off-frontier victim in the reference's order. A run that outlasts
   the recording carries on with the full loop. *)
let run_except cx nl ~aggressors ~touched ~max_iterations ~tolerance =
  let rf = reference cx nl in
  let partners = Lazy.force cx.cx_partners in
  let recorded = Array.length rf.rf_passes in
  let sta_after p = if p < recorded then rf.rf_passes.(p).rp_sta else rf.rf_final in
  let noise = ref (Array.make (Array.length aggressors) 0.) and diff = ref [] in
  let stamp = Array.make (Array.length aggressors) 0 in
  let iterations = ref 0 and converged = ref false and residual = ref 0. in
  while (not !converged) && !iterations < max_iterations && !iterations < recorded do
    incr iterations;
    let p = !iterations in
    let rp = rf.rf_passes.(p - 1) in
    let delta =
      pass nl p @@ fun () ->
      let a, moved =
        Analysis.update ~seeds:!diff rp.rp_sta ~extra_lat:(Array.get !noise)
      in
      let frontier = ref [] and size = ref 0 in
      let add v =
        if stamp.(v) <> p then begin
          stamp.(v) <- p;
          incr size;
          frontier := v :: !frontier
        end
      in
      List.iter add touched;
      List.iter add !diff;
      List.iter
        (fun m ->
          add m;
          Array.iter add partners.(m))
        moved;
      Metrics.Counter.add m_frontier !size;
      let w = Analysis.window a in
      let old = !noise and fresh = Array.copy rp.rp_noise in
      let delta = ref 0. and differs = ref [] in
      List.iter
        (fun v ->
          let n =
            victim_noise (Some cx) nl ~windows:w ~own_noise:old.(v) ~victim:v
              aggressors.(v)
          in
          delta := Float.max !delta (Float.abs (n -. old.(v)));
          if not (same_bits n rp.rp_noise.(v)) then differs := v :: !differs;
          fresh.(v) <- n)
        !frontier;
      (match Array.find_opt (fun v -> stamp.(v) <> p) rp.rp_order with
      | Some v -> delta := Float.max !delta rp.rp_delta.(v)
      | None -> ());
      noise := fresh;
      diff := !differs;
      !delta
    in
    residual := delta;
    if delta <= tolerance then converged := true
  done;
  let p = !iterations in
  if !converged || p >= max_iterations then begin
    let final, _ =
      Analysis.update ~seeds:!diff (sta_after p) ~extra_lat:(Array.get !noise)
    in
    (final, !noise, p, !converged, !residual)
  end
  else begin
    Metrics.Counter.incr m_fallbacks;
    fixpoint (Some cx) nl ~aggressors ~max_iterations ~tolerance ~noise:!noise
      ~sta:(sta_after p) ~seeds:!diff ~iterations:p ~residual:!residual
  end

let run ?(active = All)
    ?(max_iterations = default_max_iterations) ?(tolerance = default_tolerance) ?ctx topo =
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
  let aggressors, touched = aggressor_lists nl all active in
  let final, noise, iterations, converged, residual =
    match (ctx, active) with
    | Some cx, Except _ ->
      run_except cx nl ~aggressors ~touched ~max_iterations ~tolerance
    | _ ->
      (* under [Only] no victim outside the set can carry noise *)
      let victims =
        match active with
        | Only _ -> Some (Array.of_list touched)
        | All | Except _ -> None
      in
      fixpoint ?victims ctx nl ~aggressors ~max_iterations ~tolerance
        ~noise:(Array.make nn 0.) ~sta:base ~seeds:[] ~iterations:0 ~residual:0.
  in
  Metrics.Counter.incr m_runs;
  Metrics.Gauge.set g_residual residual;
  if not converged then begin
    Metrics.Counter.incr m_non_converged;
    Log.warn log_src (fun m ->
        m
          ~fields:
            [
              Log.str "circuit" (N.name nl);
              Log.int "max_iterations" max_iterations;
              Log.float "residual_ns" residual;
            ]
          "noise iteration did not converge in %d sweeps on %s" max_iterations
          (N.name nl))
  end;
  { analysis = final; base; noise; iterations; converged }

let circuit_delay t = Analysis.circuit_delay t.analysis
let noiseless_delay t = Analysis.circuit_delay t.base
let total_delay_noise t = circuit_delay t -. noiseless_delay t
let windows t = Analysis.window t.analysis
let net_noise t nid = t.noise.(nid)
