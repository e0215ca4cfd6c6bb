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

(* One pass of an all-aggressor run: the STA it read and the noise
   vector after it. *)
type pass = { ps_sta : Analysis.t; ps_noise : float array }

type t = {
  analysis : Analysis.t;
  base : Analysis.t;
  noise : float array;
  iterations : int;
  converged : bool;
  passes : pass array option;
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

(* Derived from a run's passes on the first [Except] score: each
   victim's |delta| in each pass, and the victims by decreasing delta
   (NaN first, as it wins any max). *)
type deltas = { dl_delta : float array; dl_order : N.net_id array }

type ctx = {
  cx_run : t;  (* the all-aggressor run every score starts from *)
  cx_passes : pass array;  (* its recorded passes *)
  cx_aggressors : Coupled_noise.directed list array Lazy.t;
  cx_partners : N.net_id array array Lazy.t;  (* per net: the nets coupled to it *)
  cx_deltas : deltas array Lazy.t;  (* per recorded pass *)
  cx_victims : float Victim_memo.t;
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

(* Each pass's |delta| from consecutive noise vectors, by the very
   float operation the loop's residual applies. *)
let deltas run passes =
  let before = ref (Array.make (Array.length run.noise) 0.) in
  Array.map
    (fun { ps_noise = after; _ } ->
      let delta = Array.mapi (fun v n -> Float.abs (n -. !before.(v))) after in
      let order = Array.init (Array.length after) Fun.id in
      Array.sort (fun a b -> by_delta_desc delta.(a) delta.(b)) order;
      before := after;
      { dl_delta = delta; dl_order = order })
    passes

(* Everything but the run is built on first use, so a ctx that is never
   scored through costs nothing. *)
let context run =
  match run.passes with
  | None -> invalid_arg "Iterate.context: not an all-aggressor run"
  | Some passes ->
    let nl = Analysis.netlist run.base in
    {
      cx_run = run;
      cx_passes = passes;
      cx_aggressors = lazy (all_aggressors nl);
      cx_partners = lazy (coupling_partners nl);
      cx_deltas = lazy (deltas run passes);
      cx_victims = Victim_memo.create 256;
    }

(* An [Except] run from noiseless as a patch on the ctx's run, the
   reference. In pass p a victim is re-evaluated only on the frontier:
   the touched victims, the victims [diff] whose noise differs from the
   reference's, the nets whose window moved against the reference's
   pass-p STA, and their coupling partners. Every other victim has the
   reference's pass-p inputs bit for bit, so it takes the reference's
   noise and delta; the largest off-frontier delta is the first
   off-frontier victim in the reference's order. A run that outlasts
   the recording carries on with the full loop. *)
let run_except cx nl ~aggressors ~touched ~max_iterations ~tolerance =
  let rf = cx.cx_passes and ds = Lazy.force cx.cx_deltas in
  let partners = Lazy.force cx.cx_partners in
  let recorded = Array.length rf in
  let sta_after p = if p < recorded then rf.(p).ps_sta else cx.cx_run.analysis in
  let noise = ref (Array.make (Array.length aggressors) 0.) and diff = ref [] in
  let stamp = Array.make (Array.length aggressors) 0 in
  let iterations = ref 0 and converged = ref false and residual = ref 0. in
  while (not !converged) && !iterations < max_iterations && !iterations < recorded do
    incr iterations;
    let p = !iterations in
    let rp = rf.(p - 1) and dl = ds.(p - 1) in
    let delta =
      pass nl p @@ fun () ->
      let a, moved =
        Analysis.update ~seeds:!diff rp.ps_sta ~extra_lat:(Array.get !noise)
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
      let old = !noise and fresh = Array.copy rp.ps_noise in
      let delta = ref 0. and differs = ref [] in
      List.iter
        (fun v ->
          let n =
            victim_noise (Some cx) nl ~windows:w ~own_noise:old.(v) ~victim:v
              aggressors.(v)
          in
          delta := Float.max !delta (Float.abs (n -. old.(v)));
          if not (same_bits n rp.ps_noise.(v)) then differs := v :: !differs;
          fresh.(v) <- n)
        !frontier;
      (match Array.find_opt (fun v -> stamp.(v) <> p) dl.dl_order with
      | Some v -> delta := Float.max !delta dl.dl_delta.(v)
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
  (* the all-aggressor fixpoint is a layer of its own; the runs that
     score a set are [iterate.run]s *)
  let span = match active with All -> "noise.fixpoint" | Only _ | Except _ -> "iterate.run" in
  Trace.with_span ~cat:"noise" span @@ fun () ->
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let base, all =
    match ctx with
    | None -> (Analysis.run topo, all_aggressors nl)
    | Some cx ->
      if Analysis.topo cx.cx_run.base != topo then
        invalid_arg "Iterate.run: ctx built for another topology";
      (cx.cx_run.base, Lazy.force cx.cx_aggressors)
  in
  let aggressors, touched = aggressor_lists nl all active in
  (* an all-aggressor run keeps each pass, for {!context} *)
  let recording = match active with All -> Some (ref []) | Only _ | Except _ -> None in
  let on_pass =
    Option.map
      (fun r sta noise -> r := { ps_sta = sta; ps_noise = Array.copy noise } :: !r)
      recording
  in
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
      fixpoint ?on_pass ?victims ctx nl ~aggressors ~max_iterations ~tolerance
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
  let passes = Option.map (fun r -> Array.of_list (List.rev !r)) recording in
  { analysis = final; base; noise; iterations; converged; passes }

let circuit_delay t = Analysis.circuit_delay t.analysis
let noiseless_delay t = Analysis.circuit_delay t.base
let total_delay_noise t = circuit_delay t -. noiseless_delay t
let windows t = Analysis.window t.analysis
let net_noise t nid = t.noise.(nid)
