module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Analysis = Tka_sta.Analysis
module Iterate = Tka_noise.Iterate
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder
module VN = Tka_noise.Victim_noise
module Envelope = Tka_waveform.Envelope
module Transition = Tka_waveform.Transition
module Pwl = Tka_waveform.Pwl
module Filter = Tka_filter.Filter
module Filter_mode = Tka_filter.Mode

module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

(* Tables keyed by directed-coupling ids: those are dense small ints,
   so the identity is a perfect hash and lookups skip the generic
   structural hash and compare. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

let log_src = Log.Src.create "engine" ~doc:"top-k aggressor enumeration"
let m_victims = Metrics.Counter.make "engine.victims_enumerated"
let m_runs = Metrics.Counter.make "engine.runs"
let g_runtime = Metrics.Gauge.make "engine.last_runtime_s"
let h_victim_s = Metrics.Histogram.make "engine.victim_seconds"
let m_prelude_reuses = Metrics.Counter.make "engine.prelude_reuses"
let m_direct = Metrics.Counter.make "engine.direct_summaries"
let m_scan_points = Metrics.Counter.make "engine.elim_scan_points"
let m_full_points = Metrics.Counter.make "engine.elim_full_points"
let m_scan_fallbacks = Metrics.Counter.make "engine.elim_scan_fallbacks"

type mode = Addition | Elimination

type config = {
  k : int;
  capacity : int;
  use_pseudo : bool;
  use_higher_order : bool;
  filter : Filter_mode.t;
}

let default_config ~k =
  {
    k;
    capacity = Ilist.default_capacity;
    use_pseudo = true;
    use_higher_order = true;
    filter = Filter_mode.Off;
  }

type choice = {
  ch_set : Coupling_set.t;
  ch_objective : float;
  ch_sink : N.net_id;
}

type result = {
  res_mode : mode;
  res_config : config;
  res_per_k : choice option array;
  res_top : choice list array;
  res_stats : Ilist.stats;
  res_noiseless_delay : float;
  res_noisy_delay : float;
  res_runtime : float;
}

(* How many sink candidates per cardinality are retained for exact
   re-ranking by the callers (the paper superposes every member of the
   sink's I-list; we keep the best few by the first-order score). *)
let sink_candidates = 6

(* Per-net, per-cardinality summaries retained after a net is processed:
   the best few coupling sets (by objective at that net), best first.
   Propagating more than the single best set (the paper's step 5) lets
   downstream victims recover upstream sets whose first-order rank was
   slightly off — the exact re-ranking at the sink then corrects it. *)
type cardinality_summary = (Coupling_set.t * float) list array
type summary = cardinality_summary

type cached_victim = {
  cv_summary : cardinality_summary;
  cv_out : cardinality_summary option;
  cv_stats : Ilist.stats;
  cv_direct : (N.net_id * cardinality_summary * Ilist.stats) list;
}

type victim_cache = {
  vc_lookup : summary_of:(N.net_id -> cardinality_summary) -> N.net_id -> cached_victim option;
  vc_store : N.net_id -> cached_victim -> unit;
}

let summaries_per_cardinality = 2

(* The elimination reference of a victim: the noise of everything
   attacking it (direct + propagated) and its noisy floor, the ramp
   minus that total envelope, indexed for the objective. The index
   holds its own copy of the floor, outside the arena. *)
type reference = { rf_noise : float; rf_floor : Pwl.floor }

(* The per-victim work that depends only on the net and on run
   constants: the screened, non-inert primaries with their de-rating,
   their dense indices, strict-dominator masks and the [strong] flags,
   and the elimination reference once an enumeration has built it.
   It holds no envelopes — a PWL slice must not outlive the victim that
   built it (docs/performance.md) — so a consumer rebuilds those. *)
type prelude = {
  pr_prims : CN.directed array;
  pr_derate : int -> float;
  pr_idx : int Int_tbl.t;
  pr_dom_mask : Tka_util.Bitset.t array;
  pr_strong : bool array;
  pr_ref : reference option;
}

(* A net's direct-only summary, the stats of its enumeration, and
   whether some victim has read it, visited or cached: only read
   summaries count in the run's stats. Victims of one level may read
   it at once, hence the atomic. *)
type direct = { d_summary : summary; d_stats : Ilist.stats; d_read : bool Atomic.t }

let eps = 1e-9

let mode_name = function Addition -> "addition" | Elimination -> "elimination"
let mode_names = [ ("add", Addition); ("elim", Elimination) ]
let mode_tag = function Addition -> 0 | Elimination -> 1
let better mode d d' = match mode with Addition -> d > d' | Elimination -> d < d'

let compute_body ~config ~fixpoint:fix ~victim_cache ~mode topo =
  let t_start = Tka_obs.Clock.now_ns () in
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let k = config.k in
  let base = fix.Iterate.base in
  let base_w = Analysis.window base in
  let noisy_w = Analysis.window fix.Iterate.analysis in
  let mode_w = match mode with Addition -> base_w | Elimination -> noisy_w in
  (* Candidate pruning: prepared once per run against the same window
     accessor the envelopes below are built from, then consulted per
     victim. Pure and immutable, so sharing it across domains is safe. *)
  let filt = Filter.prepare ~mode:config.filter ~windows:mode_w topo in
  let base_lat v = (base_w v).TW.lat in
  let noisy_lat v = (noisy_w v).TW.lat in
  (* Per-net slots of the sweep. Each is written by one task of one
     phase (docs/parallelism.md): [records.(v)] by [v]'s cache lookup
     or visit, [directs.(a)] and [stash.(a)] by [a]'s direct-only
     enumeration (or a cached victim's replay), and [stash.(a)] cleared
     by [a]'s own visit. Only a direct's read flag is set by several
     tasks. *)
  let records : cached_victim option array = Array.make nn None in
  let directs : direct option array = Array.make nn None in
  let stash : prelude option array = Array.make nn None in
  let summary u = match records.(u) with Some r -> r.cv_summary | None -> [||] in
  (* direct summaries are only read by higher-order candidates *)
  let higher_possible = config.use_higher_order && k >= 2 in

  (* The victim's latest transition, anchored at the noiseless arrival:
     objectives measure noise added to / removed from the noiseless
     timing. *)
  let victim_tr v =
    Transition.make ~t50:(base_lat v) ~slew:(mode_w v).TW.slew_late
  in

  (* Upstream component of the fixpoint shift at [v] (elimination). *)
  let upstream_shift v =
    Float.max 0. (noisy_lat v -. base_lat v -. Iterate.net_noise fix v)
  in

  (* --------------------------------------------------------------- *)
  (* Per-victim enumeration                                          *)
  (* --------------------------------------------------------------- *)
  let summary_of_ilists upto (ilists : Ilist.entry list array) : summary =
    Array.init (upto + 1) (fun i ->
        if i = 0 then [ (Coupling_set.empty, 0.) ]
        else
          ilists.(i)
          |> List.filteri (fun j _ -> j < summaries_per_cardinality)
          |> List.map (fun (e : Ilist.entry) ->
                 (e.Ilist.couplings, e.Ilist.objective)))
  in

  (* Envelopes of a victim's primaries, built on first use and kept for
     the rest of that victim's enumeration. *)
  let prim_env_of derate_of size =
    let tbl = Int_tbl.create size in
    fun (d : CN.directed) ->
      let id = CN.directed_id d in
      match Int_tbl.find_opt tbl id with
      | Some e -> e
      | None ->
        let e = EB.of_directed nl ~windows:mode_w d in
        let e = match derate_of id with 1. -> e | f -> Envelope.scale f e in
        Int_tbl.replace tbl id e;
        e
  in
  (* The saturated t50 shift of [w - env] ([neg]) or [w + env]: with [w]
     the victim's ramp (built once per victim) and [neg], exactly
     [VN.delay_noise_of_envelope ~victim env]. *)
  let crossing_noise ~victim ~neg w env =
    VN.saturate ~victim (Envelope.crossing_delay ~victim ~neg w env)
  in
  let build_prelude v ~victim ~ramp ~interval =
    (* Pre-engine screening: drops candidates the filter proves inert
       before any envelope is built (the whole point — with filtering
       off, [screen] returns the input list physically unchanged and a
       constant 1.0 factor, leaving this path bit-identical). *)
    let coupled = CN.aggressors_of_victim nl v in
    let all_primaries, derate_of = Filter.screen filt coupled in
    let prim_env = prim_env_of derate_of (max 16 (List.length all_primaries)) in
    (* A primary whose envelope is zero everywhere on the dominance
       interval cannot change any candidate's objective (the saturated
       crossing never leaves the interval), so it is inert at this
       victim — on dense circuits most couplings are inert for most
       victims, and dropping them up front shrinks every later step.
       For the elimination objective the interval test is the same: the
       removed envelope only matters where the crossing can sit. *)
    let prim_arr =
      List.filter
        (fun d -> Pwl.max_on interval (Envelope.waveform (prim_env d)) > eps)
        all_primaries
      |> Array.of_list
    in
    let np = Array.length prim_arr in
    (* Interned primary universe: each live primary gets a dense index
       into [prim_arr]; dominator sets and entry membership then live in
       bitsets over [0, np), so the extension filter is a handful of
       word ands instead of id-list scans per (entry, primary) pair. *)
    let idx_of_id = Int_tbl.create (max 16 np) in
    Array.iteri
      (fun idx (d : CN.directed) ->
        Int_tbl.replace idx_of_id (CN.directed_id d) idx)
      prim_arr;
    (* [dom_mask.(i)] holds the strict dominators of primary [i] (ties
       broken by id so equal envelopes do not eliminate each other);
       one paired scan per unordered pair sets both directions, with
       each envelope's interval ends computed once. *)
    let envs = Array.map prim_env prim_arr in
    let ends = Array.map (Dominance.ends ~interval) envs in
    let dom_mask = Array.init np (fun _ -> Tka_util.Bitset.make np) in
    for i = 0 to np - 1 do
      let id = CN.directed_id prim_arr.(i) in
      for i' = i + 1 to np - 1 do
        let id' = CN.directed_id prim_arr.(i') in
        let d_dom, d'_dom =
          Dominance.dominates_pair ~interval envs.(i) ends.(i) envs.(i') ends.(i')
        in
        if d'_dom && ((not d_dom) || id' < id) then
          Tka_util.Bitset.set dom_mask.(i) i';
        if d_dom && ((not d'_dom) || id < id') then
          Tka_util.Bitset.set dom_mask.(i') i
      done
    done;
    (* extension fan-out bound: only the strongest primaries (by
       singleton objective) plus any primary whose dominators are all in
       the set already (the stacking case) are tried *)
    let strong = Array.make (max 1 np) false in
    let () =
      let scored =
        Array.mapi
          (fun idx e -> (idx, crossing_noise ~victim ~neg:true ramp e))
          envs
      in
      Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored;
      Array.iteri
        (fun rank (idx, _) -> if rank < 8 then strong.(idx) <- true)
        scored
    in
    ( {
        pr_prims = prim_arr;
        pr_derate = derate_of;
        pr_idx = idx_of_id;
        pr_dom_mask = dom_mask;
        pr_strong = strong;
        pr_ref = None;
      },
      prim_env )
  in

  (* The best sets attacking aggressor net [a], as a victim at [level]
     reads them: the published summary when [a] lies at a strictly
     lower level, otherwise its direct-only summary, which phase B of
     this level or an earlier one has computed. The rule depends only
     on levels, so every jobs count makes identical decisions. *)
  let summary_of_aggressor ~level a =
    if Topo.net_level topo a < level then summary a
    else begin
      let d = Option.get directs.(a) in
      Atomic.set d.d_read true;
      d.d_summary
    end
  in

  (* A net's direct-only enumeration runs before its visit (phase B of
     a level at or below the net's), so it stashes the prelude, with
     the elimination reference it built, for the visit, unless the
     net's record is already installed from the cache; the visit takes
     it out. [direct] enumerations list only primaries, with neither
     pseudo nor higher-order candidates, up to cardinality [k - 1]. Returns the lists, their pruning stats, and,
     for the victim cache, the direct-only summaries the higher-order
     candidates read (in pool order, deduplicated: a cached record's
     [cv_direct]). *)
  let enumerate ~direct v =
    let victim = victim_tr v in
    let ramp = Transition.waveform victim in
    let interval = Dominance.interval ~victim in
    let pr, prim_env =
      match stash.(v) with
      | Some pr ->
        stash.(v) <- None;
        Metrics.Counter.incr m_prelude_reuses;
        (pr, prim_env_of pr.pr_derate (max 16 (Array.length pr.pr_prims)))
      | None -> build_prelude v ~victim ~ramp ~interval
    in
    let use_pseudo = config.use_pseudo && not direct in
    let use_higher = higher_possible && not direct in
    let upto = if direct then k - 1 else k in
    let level = Topo.net_level topo v in
    let stats = Ilist.fresh_stats () in
    let prim_arr = pr.pr_prims and derate_of = pr.pr_derate in
    let idx_of_id = pr.pr_idx and dom_mask = pr.pr_dom_mask in
    let strong = pr.pr_strong in
    let np = Array.length prim_arr in
    let primaries = Array.to_list prim_arr in
    (* the remaining noise after removing env is the crossing of the
       noisy floor plus env *)
    let reference =
      match pr.pr_ref with
      | Some r -> Lazy.from_val r
      | None ->
        lazy
          (let total =
             Envelope.add
               (Envelope.combine (List.map prim_env primaries))
               (Pseudo.envelope ~victim ~shift:(upstream_shift v))
           in
           {
             rf_noise = crossing_noise ~victim ~neg:true ramp total;
             rf_floor = Envelope.floor ramp total;
           })
    in
    let objective env =
      match mode with
      | Addition -> crossing_noise ~victim ~neg:true ramp env
      | Elimination ->
        let r = Lazy.force reference in
        r.rf_noise -. VN.saturate ~victim (Envelope.floor_delay ~victim r.rf_floor env)
    in
    let entry set env =
      { Ilist.couplings = set; envelope = env; objective = objective env }
    in
    (* Extension rule (Theorem 1): extending a set S with primary d is
       redundant when some primary d' NOT in S strictly dominates d —
       S ∪ {d'} dominates S ∪ {d}. So each primary is allowed as an
       extension of S only when all of its strict dominators
       ([dom_mask]) already belong to S. Non-dominated primaries are
       always allowed. *)
    (* One scratch membership mask, reloaded per entry in the extension
       scan: set-bit per primary member of the entry's coupling set
       (pseudo/higher ids have no primary index and cannot dominate). *)
    let entry_mask = Tka_util.Bitset.make np in
    let load_entry_mask set =
      Tka_util.Bitset.clear entry_mask;
      Coupling_set.iter
        (fun id ->
          match Int_tbl.find_opt idx_of_id id with
          | Some idx -> Tka_util.Bitset.set entry_mask idx
          | None -> ())
        set
    in
    let allowed_extension (idx : int) =
      (strong.(idx) || Tka_util.Bitset.intersects dom_mask.(idx) entry_mask)
      && Tka_util.Bitset.subset dom_mask.(idx) entry_mask
    in
    let ilists = Array.make (upto + 1) [] in
    ilists.(0) <-
      [ { Ilist.couplings = Coupling_set.empty; envelope = Envelope.zero; objective = 0. } ];
    (* Pseudo candidates of a given cardinality, one per driver input. *)
    let pseudo_candidates i =
      if not use_pseudo then []
      else
        match N.driver_gate nl v with
        | None -> []
        | Some g ->
          let delay = Tka_sta.Delay_calc.stage_delay nl g.N.gate_id in
          List.concat_map
            (fun (_, u) ->
              let sums =
                let s = summary u in
                if Array.length s > i then s.(i) else []
              in
              List.filter_map
                (fun (set, du) ->
                  if du <= eps then None
                  else
                    match mode with
                    | Addition ->
                      let slack = base_lat v -. (base_lat u +. delay) in
                      let shift = Float.max 0. (du -. Float.max 0. slack) in
                      if shift <= eps then None
                      else Some (entry set (Pseudo.envelope ~victim ~shift))
                    | Elimination ->
                      let p_v = upstream_shift v in
                      let slack = noisy_lat v -. (noisy_lat u +. delay) in
                      let reduction =
                        Float.max 0. (Float.min p_v (du -. Float.max 0. slack))
                      in
                      if reduction <= eps then None
                      else
                        Some
                          (entry set
                             (Pseudo.reduction_envelope ~victim ~total:p_v
                                ~removed:reduction)))
                sums)
            g.N.fanin
    in
    (* Higher-order candidates of innate cardinality i: primary d whose
       window is altered by the best (i-1)-set attacking the aggressor
       net itself. *)
    (* higher-order construction is the most expensive candidate source
       (each needs a fresh widened-envelope build): restrict it to the
       strongest primaries and to the aggressor net's best summary *)
    let higher_order_pool =
      lazy
        (List.stable_sort
           (fun a b ->
             Float.compare (Envelope.peak (prim_env b)) (Envelope.peak (prim_env a)))
           primaries
        |> List.filteri (fun j _ -> j < 8))
    in
    let higher_candidates i =
      if (not use_higher) || i < 2 then []
      else
        List.concat_map
          (fun (d : CN.directed) ->
            let a = d.CN.dc_aggressor in
            let s = summary_of_aggressor ~level a in
            let t = i - 1 in
            let sums =
              match (if Array.length s > t then s.(t) else []) with
              | best :: _ -> [ best ]
              | [] -> []
            in
            List.filter_map
              (fun (set_t, delta) ->
                if delta <= eps || Coupling_set.mem (CN.directed_id d) set_t then
                  None
                else
                  let combo = Coupling_set.add (CN.directed_id d) set_t in
                  if Coupling_set.cardinality combo <> i then None
                  else
                    (* De-rate the rebuilt envelopes by the primary's
                       factor, keeping them consistent with [prim_env]
                       (1.0 — the common case — is the identity). *)
                    let derate e =
                      match derate_of (CN.directed_id d) with
                      | 1. -> e
                      | f -> Envelope.scale f e
                    in
                    match mode with
                    | Addition ->
                      Some
                        (entry combo
                           (derate
                              (EB.of_directed_widened nl ~windows:mode_w
                                 ~extra_lat:delta d)))
                    | Elimination ->
                      (* removing the combo shrinks the aggressor window:
                         the envelope that disappears is (full − narrowed) *)
                      let w = mode_w a in
                      let lat' = Float.max w.TW.eat (w.TW.lat -. delta) in
                      let narrowed =
                        derate
                          (EB.with_window nl ~window:{ w with TW.lat = lat' } d)
                      in
                      let gone =
                        Envelope.of_waveform
                          (Pwl.sub
                             (Envelope.waveform (prim_env d))
                             (Envelope.waveform narrowed))
                      in
                      Some (entry combo gone))
              sums)
          (Lazy.force higher_order_pool)
    in
    (* deep in the sweep candidates differ marginally; tapering the
       list capacity there keeps the k-sweep near-linear without
       touching the small-k region the validation checks *)
    let capacity_at i =
      if i <= 20 then config.capacity
      else max 8 (config.capacity - ((i - 20) / 4))
    in
    for i = 1 to upto do
      (* Two entries of I-list_{i-1} can extend to the same set. Only
         its first occurrence in list order is built: that is the one
         [Ilist.prune]'s dedupe keeps, and the repeats are counted as
         the duplicates [prune] would have found. A single entry cannot
         extend to the same set twice. *)
      let prev = ilists.(i - 1) in
      let seen =
        match prev with
        | [] | [ _ ] -> None
        | _ -> Some (Coupling_set.Tbl.create (max 16 (List.length prev * np)))
      in
      let skipped = ref 0 in
      let extensions =
        List.concat_map
          (fun (e : Ilist.entry) ->
            let out = ref [] in
            load_entry_mask e.Ilist.couplings;
            Array.iteri
              (fun idx (d : CN.directed) ->
                let id = CN.directed_id d in
                if
                  (not (Coupling_set.mem id e.Ilist.couplings))
                  && allowed_extension idx
                then begin
                  let set = Coupling_set.add id e.Ilist.couplings in
                  match seen with
                  | Some tbl when Coupling_set.Tbl.mem tbl set -> incr skipped
                  | _ ->
                    Option.iter (fun tbl -> Coupling_set.Tbl.replace tbl set ()) seen;
                    out := entry set (Envelope.add e.Ilist.envelope (prim_env d)) :: !out
                end)
              prim_arr;
            !out)
          prev
      in
      let cands = extensions @ pseudo_candidates i @ higher_candidates i in
      ilists.(i) <-
        Ilist.prune ~capacity:(capacity_at i) ~skipped_duplicates:!skipped ~interval
          ~stats cands
    done;
    let reads =
      if (not use_higher) || Option.is_none victim_cache then []
      else
        List.fold_left
          (fun acc (d : CN.directed) ->
            let a = d.CN.dc_aggressor in
            if Topo.net_level topo a < level || List.exists (fun (a', _, _) -> a' = a) acc
            then acc
            else
              let d = Option.get directs.(a) in
              (a, d.d_summary, d.d_stats) :: acc)
          [] (Lazy.force higher_order_pool)
        |> List.rev
    in
    let built = if Lazy.is_val reference then Some (Lazy.force reference) else None in
    Option.iter
      (fun r ->
        if Metrics.is_enabled () then begin
          let visited, full, fallbacks = Pwl.floor_counts r.rf_floor in
          Metrics.Counter.add m_scan_points visited;
          Metrics.Counter.add m_full_points full;
          Metrics.Counter.add m_scan_fallbacks fallbacks
        end)
      built;
    if direct && Option.is_none records.(v) then stash.(v) <- Some { pr with pr_ref = built };
    (ilists, stats, reads)
  in

  (* --------------------------------------------------------------- *)
  (* Topological sweep                                               *)
  (* --------------------------------------------------------------- *)
  (* Reject records that cannot have come from an equivalent run (a
     provider bug or stale checkpoint): wrong cardinality range, or a
     primary output without its sink lists. *)
  let cached_valid v (cv : cached_victim) =
    Array.length cv.cv_summary = k + 1
    && (match cv.cv_out with
       | Some out -> Array.length out = k + 1
       | None -> not (N.net nl v).N.is_output)
  in
  (* (A) A cached record replaces the whole visit. Lower levels are
     final here, so the provider may hash their summaries. *)
  let lookup v =
    match Option.bind victim_cache (fun c -> c.vc_lookup ~summary_of:summary v) with
    | Some cv when cached_valid v cv -> records.(v) <- Some cv
    | Some _ | None -> ()
  in
  (* ...and the direct summaries a hit consulted are replayed, so the
     merged stats match a from-scratch run (the values are identical by
     purity: a valid hit implies the aggressor's inputs are unchanged).
     Two hits may replay the same net, so this step is sequential. *)
  let replay v =
    Option.iter
      (fun cv ->
        List.iter
          (fun (a, s, st) ->
            match directs.(a) with
            | Some d -> Atomic.set d.d_read true
            | None -> directs.(a) <- Some { d_summary = s; d_stats = st; d_read = Atomic.make true })
          cv.cv_direct)
      records.(v)
  in
  (* (B) The nets whose direct-only summaries the level's visits may
     read: every coupling partner at the level or above of a victim to
     be visited, unless computed already — a superset of what the
     higher-order pools read. [listed] keeps a net from being listed
     twice: a listed net's summary is computed in the same level. *)
  let listed = Tka_util.Bitset.make nn in
  let direct_tasks l nets =
    Array.fold_left
      (fun acc v ->
        if Option.is_some records.(v) then acc
        else
          List.fold_left
            (fun acc cid ->
              let a = N.coupling_partner nl cid v in
              if
                Topo.net_level topo a < l
                || Option.is_some directs.(a)
                || Tka_util.Bitset.mem listed a
              then acc
              else begin
                Tka_util.Bitset.set listed a;
                a :: acc
              end)
            acc (N.couplings_of_net nl v))
      [] nets
    |> Array.of_list
  in
  (* Everything kept from an enumeration is sets and objectives, so
     every envelope it built goes back to the arena on return. *)
  let direct_summary a =
    Tka_waveform.Arena.scoped @@ fun () ->
    let ilists, st, _ = enumerate ~direct:true a in
    directs.(a) <-
      Some { d_summary = summary_of_ilists (k - 1) ilists; d_stats = st; d_read = Atomic.make false };
    st
  in
  (* (C) A visit enumerates its net, publishes the record and offers it
     to the cache. *)
  let visit v =
    Tka_waveform.Arena.scoped @@ fun () ->
    let ilists, st, reads = enumerate ~direct:false v in
    let out =
      if (N.net nl v).N.is_output then
        Some
          (Array.map
             (List.map (fun (e : Ilist.entry) -> (e.Ilist.couplings, e.Ilist.objective)))
             ilists)
      else None
    in
    let cv =
      { cv_summary = summary_of_ilists k ilists; cv_out = out; cv_stats = st; cv_direct = reads }
    in
    records.(v) <- Some cv;
    Option.iter (fun c -> c.vc_store v cv) victim_cache;
    st
  in
  (* One span per enumeration ([work] returns its stats). With
     observability disabled: no span, no histogram, no clock reads. *)
  let instrumented ~span ~counter ?hist work v =
    if Trace.is_enabled () || Metrics.is_enabled () then begin
      Metrics.Counter.incr counter;
      let t0 = Tka_obs.Clock.now_ns () in
      (* prune attribution is only known after the enumeration, so it
         is attached via the late-args hook *)
      let (_ : Ilist.stats) =
        Trace.with_span_args ~cat:"engine"
          ~args:[ ("net", Tka_obs.Jsonx.Str (N.net nl v).N.net_name) ]
          span
          (fun st ->
            [
              ("candidates", Tka_obs.Jsonx.Int st.Ilist.candidates);
              ("dominated", Tka_obs.Jsonx.Int st.Ilist.dominated);
              ("duplicates", Tka_obs.Jsonx.Int st.Ilist.duplicates);
              ("capped", Tka_obs.Jsonx.Int st.Ilist.capped);
              ("checks", Tka_obs.Jsonx.Int st.Ilist.checks);
            ])
          (fun () -> work v)
      in
      Option.iter (fun h -> Metrics.Histogram.observe h (Tka_obs.Clock.seconds_since t0)) hist
    end
    else ignore (work v : Ilist.stats)
  in
  let direct_task = instrumented ~span:"engine.direct" ~counter:m_direct direct_summary in
  let visit_task v =
    if Option.is_none records.(v) then
      instrumented ~span:"engine.victim" ~counter:m_victims ~hist:h_victim_s visit v
  in
  (* Level-synchronous sweep, the same schedule at every jobs count:
     each phase is one pool batch, and the batch's return is the
     barrier. A net only reads the summaries of strictly lower levels
     and the direct summaries of earlier phases (docs/parallelism.md). *)
  let pool = Tka_parallel.Pool.get_default () in
  let batch f nets = Tka_parallel.Pool.iter ~chunk:1 pool f nets in
  Array.iteri
    (fun l nets ->
      if Option.is_some victim_cache then begin
        batch lookup nets;
        Array.iter replay nets
      end;
      if higher_possible then batch direct_task (direct_tasks l nets);
      batch visit_task nets)
    (Topo.level_nets topo);
  let record v = Option.get records.(v) in
  (* Deterministic totals: per-victim records merged in net order, then
     the direct summaries any victim read, in net-id order. All fields
     are sums, so the totals equal the sequential single-record run. *)
  let stats = Ilist.fresh_stats () in
  Array.iter (fun v -> Ilist.merge_stats stats (record v).cv_stats) (Topo.net_order topo);
  Array.iter
    (function
      | Some d when Atomic.get d.d_read -> Ilist.merge_stats stats d.d_stats
      | Some _ | None -> ())
    directs;
  (* A primary output's lists as sink selection reads them: sets and
     objectives only, so no envelope outlives its victim. Prepending in
     net order reproduces the processing-order prepends of the
     sequential sweep, keeping sink-selection tie-breaks unchanged. *)
  let po_entries =
    Array.fold_left
      (fun acc v ->
        match (record v).cv_out with
        | Some out ->
          ( v,
            Array.map
              (List.map (fun (set, obj) ->
                   { Ilist.couplings = set; envelope = Envelope.zero; objective = obj }))
              out )
          :: acc
        | None -> acc)
      [] (Topo.net_order topo)
  in

  (* --------------------------------------------------------------- *)
  (* Sink selection                                                  *)
  (* --------------------------------------------------------------- *)
  (* For each cardinality, gather every entry of every primary output's
     irredundant list (the paper reads the whole I-list_k of the sink),
     score by the resulting circuit arrival, and keep the best few for
     exact re-ranking by the caller. *)
  let top =
    Trace.with_span ~cat:"engine" "engine.sink_selection" @@ fun () ->
    (* A choice at [po] moves [po]'s arrival by its objective; the circuit
       arrival is the maximum over the outputs. [Float.max] is exact,
       commutative and associative, so each output's maximum over the
       other outputs is computed once, from prefix and suffix maxima,
       and a score costs one more max. [N.outputs] lists each net
       flagged [is_output] once, so every sink has a position. *)
    let arrival q obj =
      match mode with
      | Addition -> base_lat q +. obj
      | Elimination -> noisy_lat q -. obj
    in
    let outs = Array.of_list (N.outputs nl) in
    let m = Array.length outs in
    let pos = Array.make nn (-1) in
    Array.iteri (fun p q -> pos.(q) <- p) outs;
    let prefix = Array.make (m + 1) Float.neg_infinity in
    let suffix = Array.make (m + 1) Float.neg_infinity in
    for p = 0 to m - 1 do
      prefix.(p + 1) <- Float.max prefix.(p) (arrival outs.(p) 0.)
    done;
    for p = m - 1 downto 0 do
      suffix.(p) <- Float.max suffix.(p + 1) (arrival outs.(p) 0.)
    done;
    let score po obj =
      let p = pos.(po) in
      Float.max (Float.max prefix.(p) suffix.(p + 1)) (arrival po obj)
    in
    Array.init (k + 1) (fun i ->
        if i = 0 then []
        else begin
          let scored =
            List.concat_map
              (fun (po, ilists) ->
                List.map
                  (fun (e : Ilist.entry) ->
                    ( score po e.Ilist.objective,
                      {
                        ch_set = e.Ilist.couplings;
                        ch_objective = e.Ilist.objective;
                        ch_sink = po;
                      } ))
                  ilists.(i))
              po_entries
          in
          let sorted =
            List.stable_sort
              (fun (a, _) (b, _) ->
                match mode with
                | Addition -> Float.compare b a
                | Elimination -> Float.compare a b)
              scored
          in
          (* dedupe identical sets, keep the best few *)
          let seen : unit Coupling_set.Tbl.t = Coupling_set.Tbl.create 16 in
          List.filter_map
            (fun (_, c) ->
              if Coupling_set.Tbl.mem seen c.ch_set then None
              else begin
                Coupling_set.Tbl.replace seen c.ch_set ();
                Some c
              end)
            sorted
          |> List.filteri (fun j _ -> j < sink_candidates)
        end)
  in
  let per_k = Array.map (fun l -> match l with c :: _ -> Some c | [] -> None) top in
  (* Monotone fix-up: a cardinality-i set can always contain the best
     (i-1)-set plus one more coupling, so the achievable objective never
     decreases with i. When a sink's irredundant list thins out (e.g. a
     primary output with a single primary aggressor), pad the previous
     choice with an arbitrary unused coupling instead of regressing. *)
  let pad_with_any set =
    let n = 2 * N.num_couplings nl in
    let rec find c =
      if c >= n then None
      else if Coupling_set.mem c set then find (c + 1)
      else Some (Coupling_set.add c set)
    in
    find 0
  in
  for i = 2 to k do
    let prev = per_k.(i - 1) in
    let keep_prev =
      match (per_k.(i), prev) with
      | _, None -> false
      | None, Some _ -> true
      | Some ci, Some cp -> ci.ch_objective < cp.ch_objective
    in
    if keep_prev then begin
      let padded_choice =
        Option.bind prev (fun cp ->
            Option.map (fun padded -> { cp with ch_set = padded }) (pad_with_any cp.ch_set))
      in
      per_k.(i) <- padded_choice;
      match padded_choice with Some c -> top.(i) <- c :: top.(i) | None -> ()
    end
  done;
  let res_runtime = Tka_obs.Clock.seconds_since t_start in
  Metrics.Counter.incr m_runs;
  Metrics.Gauge.set g_runtime res_runtime;
  Log.debug log_src (fun m ->
      m
        ~fields:
          [
            Log.str "circuit" (N.name nl);
            Log.int "k" k;
            Log.str "mode" (mode_name mode);
            Log.float "runtime_s" res_runtime;
            Log.int "candidates" stats.Ilist.candidates;
            Log.int "dominance_checks" stats.Ilist.checks;
            Log.int "dominated" stats.Ilist.dominated;
            Log.int "capped" stats.Ilist.capped;
          ]
        "%s: k=%d %s in %.2fs (candidates=%d dominated=%d capped=%d)" (N.name nl)
        k (mode_name mode) res_runtime stats.Ilist.candidates
        stats.Ilist.dominated stats.Ilist.capped);
  {
    res_mode = mode;
    res_config = config;
    res_per_k = per_k;
    res_top = top;
    res_stats = stats;
    res_noiseless_delay = Analysis.circuit_delay base;
    res_noisy_delay = Iterate.circuit_delay fix;
    res_runtime;
  }

let compute ~config ~fixpoint ?victim_cache ~mode topo =
  if config.k < 1 then invalid_arg "Engine.compute: k must be >= 1";
  Trace.with_span ~cat:"engine"
    ~args:
      [ ("mode", Tka_obs.Jsonx.Str (mode_name mode)); ("k", Tka_obs.Jsonx.Int config.k) ]
    "engine.compute"
    (fun () -> compute_body ~config ~fixpoint ~victim_cache ~mode topo)

let fallback_delay r =
  match r.res_mode with
  | Addition -> r.res_noiseless_delay
  | Elimination -> r.res_noisy_delay

let estimated_delay r i =
  if i < 0 || i >= Array.length r.res_per_k then
    invalid_arg "Engine.estimated_delay: cardinality out of range";
  let base = fallback_delay r in
  match r.res_per_k.(i) with
  | None -> base
  | Some c ->
    Float.max r.res_noiseless_delay
      (match r.res_mode with
      | Addition -> base +. c.ch_objective
      | Elimination -> base -. c.ch_objective)
