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

(* Tables keyed by net or directed-coupling ids: those are dense small
   ints, so the identity is a perfect hash and lookups skip the generic
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

(* The per-victim work that depends only on the net and on run
   constants: the screened, non-inert primaries with their de-rating,
   their dense indices, strict-dominator masks and the [strong] flags.
   It holds no envelopes — a PWL slice must not outlive the victim that
   built it (docs/performance.md) — so a consumer rebuilds those. *)
type prelude = {
  pr_prims : CN.directed array;
  pr_derate : int -> float;
  pr_idx : int Int_tbl.t;
  pr_dom_mask : Tka_util.Bitset.t array;
  pr_strong : bool array;
}

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
  let stats = Ilist.fresh_stats () in
  let summaries : summary array = Array.make nn [||] in
  (* Memoised direct-only summaries of nets NOT upstream of the victim
     requesting them. Shared across the sweep; the mutex only guards
     table access — the enumeration itself runs outside it, and a lost
     insertion race recomputes a value that is identical by purity, so
     results stay deterministic at any jobs count. The stats recorded
     by the winning insertion are folded into the run totals at the end
     (in net-id order, also deterministic). *)
  (* Pre-sized to the net count (capped: a 1M-net design does not need
     a quarter-million buckets up front) so the sweep never pays a
     rehash-and-copy of a large table mid-run. *)
  let direct_memo : (summary * Ilist.stats) Int_tbl.t =
    Int_tbl.create (max 64 (min 65536 (nn / 4)))
  in
  let memo_mutex = Mutex.create () in
  (* Run-local prelude hand-over between a net's two consumers, guarded
     by [memo_mutex]; [visited.(v)] marks that [v]'s sweep visit has
     asked for its prelude. *)
  let preludes : prelude Int_tbl.t = Int_tbl.create 64 in
  let visited = Array.make nn false in
  (* direct summaries are only requested by higher-order candidates *)
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
      },
      prim_env,
      coupled )
  in
  (* A net's prelude has up to two consumers: its memoised direct-only
     enumeration and its own sweep visit. Whichever runs first leaves
     the prelude in [preludes] if the other may still come, and the
     other takes it out. After a direct enumeration the visit is still
     to come unless it has started. After a visit, only a coupled net
     at the same level can still ask for the direct summary (a victim
     asks for those of nets at its own level or above), and only if it
     is not memoised yet. A missed or raced entry is recomputed
     identically, so none of this affects results. *)
  let prelude_of ~direct v ~victim ~ramp ~interval =
    Mutex.lock memo_mutex;
    if not direct then visited.(v) <- true;
    let hit = Int_tbl.find_opt preludes v in
    if Option.is_some hit then Int_tbl.remove preludes v;
    Mutex.unlock memo_mutex;
    match hit with
    | Some pr ->
      Metrics.Counter.incr m_prelude_reuses;
      (pr, prim_env_of pr.pr_derate (max 16 (Array.length pr.pr_prims)))
    | None ->
      let pr, prim_env, coupled = build_prelude v ~victim ~ramp ~interval in
      let level = Topo.net_level topo v in
      if
        direct
        || higher_possible
           && List.exists
                (fun (d : CN.directed) -> Topo.net_level topo d.CN.dc_aggressor = level)
                coupled
      then begin
        Mutex.lock memo_mutex;
        let other_pending =
          if direct then not visited.(v) else not (Int_tbl.mem direct_memo v)
        in
        if other_pending then Int_tbl.replace preludes v pr;
        Mutex.unlock memo_mutex
      end;
      (pr, prim_env)
  in

  let rec enumerate ~direct ~on_direct ~stats ~use_pseudo ~use_higher ~upto ~level v :
      Ilist.entry list array =
    let victim = victim_tr v in
    let ramp = Transition.waveform victim in
    let interval = Dominance.interval ~victim in
    let pr, prim_env = prelude_of ~direct v ~victim ~ramp ~interval in
    let prim_arr = pr.pr_prims and derate_of = pr.pr_derate in
    let idx_of_id = pr.pr_idx and dom_mask = pr.pr_dom_mask in
    let strong = pr.pr_strong in
    let np = Array.length prim_arr in
    let primaries = Array.to_list prim_arr in
    (* Elimination reference: the total envelope of everything attacking
       this victim (direct + propagated), and the noise it causes. *)
    let total_env =
      lazy
        (let direct = Envelope.combine (List.map prim_env primaries) in
         match mode with
         | Addition -> direct
         | Elimination ->
           Envelope.add direct
             (Pseudo.envelope ~victim ~shift:(upstream_shift v)))
    in
    let total_noise =
      lazy (crossing_noise ~victim ~neg:true ramp (Lazy.force total_env))
    in
    (* one-pass elimination objective: precompute (ramp - total envelope)
       once; the remaining noise after removing env is the crossing of
       that floor plus env *)
    let noisy_floor =
      lazy (Pwl.sub ramp (Envelope.waveform (Lazy.force total_env)))
    in
    let objective env =
      match mode with
      | Addition -> crossing_noise ~victim ~neg:true ramp env
      | Elimination ->
        Lazy.force total_noise
        -. crossing_noise ~victim ~neg:false (Lazy.force noisy_floor) env
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
                if Array.length summaries.(u) > i then summaries.(u).(i) else []
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
            let s = summary_of_aggressor ~on_direct ~level a in
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
    ilists

  (* Best sets attacking an aggressor net: the full summary when the
     net lies at a strictly lower level than the requesting victim (it
     is then guaranteed published, both in the sequential sweep and at
     a level barrier of the parallel one), otherwise a memoised
     direct-aggressors-only enumeration. The rule depends only on
     levels — not on how far the sweep has progressed — so every jobs
     count makes identical decisions. *)
  and summary_of_aggressor ~on_direct ~level a : summary =
    if Topo.net_level topo a < level && Array.length summaries.(a) > 0 then
      summaries.(a)
    else begin
      Mutex.lock memo_mutex;
      let hit = Int_tbl.find_opt direct_memo a in
      Mutex.unlock memo_mutex;
      let s, st =
        match hit with
        | Some e -> e
        | None ->
          let upto = max 0 (k - 1) in
          let st = Ilist.fresh_stats () in
          let ilists =
            enumerate ~direct:true
              ~on_direct:(fun _ _ _ -> ())
              ~stats:st ~use_pseudo:false ~use_higher:false ~upto
              ~level:(Topo.net_level topo a) a
          in
          let s = summary_of_ilists upto ilists in
          Mutex.lock memo_mutex;
          let e =
            match Int_tbl.find_opt direct_memo a with
            | Some e -> e
            | None ->
              Int_tbl.replace direct_memo a (s, st);
              (s, st)
          in
          Mutex.unlock memo_mutex;
          e
      in
      on_direct a s st;
      s
    end
  in

  (* --------------------------------------------------------------- *)
  (* Topological sweep                                               *)
  (* --------------------------------------------------------------- *)
  (* Each victim writes only its own slots; nothing else is shared
     between the nets of one level (see the safety argument in
     docs/parallelism.md). *)
  let victim_stats : Ilist.stats option array = Array.make nn None in
  let out_ilists : Ilist.entry list array option array = Array.make nn None in
  (* A cached record replaces the whole per-victim unit of work. The
     consulted direct summaries are replayed into the shared memo so
     the memo key set — and therefore the merged stats — match a
     from-scratch run exactly (the values are identical by purity: a
     valid cache hit implies the aggressor's inputs are unchanged). *)
  (* A primary output's lists as sink selection reads them: sets and
     objectives only, so no envelope outlives its victim. *)
  let sink_ilists out =
    Array.map
      (List.map (fun (set, obj) ->
           { Ilist.couplings = set; envelope = Envelope.zero; objective = obj }))
      out
  in
  let install_cached v (cv : cached_victim) =
    summaries.(v) <- cv.cv_summary;
    victim_stats.(v) <- Some cv.cv_stats;
    List.iter
      (fun (a, s, st) ->
        Mutex.lock memo_mutex;
        if not (Int_tbl.mem direct_memo a) then
          Int_tbl.replace direct_memo a (s, st);
        Mutex.unlock memo_mutex)
      cv.cv_direct;
    Option.iter (fun out -> out_ilists.(v) <- Some (sink_ilists out)) cv.cv_out
  in
  (* Reject records that cannot have come from an equivalent run (a
     provider bug or stale checkpoint): wrong cardinality range, or a
     primary output without its sink lists. *)
  let cached_valid v (cv : cached_victim) =
    Array.length cv.cv_summary = k + 1
    && (match cv.cv_out with
       | Some out -> Array.length out = k + 1
       | None -> not (N.net nl v).N.is_output)
  in
  let process v =
    match
      Option.bind victim_cache (fun c ->
          (* lower levels are final here (the sweep is level-
             synchronous), so the provider may hash their values *)
          match c.vc_lookup ~summary_of:(fun u -> summaries.(u)) v with
          | Some cv when cached_valid v cv -> Some cv
          | Some _ | None -> None)
    with
    | Some cv -> install_cached v cv
    | None ->
      (* Everything kept from the enumeration is sets and objectives, so
         every envelope it built goes back to the arena on return. *)
      Tka_waveform.Arena.scoped @@ fun () ->
      let st = Ilist.fresh_stats () in
      let consulted = ref [] in
      let on_direct a s dst =
        if not (List.exists (fun (a', _, _) -> a' = a) !consulted) then
          consulted := (a, s, dst) :: !consulted
      in
      let ilists =
        enumerate ~direct:false ~on_direct ~stats:st ~use_pseudo:config.use_pseudo
          ~use_higher:config.use_higher_order ~upto:k
          ~level:(Topo.net_level topo v) v
      in
      summaries.(v) <- summary_of_ilists k ilists;
      victim_stats.(v) <- Some st;
      let out =
        if (N.net nl v).N.is_output then
          Some
            (Array.map
               (List.map (fun (e : Ilist.entry) -> (e.Ilist.couplings, e.Ilist.objective)))
               ilists)
        else None
      in
      Option.iter (fun out -> out_ilists.(v) <- Some (sink_ilists out)) out;
      Option.iter
        (fun c ->
          c.vc_store v
            {
              cv_summary = summaries.(v);
              cv_out = out;
              cv_stats = st;
              cv_direct = List.rev !consulted;
            })
        victim_cache
  in
  let instrumented v =
    (* observability disabled: no span, no histogram, no clock reads *)
    if Trace.is_enabled () || Metrics.is_enabled () then begin
      Metrics.Counter.incr m_victims;
      let t0 = Tka_obs.Clock.now_ns () in
      (* prune attribution is only known after processing, so it is
         attached via the late-args hook *)
      Trace.with_span_args ~cat:"engine"
        ~args:[ ("net", Tka_obs.Jsonx.Str (N.net nl v).N.net_name) ]
        "engine.victim"
        (fun () ->
          match victim_stats.(v) with
          | None -> []
          | Some st ->
            [
              ("candidates", Tka_obs.Jsonx.Int st.Ilist.candidates);
              ("dominated", Tka_obs.Jsonx.Int st.Ilist.dominated);
              ("duplicates", Tka_obs.Jsonx.Int st.Ilist.duplicates);
              ("capped", Tka_obs.Jsonx.Int st.Ilist.capped);
              ("checks", Tka_obs.Jsonx.Int st.Ilist.checks);
            ])
        (fun () -> process v);
      Metrics.Histogram.observe h_victim_s (Tka_obs.Clock.seconds_since t0)
    end
    else process v
  in
  let pool = Tka_parallel.Pool.get_default () in
  if Tka_parallel.Pool.size pool <= 1 then
    Array.iter instrumented (Topo.net_order topo)
  else
    (* Level-synchronous sweep: a net only reads summaries of strictly
       lower levels, all published before its level starts (the pool
       call is the barrier between levels). *)
    Array.iter
      (fun nets -> Tka_parallel.Pool.iter ~chunk:1 pool instrumented nets)
      (Topo.level_nets topo);
  (* Deterministic totals: per-victim records merged in net order, then
     the memoised direct enumerations in net-id order. All fields are
     sums, so the totals equal the sequential single-record run. *)
  Array.iter
    (fun v ->
      match victim_stats.(v) with
      | Some st -> Ilist.merge_stats stats st
      | None -> ())
    (Topo.net_order topo);
  Int_tbl.fold (fun a (_, st) acc -> (a, st) :: acc) direct_memo []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, st) -> Ilist.merge_stats stats st);
  (* Prepending in net order reproduces the processing-order prepends of
     the sequential sweep, keeping sink-selection tie-breaks unchanged. *)
  let po_entries =
    Array.fold_left
      (fun acc v ->
        match out_ilists.(v) with Some il -> (v, il) :: acc | None -> acc)
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
  (match mode with
  | Addition | Elimination ->
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
              Option.map
                (fun padded -> { cp with ch_set = padded })
                (pad_with_any cp.ch_set))
        in
        per_k.(i) <- padded_choice;
        (match padded_choice with
        | Some c -> top.(i) <- c :: top.(i)
        | None -> ())
      end
    done);
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
