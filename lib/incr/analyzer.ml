module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Iterate = Tka_noise.Iterate
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module Mode = Tka_filter.Mode
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace
module Log = Tka_obs.Log
module J = Tka_obs.Jsonx

let log_src = Log.Src.create "incr" ~doc:"incremental re-analysis engine"
let c_hits = Metrics.Counter.make "incr.cache_hits"
let c_misses = Metrics.Counter.make "incr.cache_misses"
let c_dirty = Metrics.Counter.make "incr.dirty_nets"

type run_stats = { rs_hits : int; rs_misses : int; rs_reused : bool }

(* A recorded analysis of the state under one filter, valid while
   [m_cache] has seen no store or clear since the run. *)
type memo = {
  m_cache : Cache.t;  (* the cache the run went through *)
  m_generation : int;  (* its generation just after the run *)
  m_result : Elimination.t * run_stats;  (* as a re-run on that cache reports them *)
}

type t = {
  a_nl : N.t;
  a_topo : Topo.t;
  a_k : int;
  mutable a_cache : Cache.t;
  a_fix : Iterate.t Lazy.t;  (* a pure function of [a_nl] *)
  a_memo : memo option array;  (* indexed by [Mode.to_int] *)
}

let create ?cache ~k nl =
  if k < 1 then invalid_arg (Printf.sprintf "k must be >= 1, got %d" k);
  let topo = Topo.create nl in
  {
    a_nl = nl;
    a_topo = topo;
    a_k = k;
    a_cache = (match cache with Some c -> c | None -> Cache.create ());
    a_fix = lazy (Iterate.run topo);
    a_memo = Array.make (List.length Mode.all) None;
  }

let netlist t = t.a_nl
let topo t = t.a_topo
let k t = t.a_k
let cache t = t.a_cache
let fixpoint t = Lazy.force t.a_fix

let analyze t ~filter =
  Trace.with_span ~cat:"incr" "incr.run" @@ fun () ->
  let config = { (Engine.default_config ~k:t.a_k) with Engine.filter } in
  let topo = t.a_topo in
  let fix = fixpoint t in
  let hits = Atomic.make 0 in
  let misses = Atomic.make 0 in
  let nl = t.a_nl in
  let nn = N.num_nets nl in
  (* Coupling-id coherence: cached values index the coupling table
     they were stored (or remapped) under. A universe mismatch means
     this netlist's ids name different physical caps — e.g. a
     checkpoint written after an edit, reloaded against the original
     design — so the whole cache must be flushed, not consulted. *)
  let u = Fingerprint.universe nl in
  (match Cache.universe t.a_cache with
  | Some u' when not (Int64.equal u' u) ->
    Log.warn log_src (fun m ->
        m
          ~fields:
            [
              Log.str "cached" (Printf.sprintf "%Lx" u');
              Log.str "netlist" (Printf.sprintf "%Lx" u);
            ]
          "coupling universe mismatch: flushing result cache");
    Cache.clear t.a_cache
  | Some _ | None -> ());
  Cache.set_universe t.a_cache u;
  let view mode =
    let fp =
      Trace.with_span ~cat:"incr" "incr.fingerprint" (fun () ->
          Fingerprint.compute ~config ~mode ~fix topo)
    in
    (* Value hash of a published summary under content-stable coupling
       names: what a downstream victim actually consults. Memoised per
       net; races write the same boxed value, so duplicates are
       benign and the outcome is schedule-independent. *)
    let vh_memo : Fnv.t option array = Array.make nn None in
    let value_hash (s : Engine.cardinality_summary) =
      let h = Fnv.int Fnv.basis (Array.length s) in
      Array.fold_left
        (fun h entries ->
          List.fold_left
            (fun h (set, obj) ->
              let h =
                Tka_topk.Coupling_set.fold
                  (fun d h -> Fnv.int64 h fp.Fingerprint.fp_stable.(d))
                  set h
              in
              Fnv.float h obj)
            (Fnv.int h (List.length entries))
            entries)
        h s
    in
    let vh summary_of u =
      match vh_memo.(u) with
      | Some h -> h
      | None ->
        let h = value_hash (summary_of u) in
        vh_memo.(u) <- Some h;
        h
    in
    (* The victim's cache key: static signature ingredients plus the
       value hashes of the summaries its enumeration will consult —
       lower-level coupling partners (published summaries) and driver
       fanins (pseudo-aggressor sources). Same-or-higher-level
       partners are consulted through their direct-only summaries,
       whose inputs are one hop of signatures: fp_hd. Computed once per
       victim at lookup and reused by the store. *)
    let key_memo : Fnv.t option array = Array.make nn None in
    let key summary_of v =
      let lv = Topo.net_level topo v in
      let h = Fnv.int64 (Fnv.int Fnv.basis 0xF1) fp.Fingerprint.fp_cfg in
      let h = Fnv.int64 h fp.Fingerprint.fp_sig.(v) in
      let h = Fnv.int h lv in
      let h =
        List.fold_left
          (fun h cid ->
            let c = N.coupling nl cid in
            let p = N.coupling_partner nl cid v in
            let h = Fnv.float h c.N.coupling_cap in
            let h = Fnv.int64 h fp.Fingerprint.fp_sig.(p) in
            if Topo.net_level topo p < lv then
              Fnv.int64 (Fnv.int h 1) (vh summary_of p)
            else Fnv.int64 (Fnv.int h 2) fp.Fingerprint.fp_hd.(p))
          h
          (N.couplings_of_net nl v)
      in
      let h =
        match N.driver_gate nl v with
        | None -> Fnv.int h (-1)
        | Some g ->
          List.fold_left
            (fun h (pin, u) ->
              let h = Fnv.int (Fnv.string h pin) u in
              let h = Fnv.int64 h fp.Fingerprint.fp_sig.(u) in
              Fnv.int64 h (vh summary_of u))
            h g.N.fanin
      in
      key_memo.(v) <- Some h;
      h
    in
    Some
      {
        Engine.vc_lookup =
          (fun ~summary_of v ->
            match Cache.find t.a_cache ~mode ~net:v ~key:(key summary_of v) with
            | Some cv ->
              Atomic.incr hits;
              Metrics.Counter.incr c_hits;
              Some cv
            | None ->
              Atomic.incr misses;
              Metrics.Counter.incr c_misses;
              None);
        vc_store =
          (fun v cv ->
            (* the engine stores only after a missed lookup, so the
               memoised key is present *)
            match key_memo.(v) with
            | Some key -> Cache.store t.a_cache ~mode ~net:v ~key cv
            | None -> ());
      }
  in
  let elim =
    Elimination.compute ~filter ~fixpoint:fix ~victim_cache:view ~k:t.a_k topo
  in
  let stats =
    { rs_hits = Atomic.get hits; rs_misses = Atomic.get misses; rs_reused = false }
  in
  Log.info log_src (fun m ->
      m
        ~fields:
          [
            Log.int "hits" stats.rs_hits;
            Log.int "misses" stats.rs_misses;
            Log.int "nets" nn;
          ]
        "incremental run: %d cache hit(s), %d miss(es)" stats.rs_hits
        stats.rs_misses);
  (elim, stats)

(* A state's analysis under a filter runs at most once while no one
   writes to its cache. A run is recorded only when the cache's
   generation moved by exactly the run's misses (the engine stores once
   per miss, so any other step means another writer meanwhile). A
   re-run on the unchanged cache would return the same result and hit
   on every victim, so a reused answer reports all of the recorded
   run's lookups as hits. *)
let run ?(filter = Mode.Off) t =
  let slot = Mode.to_int filter in
  let cache = t.a_cache in
  match t.a_memo.(slot) with
  | Some m when m.m_cache == cache && Cache.generation cache = m.m_generation ->
    m.m_result
  | _ ->
    let g0 = Cache.generation cache in
    let ((elim, { rs_hits; rs_misses; _ }) as result) = analyze t ~filter in
    let g1 = Cache.generation cache in
    t.a_memo.(slot) <-
      (if g1 - g0 = rs_misses then
         Some
           {
             m_cache = cache;
             m_generation = g1;
             m_result =
               (elim, { rs_hits = rs_hits + rs_misses; rs_misses = 0; rs_reused = true });
           }
       else None);
    result

let apply ?(cache = fun _ ~seed -> seed ()) t edits =
  Trace.with_span ~cat:"incr"
    ~args:[ ("edits", J.Int (List.length edits)) ]
    "incr.apply"
  @@ fun () ->
  let dirty = Dirty.count (Dirty.closure t.a_topo (Edit.touched_nets t.a_nl edits)) in
  Metrics.Counter.add c_dirty dirty;
  Log.info log_src (fun m ->
      m
        ~fields:[ Log.int "edits" (List.length edits); Log.int "dirty" dirty ]
        "applied %d edit(s): %d net(s) dirtied" (List.length edits) dirty);
  let nl', remap = Edit.apply t.a_nl edits in
  let seed () =
    let c = Cache.remapped_copy t.a_cache remap in
    (* the remapped values index the edited netlist's coupling table *)
    Cache.set_universe c (Fingerprint.universe nl');
    c
  in
  (create ~cache:(cache nl' ~seed) ~k:t.a_k nl', dirty)

let save_checkpoint t path = Cache.save t.a_cache path
let load_checkpoint t path = t.a_cache <- Cache.load path

(* A malformed or old-format checkpoint is a cold start, not an error:
   the cache only ever accelerates. *)
let warm_start t path =
  if Sys.file_exists path then
    match load_checkpoint t path with
    | () ->
      Log.info log_src (fun m ->
          m
            ~fields:[ Log.str "path" path; Log.int "entries" (Cache.size t.a_cache) ]
            "warm-starting from checkpoint %s" path)
    | exception Failure msg ->
      Log.warn log_src (fun m ->
          m ~fields:[ Log.str "path" path ] "ignoring stale checkpoint: %s" msg)
