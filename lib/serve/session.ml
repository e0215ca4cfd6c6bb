module J = Tka_obs.Jsonx
module Clock = Tka_obs.Clock
module N = Tka_circuit.Netlist
module Nf = Tka_circuit.Netlist_format
module Topo = Tka_circuit.Topo
module Analyzer = Tka_incr.Analyzer
module Cache = Tka_incr.Cache
module Dirty = Tka_incr.Dirty
module Edit = Tka_incr.Edit
module Eco = Tka_incr.Eco
module Repair = Tka_incr.Repair
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module Metrics = Tka_obs.Metrics

let ( let* ) = Result.bind

let c_reuses = Metrics.Counter.make "serve.analysis_reuses"

(* A recorded analysis of one design state under one filter, valid
   while [m_cache] has seen no store or clear since the run. *)
type memo = {
  m_cache : Cache.t;  (* the analyzer's cache the run went through *)
  m_generation : int;  (* its generation just after the run *)
  m_elim : Elimination.t;
  m_stats : Analyzer.run_stats;  (* as a re-run on that cache reports them *)
}

type design = {
  d_name : string;
  d_nl : N.t;
  d_topo : Topo.t;
  d_fp : Tka_incr.Fnv.t;
  d_cache : Cache.t;  (* the registry tenant all analyzers share *)
  d_analyzers : (Tka_filter.Mode.t, Analyzer.t) Hashtbl.t;
      (* per-filter-mode analyzers over [d_cache], created on first
         use. Config hashes include the filter mode, so results from
         different modes never alias inside the shared cache. The
         table is confined to this session's connection thread. *)
  d_k : int;
  d_fix : Tka_noise.Iterate.t Lazy.t;
      (* the all-aggressor fixpoint, a pure function of [d_nl]: computed
         by the first analysis of this design state and handed to every
         later one (forced only by this session's connection thread) *)
  d_memo : (Tka_filter.Mode.t, memo) Hashtbl.t;
      (* per filter mode, this state's last analysis; confined like
         [d_analyzers] *)
}

let make_design ~name ~nl ~fp ~cache ~k =
  let topo = Topo.create nl in
  {
    d_name = name;
    d_nl = nl;
    d_topo = topo;
    d_fp = fp;
    d_cache = cache;
    d_analyzers = Hashtbl.create 4;
    d_k = k;
    d_fix = lazy (Tka_noise.Iterate.run topo);
    d_memo = Hashtbl.create 4;
  }

let analyzer_for d filter =
  match Hashtbl.find_opt d.d_analyzers filter with
  | Some a -> a
  | None ->
    let a =
      Analyzer.create ~k:d.d_k ~filter ~cache:d.d_cache ()
    in
    Hashtbl.add d.d_analyzers filter a;
    a

type t = {
  registry : Registry.t;
  lookup : string -> Tka_cell.Cell.t option;
  default_k : int;
  mutable design : design option;
  mutable reuses : int;
}

let create ~registry ~lookup ~default_k =
  { registry; lookup; default_k; design = None; reuses = 0 }

let loaded t = Option.is_some t.design
let reuses t = t.reuses

(* Every analysis of a design state goes through here, so the state
   computes its fixpoint at most once, and its analysis under a filter
   at most once while no one writes to its cache. A run is recorded
   only when the cache's generation moved by exactly the run's misses
   (the engine stores once per miss, so any other step means another
   tenant wrote meanwhile). A re-run on the unchanged cache would
   return the same result and hit on every victim, so a reused reply
   reports all of the recorded run's lookups as hits. *)
let run_analyzer t d filter =
  let a = analyzer_for d filter in
  let cache = Analyzer.cache a in
  match Hashtbl.find_opt d.d_memo filter with
  | Some m when m.m_cache == cache && Cache.generation cache = m.m_generation ->
    t.reuses <- t.reuses + 1;
    Metrics.Counter.incr c_reuses;
    (m.m_elim, m.m_stats)
  | _ ->
    let g0 = Cache.generation cache in
    let elim, st = Analyzer.run ~fixpoint:(Lazy.force d.d_fix) a d.d_topo in
    let g1 = Cache.generation cache in
    let { Analyzer.rs_hits; rs_misses } = st in
    if g1 - g0 = rs_misses then
      Hashtbl.replace d.d_memo filter
        {
          m_cache = cache;
          m_generation = g1;
          m_elim = elim;
          m_stats = { Analyzer.rs_hits = rs_hits + rs_misses; rs_misses = 0 };
        }
    else Hashtbl.remove d.d_memo filter;
    (elim, st)

let require t =
  match t.design with
  | Some d -> Ok d
  | None -> Error (Proto.No_design, "no design loaded in this session")

let bad r = Result.map_error (fun m -> (Proto.Bad_request, m)) r
let hex_fp fp = Printf.sprintf "%016Lx" fp

let design_info d =
  [
    ("design", J.Str d.d_name);
    ("nets", J.Int (N.num_nets d.d_nl));
    ("gates", J.Int (N.num_gates d.d_nl));
    ("couplings", J.Int (N.num_couplings d.d_nl));
    ("k", J.Int d.d_k);
    ("fingerprint", J.Str (hex_fp d.d_fp));
  ]

(* ------------------------------------------------------------------ *)
(* load / info                                                        *)
(* ------------------------------------------------------------------ *)

let load t params =
  let* body = bad (Proto.param_string params "netlist") in
  let* k = bad (Proto.param_int_default params "k" t.default_k) in
  if k < 1 then Error (Proto.Bad_request, "\"k\" must be >= 1")
  else
    match Nf.parse ~lookup:t.lookup body with
    | exception Nf.Parse_error { line; message } ->
      Error
        ( Proto.Parse_failed,
          Printf.sprintf "netlist parse error at line %d: %s" line message )
    | nl ->
      let* name_opt = bad (Proto.param_string_opt params "name") in
      let name = Option.value ~default:(N.name nl) name_opt in
      let fp = Registry.fingerprint nl in
      let cache = Registry.attach t.registry ~fp in
      let d = make_design ~name ~nl ~fp ~cache ~k in
      t.design <- Some d;
      Ok (J.Obj (design_info d))

let info t =
  let* d = require t in
  Ok (J.Obj (design_info d))

(* ------------------------------------------------------------------ *)
(* analyze                                                            *)
(* ------------------------------------------------------------------ *)

let per_k_json res =
  let entries = ref [] in
  for i = res.Engine.res_config.Engine.k downto 1 do
    match res.Engine.res_per_k.(i) with
    | None -> ()
    | Some ch ->
      entries :=
        J.Obj
          [
            ("k", J.Int i);
            ("objective_ns", J.Float ch.Engine.ch_objective);
            ("estimated_delay_ns", J.Float (Engine.estimated_delay res i));
            ("sink", J.Int ch.Engine.ch_sink);
            ( "set",
              J.List (List.map (fun c -> J.Int c) (CS.to_list ch.Engine.ch_set))
            );
          ]
        :: !entries
  done;
  J.List !entries

(* [elapsed_s] is the only wall-clock-dependent field in an analysis
   result; clients comparing runs for bit-identity strip it (and the
   cache counters, which depend on who warmed the shared cache first). *)
let analysis_fields d ~mode ~filter elim (st : Analyzer.run_stats) elapsed =
  let res =
    match mode with
    | Engine.Elimination -> elim.Elimination.result
    | Engine.Addition -> elim.Elimination.dual
  in
  [
    ("design", J.Str d.d_name);
    ("mode", J.Str (Proto.mode_name mode));
    ("filter", J.Str (Proto.filter_name filter));
    ("k", J.Int d.d_k);
    ("noiseless_delay_ns", J.Float res.Engine.res_noiseless_delay);
    ("all_aggressor_delay_ns", J.Float res.Engine.res_noisy_delay);
    ("per_k", per_k_json res);
    ("cache_hits", J.Int st.Analyzer.rs_hits);
    ("cache_misses", J.Int st.Analyzer.rs_misses);
    ("elapsed_s", J.Float elapsed);
  ]

let analyze t params =
  let* d = require t in
  let* mode = bad (Proto.mode_of_params params) in
  let* filter = bad (Proto.filter_of_params params) in
  let t0 = Clock.now_s () in
  let elim, st = run_analyzer t d filter in
  Ok (J.Obj (analysis_fields d ~mode ~filter elim st (Clock.now_s () -. t0)))

(* ------------------------------------------------------------------ *)
(* whatif / eco                                                       *)
(* ------------------------------------------------------------------ *)

(* Build the edited design as a *new* registry tenant: the edited
   fingerprint's cache is seeded (first arrival only) with a remapped
   copy of the base cache, which stays valid for co-tenants. *)
let edited_design t d edits =
  let nl', phys_map = Edit.apply d.d_nl edits in
  let dirty = Dirty.count (Dirty.closure d.d_topo (Edit.touched_nets d.d_nl edits)) in
  let fp' = Registry.fingerprint nl' in
  let cache' =
    Registry.attach_seeded t.registry ~fp:fp' ~seed:(fun () ->
        Cache.remapped_copy d.d_cache phys_map)
  in
  let d' = make_design ~name:d.d_name ~nl:nl' ~fp:fp' ~cache:cache' ~k:d.d_k in
  (d', dirty)

let whatif t params =
  let* d = require t in
  let* edits = bad (Proto.edits_of_params ~lookup:t.lookup params) in
  let* () = bad (Edit.check d.d_nl edits) in
  let* mode = bad (Proto.mode_of_params params) in
  let* filter = bad (Proto.filter_of_params params) in
  let t0 = Clock.now_s () in
  let d', dirty = edited_design t d edits in
  let elim, st = run_analyzer t d' filter in
  Ok
    (J.Obj
       (("edits", J.Int (List.length edits))
       :: ("dirty_nets", J.Int dirty)
       :: ("fingerprint", J.Str (hex_fp d'.d_fp))
       :: analysis_fields { d' with d_name = d.d_name } ~mode ~filter elim st
            (Clock.now_s () -. t0)))

let eco t params =
  let* d = require t in
  let* fix_k = bad (Proto.param_int_default params "fix_k" 1) in
  if fix_k < 1 || fix_k > d.d_k then
    Error
      ( Proto.Bad_request,
        Printf.sprintf "\"fix_k\" must be in [1, %d] (the session's k)" d.d_k )
  else
    let t0 = Clock.now_s () in
    let elim, st = run_analyzer t d Tka_filter.Mode.Off in
    let rule, set = Eco.choose_fix elim ~fix_k in
    let delay_noisy = elim.Elimination.result.Engine.res_noisy_delay in
    let base =
      [
        ("design", J.Str d.d_name);
        ("fix_k", J.Int fix_k);
        ("rule", J.Str (Eco.rule_name rule));
        ("delay_noisy_ns", J.Float delay_noisy);
        ("analysis_hits", J.Int st.Analyzer.rs_hits);
        ("analysis_misses", J.Int st.Analyzer.rs_misses);
      ]
    in
    match set with
    | None ->
      (* nothing to fix: no edit, the session's design is unchanged *)
      Ok
        (J.Obj
           (base
           @ [
               ("set", J.List []);
               ("edits", J.Int 0);
               ("dirty_nets", J.Int 0);
               ("delay_fixed_ns", J.Float delay_noisy);
               ("cache_hits", J.Int 0);
               ("cache_misses", J.Int 0);
               ("fingerprint", J.Str (hex_fp d.d_fp));
               ("elapsed_s", J.Float (Clock.now_s () -. t0));
             ]))
    | Some set ->
      let edits = Eco.removal_edits set in
      let d', dirty = edited_design t d edits in
      let elim', st' = run_analyzer t d' Tka_filter.Mode.Off in
      t.design <- Some d';
      Ok
        (J.Obj
           (base
           @ [
               ("set", J.List (List.map (fun c -> J.Int c) (CS.to_list set)));
               ("edits", J.Int (List.length edits));
               ("dirty_nets", J.Int dirty);
               ( "delay_fixed_ns",
                 J.Float elim'.Elimination.result.Engine.res_noisy_delay );
               ("cache_hits", J.Int st'.Analyzer.rs_hits);
               ("cache_misses", J.Int st'.Analyzer.rs_misses);
               ("couplings", J.Int (N.num_couplings d'.d_nl));
               ("fingerprint", J.Str (hex_fp d'.d_fp));
               ("elapsed_s", J.Float (Clock.now_s () -. t0));
             ]))

(* ------------------------------------------------------------------ *)
(* repair                                                             *)
(* ------------------------------------------------------------------ *)

(* The repair loop runs on the session's netlist with its own private
   analyzer state (trial snapshots must not evict co-tenants from the
   shared cache). On success the repaired netlist is committed as a new
   registry tenant, exactly like an [eco] commit — unless [dry_run].
   [verify] defaults to false here: the RPC caller usually wants the
   loop, not the scratch re-analysis; pass [{"verify":true}] to gate on
   bit-identity like the CLI does. *)
let repair t params =
  let* d = require t in
  let* fix_k = bad (Proto.param_int_default params "fix_k" 1) in
  let* budget = bad (Proto.param_int_default params "budget" 10) in
  let* target_ns = bad (Proto.param_float_opt params "target_ns") in
  let* recover_opt = bad (Proto.param_float_opt params "recover") in
  let* dry_run = bad (Proto.param_bool_default params "dry_run" false) in
  let* verify = bad (Proto.param_bool_default params "verify" false) in
  let* filter = bad (Proto.filter_of_params params) in
  if fix_k < 1 || fix_k > d.d_k then
    Error
      ( Proto.Bad_request,
        Printf.sprintf "\"fix_k\" must be in [1, %d] (the session's k)" d.d_k )
  else if budget < 0 then Error (Proto.Bad_request, "\"budget\" must be >= 0")
  else
    let recover = Option.value ~default:0.5 recover_opt in
    if not (Float.is_finite recover && recover >= 0. && recover <= 1.) then
      Error (Proto.Bad_request, "\"recover\" must be in [0, 1]")
    else
      match
        (* no [journal]/[checkpoint] paths: an RPC never writes files;
           [dry_run] here only controls whether the result is committed *)
        Repair.run ~k:d.d_k ~fix_k ~budget ?target_delay:target_ns ~recover
          ~dry_run ~verify ~filter d.d_nl
      with
      | exception Invalid_argument m -> Error (Proto.Bad_request, m)
      | report, nl', _elim ->
        let committed =
          (not dry_run) && report.Repair.rp_edits_applied > 0
        in
        let d' =
          if not committed then d
          else begin
            let fp' = Registry.fingerprint nl' in
            let cache' = Registry.attach t.registry ~fp:fp' in
            let d' =
              make_design ~name:d.d_name ~nl:nl' ~fp:fp' ~cache:cache'
                ~k:d.d_k
            in
            t.design <- Some d';
            d'
          end
        in
        let fields =
          match Repair.report_json report with
          | J.Obj f -> f
          | j -> [ ("repair", j) ]
        in
        Ok
          (J.Obj
             (fields
             @ [
                 ("filter", J.Str (Proto.filter_name filter));
                 ("committed", J.Bool committed);
                 ("fingerprint", J.Str (hex_fp d'.d_fp));
               ]))

(* ------------------------------------------------------------------ *)
(* dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let handle t ~meth ~params =
  match meth with
  | "load" -> load t params
  | "info" -> info t
  | "analyze" -> analyze t params
  | "whatif" -> whatif t params
  | "eco" -> eco t params
  | "repair" -> repair t params
  | m -> Error (Proto.Bad_request, Printf.sprintf "unknown method %S" m)
