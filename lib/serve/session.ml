module J = Tka_obs.Jsonx
module Clock = Tka_obs.Clock
module N = Tka_circuit.Netlist
module Nf = Tka_circuit.Netlist_format
module Analyzer = Tka_incr.Analyzer
module Edit = Tka_incr.Edit
module Eco = Tka_incr.Eco
module Repair = Tka_incr.Repair
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module Metrics = Tka_obs.Metrics

let ( let* ) = Result.bind

let c_reuses = Metrics.Counter.make "serve.analysis_reuses"

type design = {
  d_name : string;
  d_fp : Tka_incr.Fnv.t;  (* the registry key of [d_az]'s netlist *)
  d_az : Analyzer.t;  (* over the registry tenant for [d_fp] *)
}

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

(* Every analysis is counted here, to count the ones a design state
   answered from its last analysis. *)
let count_reuse t (st : Analyzer.run_stats) =
  if st.Analyzer.rs_reused then begin
    t.reuses <- t.reuses + 1;
    Metrics.Counter.incr c_reuses
  end

let run_analyzer t d filter =
  let ((_, st) as r) = Analyzer.run ~filter d.d_az in
  count_reuse t st;
  r

let require t =
  match t.design with
  | Some d -> Ok d
  | None -> Error (Proto.No_design, "no design loaded in this session")

let bad r = Result.map_error (fun m -> (Proto.Bad_request, m)) r
let hex_fp fp = Printf.sprintf "%016Lx" fp

let design_info d =
  let nl = Analyzer.netlist d.d_az in
  [
    ("design", J.Str d.d_name);
    ("nets", J.Int (N.num_nets nl));
    ("gates", J.Int (N.num_gates nl));
    ("couplings", J.Int (N.num_couplings nl));
    ("k", J.Int (Analyzer.k d.d_az));
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
      let d = { d_name = name; d_fp = fp; d_az = Analyzer.create ~cache ~k nl } in
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
    ("k", J.Int (Analyzer.k d.d_az));
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

(* The edited design is a *new* registry tenant: the edited
   fingerprint's cache is seeded (first arrival only) with a remapped
   copy of the base cache, which stays valid for co-tenants. *)
let edited_cache t fp' nl' ~seed =
  fp' := Registry.fingerprint nl';
  Registry.attach_seeded t.registry ~fp:!fp' ~seed

let edited_design t d edits =
  let fp' = ref d.d_fp in
  let az', dirty = Analyzer.apply ~cache:(edited_cache t fp') d.d_az edits in
  ({ d with d_fp = !fp'; d_az = az' }, dirty)

let whatif t params =
  let* d = require t in
  let* edits = bad (Proto.edits_of_params ~lookup:t.lookup params) in
  let* () = bad (Edit.check (Analyzer.netlist d.d_az) edits) in
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
       :: analysis_fields d' ~mode ~filter elim st (Clock.now_s () -. t0)))

let eco t params =
  let* d = require t in
  let* fix_k = bad (Proto.param_int_default params "fix_k" 1) in
  let t0 = Clock.now_s () in
  let fp' = ref d.d_fp in
  match Eco.run ~verify:false ~cache:(edited_cache t fp') ~fix_k d.d_az with
  | exception Invalid_argument m -> Error (Proto.Bad_request, m)
  | r, az' ->
    count_reuse t r.Eco.eco_before;
    count_reuse t r.Eco.eco_after;
    (* with no fix there is no edit, and the session's design stays *)
    let d' = { d with d_fp = !fp'; d_az = az' } in
    if r.Eco.eco_edits <> [] then t.design <- Some d';
    let fields =
      match Eco.report_json { r with Eco.eco_design = d.d_name } with
      | J.Obj f -> f
      | j -> [ ("eco", j) ]
    in
    Ok
      (J.Obj
         (fields
         @ [
             ("fingerprint", J.Str (hex_fp d'.d_fp));
             ("elapsed_s", J.Float (Clock.now_s () -. t0));
           ]))

(* ------------------------------------------------------------------ *)
(* repair                                                             *)
(* ------------------------------------------------------------------ *)

(* A committed state becomes the registry tenant of its fingerprint.
   On first arrival its own cache seeds the entry, so the state keeps
   its fixpoint and analysis and the next [analyze] is a memo answer;
   a fingerprint already cached keeps that cache, and the state is
   made again over it. *)
let commit t d az =
  let nl = Analyzer.netlist az in
  let fp = Registry.fingerprint nl in
  let cache = Registry.attach_seeded t.registry ~fp ~seed:(fun () -> Analyzer.cache az) in
  let az = if cache == Analyzer.cache az then az else Analyzer.create ~cache ~k:(Analyzer.k az) nl in
  let d' = { d with d_fp = fp; d_az = az } in
  t.design <- Some d';
  d'

(* The repair loop runs on the session's netlist with its own private
   analyzer state (trial snapshots must not evict co-tenants from the
   shared cache). On success the loop's final state is committed
   ({!commit}), like an [eco] commit — unless [dry_run]. [verify]
   defaults to false here: the RPC caller usually wants the loop, not
   the scratch re-analysis; pass [{"verify":true}] to gate on
   bit-identity like the CLI does. *)
let repair t params =
  let* d = require t in
  let* fix_k = bad (Proto.param_int_default params "fix_k" 1) in
  let* budget = bad (Proto.param_int_default params "budget" 10) in
  let* target_ns = bad (Proto.param_float_opt params "target_ns") in
  let* recover = bad (Proto.param_float_opt params "recover") in
  let* dry_run = bad (Proto.param_bool_default params "dry_run" false) in
  let* verify = bad (Proto.param_bool_default params "verify" false) in
  let* filter = bad (Proto.filter_of_params params) in
  match
    (* no [journal]/[checkpoint] paths: an RPC never writes files;
       [dry_run] here only controls whether the result is committed *)
    Repair.run ~k:(Analyzer.k d.d_az) ~fix_k ~budget ?target_delay:target_ns
      ?recover ~dry_run ~verify ~filter (Analyzer.netlist d.d_az)
  with
  | exception Invalid_argument m -> Error (Proto.Bad_request, m)
  | report, az', _elim ->
    let committed = (not dry_run) && report.Repair.rp_edits_applied > 0 in
    let d' = if committed then commit t d az' else d in
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
