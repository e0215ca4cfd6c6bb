(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the synthetic i1..i10 suite.

     dune exec bench/main.exe                 -- everything but table2x
     dune exec bench/main.exe -- table1       -- only Table 1
     dune exec bench/main.exe -- table2a table2b --circuits i1,i3
     dune exec bench/main.exe -- --quick      -- reduced sweep for smoke runs

   Sections:
     stats    circuit inventory (the #gates/#nets/#caps columns of Table 2)
     table1   validation against brute force + runtime blow-up
     table2a  top-k elimination sweep  (Table 2(a) data semantics)
     table2b  top-k addition sweep     (Table 2(b) data semantics)
     figure10 delay vs k series for i1 and i10, both analyses
     ablation pseudo / higher-order aggressors and I-list capacity
     parallel sequential vs parallel engine sweep (speedup + determinism)
     table2x  runtime and peak-RSS scaling on 10^5-10^6-net circuits
              (only when named)

   The serve, eco, repair, filter and re-ranking workloads are measured
   by perfbench (BENCHMARK.json), not here.

   --jobs N (or TKA_JOBS) sizes the shared domain pool: the table2
   sections run their per-circuit sweeps concurrently, and the engine /
   brute force parallelise internally. Results are identical at any
   jobs count; all runtimes are monotonic wall-clock seconds. Results
   go to BENCH_topk.json in the working directory. *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Stats = Tka_circuit.Circuit_stats
module B = Tka_layout.Benchmarks
module Iterate = Tka_noise.Iterate
module Engine = Tka_topk.Engine
module Addition = Tka_topk.Addition
module Elimination = Tka_topk.Elimination
module Refine = Tka_topk.Refine
module BF = Tka_topk.Brute_force
module CS = Tka_topk.Coupling_set
module Tt = Tka_util.Text_table
module J = Tka_obs.Jsonx
module Pool = Tka_parallel.Pool
module T2x = Tka_layout.Table2x
module Rss = Tka_prof.Rss

let wall () = Tka_obs.Clock.now_s ()

(* Machine-readable results, accumulated as sections run and dumped to
   BENCH_topk.json at the end. *)
let json_out : (string * J.t) list ref = ref []
let json_add key v = json_out := !json_out @ [ (key, v) ]

let json_stats (st : Tka_topk.Ilist.stats) =
  J.Obj
    [
      ("candidates", J.Int st.Tka_topk.Ilist.candidates);
      ("dominated", J.Int st.Tka_topk.Ilist.dominated);
      ("duplicates", J.Int st.Tka_topk.Ilist.duplicates);
      ("capped", J.Int st.Tka_topk.Ilist.capped);
      ("dominance_checks", J.Int st.Tka_topk.Ilist.checks);
    ]

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

type options = {
  mutable sections : string list;
  mutable circuits : string list;
  mutable ks : int list; (* delay columns of Table 2 *)
  mutable runtime_ks : int list; (* per-k runtime columns (independent runs) *)
  mutable fig10_max_k : int;
  mutable bf_budget : float;
  mutable quick : bool;
  mutable rss_budget_mb : float option; (* table2x hard peak-RSS gate *)
}

let default_options () =
  {
    sections = [];
    circuits = List.map (fun s -> s.B.sp_name) B.all_specs;
    ks = [ 1; 5; 10; 15; 20; 30; 40; 50 ];
    runtime_ks = [ 1; 5; 10; 20; 50 ];
    fig10_max_k = 75;
    bf_budget = 60.;
    quick = false;
    rss_budget_mb = None;
  }

(* Bad arguments are reported before any section runs. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 2)
    fmt

(* [known] lists the section names; every one but table2x runs by
   default. *)
let parse_args known =
  let o = default_options () in
  let args = List.tl (Array.to_list Sys.argv) in
  (* --quick only changes defaults: an explicit flag wins wherever it
     stands *)
  if List.mem "--quick" args then begin
    o.quick <- true;
    o.circuits <- [ "i1"; "i3" ];
    o.ks <- [ 1; 5; 10 ];
    o.runtime_ks <- [ 1; 10 ];
    o.fig10_max_k <- 15;
    o.bf_budget <- 5.
  end;
  let rec go = function
    | [] -> ()
    | "--quick" :: rest -> go rest
    | "--circuits" :: v :: rest ->
      let names = String.split_on_char ',' v in
      (match List.find_opt (fun c -> B.spec_of_name c = None) names with
      | Some c -> usage_error "--circuits: unknown benchmark %S (i1..i10)" c
      | None -> o.circuits <- names);
      go rest
    | "--bf-budget" :: v :: rest ->
      (match float_of_string_opt (String.trim v) with
      | Some b when b > 0. -> o.bf_budget <- b
      | _ -> usage_error "--bf-budget must be a positive number (got %S)" v);
      go rest
    | "--rss-budget-mb" :: v :: rest ->
      (match float_of_string_opt (String.trim v) with
      | Some b when b > 0. -> o.rss_budget_mb <- Some b
      | _ -> usage_error "--rss-budget-mb must be a positive number (got %S)" v);
      go rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt (String.trim v) with
      | Some j when j >= 1 -> Pool.set_default_jobs j
      | Some j -> usage_error "--jobs must be >= 1 (got %d)" j
      | None -> usage_error "--jobs must be a positive integer (got %S)" v);
      go rest
    | s :: rest when String.length s > 0 && s.[0] <> '-' ->
      if not (List.mem s known) then
        usage_error "unknown section %S (%s)" s (String.concat " " known);
      o.sections <- o.sections @ [ s ];
      go rest
    | s :: _ -> usage_error "unknown option %S" s
  in
  go args;
  if o.sections = [] then
    o.sections <- List.filter (fun s -> s <> "table2x") known;
  o

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

(* Benchmarks are generated once and shared across sections. *)
let circuit_cache : (string, N.t * Topo.t) Hashtbl.t = Hashtbl.create 16

let circuit name =
  match Hashtbl.find_opt circuit_cache name with
  | Some c -> c
  | None ->
    let nl =
      match B.by_name name with
      | Some nl -> nl
      | None -> failwith (Printf.sprintf "unknown benchmark %S" name)
    in
    let c = (nl, Topo.create nl) in
    Hashtbl.replace circuit_cache name c;
    c

(* ------------------------------------------------------------------ *)
(* stats                                                              *)
(* ------------------------------------------------------------------ *)

let run_stats o =
  section "Circuit inventory (size columns of Table 2)";
  let t =
    Tt.create
      ~headers:
        [
          ("ckt", Tt.Left); ("#gates", Tt.Right); ("#nets", Tt.Right);
          ("#coupling caps", Tt.Right); ("depth", Tt.Right);
          ("avg fanout", Tt.Right);
        ]
  in
  List.iter
    (fun name ->
      let nl, _ = circuit name in
      Tt.add_row t (Stats.row (Stats.compute nl)))
    o.circuits;
  print_string (Tt.render t)

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

(* A compact validation circuit: small enough that brute force can
   finish small k exhaustively, while larger k blows past the budget
   just as the paper's 1800 s cutoff did. *)
let validation_spec =
  {
    B.sp_name = "v0";
    sp_gates = 20;
    sp_inputs = 4;
    sp_depth = 4;
    sp_couplings = 24;
    sp_seed = 4242;
  }

let run_table1 o =
  section
    (Printf.sprintf
       "Table 1: proposed algorithm vs brute force (top-k addition set)\n\
        validation circuit v0 (%d gates, %d coupling caps), brute-force budget %.0f s"
       validation_spec.B.sp_gates validation_spec.B.sp_couplings o.bf_budget);
  let nl = B.generate validation_spec in
  ignore nl;
  let topo = Topo.create nl in
  let kmax = 5 in
  let t0 = wall () in
  let add_all = Addition.compute ~k:kmax topo in
  let alg_total = wall () -. t0 in
  ignore add_all;
  let t =
    Tt.create
      ~headers:
        [
          ("k", Tt.Right);
          ("proposed delay (ns)", Tt.Right); ("proposed runtime (s)", Tt.Right);
          ("brute delay (ns)", Tt.Right); ("brute runtime (s)", Tt.Right);
          ("agree", Tt.Center);
        ]
  in
  let rows = ref [] in
  List.iter
    (fun k ->
      (* per-k algorithm runtime measured with an independent run *)
      let ta = wall () in
      let addk = Addition.compute ~k topo in
      let alg_runtime = wall () -. ta in
      let alg_delay = Addition.evaluate addk k in
      let bf = BF.addition ~budget_s:o.bf_budget ~k topo in
      let agree =
        if not bf.BF.bf_completed then "-"
        else if Float.abs (bf.BF.bf_delay -. alg_delay) <= 1e-6 then "yes"
        else "no"
      in
      rows :=
        J.Obj
          ([
             ("k", J.Int k);
             ("proposed_delay_ns", J.Float alg_delay);
             ("proposed_runtime_s", J.Float alg_runtime);
             ("brute_completed", J.Bool bf.BF.bf_completed);
             ("brute_runtime_s", J.Float bf.BF.bf_runtime);
             ("agree", J.Str agree);
           ]
          @ (if bf.BF.bf_completed then
               [
                 ("brute_delay_ns", J.Float bf.BF.bf_delay);
                 ( "speedup",
                   J.Float (bf.BF.bf_runtime /. Float.max alg_runtime 1e-9) );
               ]
             else
               [
                 ("brute_evaluated", J.Int bf.BF.bf_evaluated);
                 ("brute_total", J.Int bf.BF.bf_total);
               ]))
        :: !rows;
      Tt.add_row t
        [
          Tt.cell_i k;
          Tt.cell_f ~decimals:4 alg_delay;
          Tt.cell_f ~decimals:2 alg_runtime;
          (if bf.BF.bf_completed then Tt.cell_f ~decimals:4 bf.BF.bf_delay
           else Printf.sprintf "timeout (%d/%d)" bf.BF.bf_evaluated bf.BF.bf_total);
          Tt.cell_f ~decimals:2 bf.BF.bf_runtime;
          agree;
        ])
    (List.init kmax (fun i -> i + 1));
  json_add "table1"
    (J.Obj
       [
         ("circuit", J.Str validation_spec.B.sp_name);
         ("gates", J.Int validation_spec.B.sp_gates);
         ("couplings", J.Int validation_spec.B.sp_couplings);
         ("bf_budget_s", J.Float o.bf_budget);
         ("single_run_all_k_s", J.Float alg_total);
         ("rows", J.List (List.rev !rows));
       ]);
  print_string (Tt.render t);
  Printf.printf
    "(proposed algorithm computed all of k=1..%d in %.2f s in a single run)\n%!"
    kmax alg_total

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

(* Note on captions: in the paper's own data, Table 2(a) runs from the
   all-aggressor delay down toward the noiseless delay as k grows
   (elimination behaviour) and Table 2(b) rises from the noiseless
   delay (addition behaviour) — the reverse of the printed captions.
   We reproduce the data semantics and keep the paper's numbering. *)

let delay_headers o anchor_left anchor_right =
  [ ("ckt", Tt.Left); (anchor_left, Tt.Right) ]
  @ List.map (fun k -> (Printf.sprintf "k=%d" k, Tt.Right)) o.ks
  @ [ (anchor_right, Tt.Right) ]

let runtime_headers o =
  ("ckt", Tt.Left)
  :: List.map (fun k -> (Printf.sprintf "k=%d" k, Tt.Right)) o.runtime_ks

let run_table2 o ~mode =
  let label, anchor_left, anchor_right =
    match mode with
    | Engine.Elimination ->
      ( "Table 2(a): top-k elimination sets — circuit delay and runtime",
        "all agg.", "no agg." )
    | Engine.Addition ->
      ( "Table 2(b): top-k addition sets — circuit delay and runtime",
        "no agg.", "all agg." )
  in
  section label;
  let delays = Tt.create ~headers:(delay_headers o anchor_left anchor_right) in
  let runtimes = Tt.create ~headers:(runtime_headers o) in
  (* circuit generation is cached and shared, so populate the cache
     sequentially before fanning the per-circuit sweeps out *)
  List.iter (fun name -> ignore (circuit name)) o.circuits;
  let compute name =
    let _, topo = circuit name in
    let kmax = List.fold_left max 1 o.ks in
    (* one enumeration gives the sets for every cardinality *)
    let t_enum = wall () in
    let r = Refine.compute ~mode ~k:kmax topo in
    let res = r.Refine.result in
    let base_delay = res.Engine.res_noiseless_delay
    and noisy_delay = res.Engine.res_noisy_delay
    and curve = Refine.evaluate_curve r ~ks:o.ks
    and stats = res.Engine.res_stats in
    let enum_runtime = wall () -. t_enum in
    let evaluate k =
      match List.find_opt (fun (k', _, _) -> k' = k) curve with
      | Some (_, _, d) -> d
      | None -> Engine.fallback_delay res
    in
    let ds = List.map (fun k -> (k, evaluate k)) o.ks in
    (* runtime column: independent per-k enumerations, like the paper;
       the all-aggressor fixpoint is shared so the figure is the
       enumeration cost *)
    let fixpoint = Iterate.run topo in
    let per_k_runtime k =
      let t0 = wall () in
      ignore (Engine.compute ~config:(Engine.default_config ~k) ~fixpoint ~mode topo);
      wall () -. t0
    in
    let per_k = List.map (fun k -> (k, per_k_runtime k)) o.runtime_ks in
    Printf.printf "  [%s done]\n%!" name;
    (name, base_delay, noisy_delay, ds, enum_runtime, stats, per_k)
  in
  (* The circuit sweeps run concurrently on the shared pool (the engine
     inside each nests on the same pool); the rows are rendered from
     the position-stable map result, so the report and the JSON are
     identical at any jobs count. *)
  let results =
    Pool.map ~chunk:1 (Pool.get_default ()) compute (Array.of_list o.circuits)
  in
  let capped = ref 0 in
  let jrows = ref [] in
  Array.iter
    (fun (name, base_delay, noisy_delay, ds, enum_runtime, stats, per_k) ->
      capped := !capped + stats.Tka_topk.Ilist.capped;
      let anchor_l, anchor_r =
        match mode with
        | Engine.Elimination -> (noisy_delay, base_delay)
        | Engine.Addition -> (base_delay, noisy_delay)
      in
      Tt.add_row delays
        ([ name; Tt.cell_f anchor_l ]
        @ List.map (fun (_, d) -> Tt.cell_f d) ds
        @ [ Tt.cell_f anchor_r ]);
      Tt.add_row runtimes
        (name
        :: List.map (fun (_, rt) -> Tt.cell_f ~decimals:2 rt) per_k);
      jrows :=
        J.Obj
          [
            ("circuit", J.Str name);
            ("noiseless_delay_ns", J.Float base_delay);
            ("all_aggressor_delay_ns", J.Float noisy_delay);
            ( "delays_ns",
              J.Obj (List.map (fun (k, d) -> (string_of_int k, J.Float d)) ds)
            );
            ("enumeration_runtime_s", J.Float enum_runtime);
            ( "per_k_runtime_s",
              J.Obj
                (List.map (fun (k, rt) -> (string_of_int k, J.Float rt)) per_k)
            );
            ("prune", json_stats stats);
          ]
        :: !jrows)
    results;
  json_add
    (match mode with
    | Engine.Elimination -> "table2a_elimination"
    | Engine.Addition -> "table2b_addition")
    (J.List (List.rev !jrows));
  Printf.printf "Circuit delay (ns):\n%s" (Tt.render delays);
  Printf.printf "Runtime of the enumeration (s):\n%s" (Tt.render runtimes);
  if !capped > 0 then
    Printf.printf
      "note: %d candidate entries were dropped by the irredundant-list \
       capacity bound (%d per cardinality)\n%!"
      !capped Tka_topk.Ilist.default_capacity

(* ------------------------------------------------------------------ *)
(* Figure 10                                                          *)
(* ------------------------------------------------------------------ *)

let run_figure10 o =
  section
    (Printf.sprintf
       "Figure 10: circuit delay vs k (1..%d), addition and elimination\n\
        (exact evaluated curves; i10 sampled every 5th k to bound runtime)"
       o.fig10_max_k);
  let circuits =
    match List.filter (fun c -> List.mem c o.circuits) [ "i1"; "i10" ] with
    | [] -> [ List.hd o.circuits ]
    | cs -> cs
  in
  List.iter
    (fun name ->
      let _, topo = circuit name in
      let kmax = o.fig10_max_k in
      let ks =
        if name = "i10" then
          List.filter (fun k -> k = 1 || k mod 5 = 0) (List.init kmax (fun i -> i + 1))
        else List.init kmax (fun i -> i + 1)
      in
      let add = Addition.compute ~k:kmax topo in
      let elim = Elimination.compute ~k:kmax topo in
      let add_curve = Addition.evaluate_curve add ~ks in
      let elim_curve = Elimination.evaluate_curve elim ~ks in
      Printf.printf "\n%s: noiseless %.4f ns, all-aggressor %.4f ns\n" name
        (Addition.noiseless_delay add)
        (Addition.all_aggressor_delay add);
      Printf.printf "k,addition_delay_ns,elimination_delay_ns\n";
      List.iter
        (fun k ->
          let find curve =
            Option.map (fun (_, _, d) -> d)
              (List.find_opt (fun (k', _, _) -> k' = k) curve)
          in
          match (find add_curve, find elim_curve) with
          | Some da, Some de -> Printf.printf "%d,%.4f,%.4f\n" k da de
          | _ -> ())
        ks;
      Printf.printf "%!")
    circuits

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

(* How much do the paper's two key devices (pseudo aggressors,
   higher-order aggressors) and the irredundant-list capacity bound
   actually buy? Objective = the engine's top-k noise estimate at the
   sink; runtime = enumeration CPU time. *)
let run_ablation o =
  section "Ablations: pseudo aggressors, higher-order aggressors, I-list capacity";
  let name = List.hd o.circuits in
  let _, topo = circuit name in
  let k = min 20 (List.fold_left max 10 o.ks) in
  let t =
    Tt.create
      ~headers:
        [
          ("configuration", Tt.Left);
          (Printf.sprintf "top-%d objective (ns)" k, Tt.Right);
          ("exact delay (ns)", Tt.Right);
          ("runtime (s)", Tt.Right);
          ("candidates", Tt.Right);
          ("dominated", Tt.Right);
          ("capped", Tt.Right);
        ]
  in
  let fixpoint = Iterate.run topo in
  let row label ~capacity ~use_pseudo ~use_higher_order =
    let config =
      { (Engine.default_config ~k) with Engine.capacity; use_pseudo; use_higher_order }
    in
    let t0 = wall () in
    let r = Engine.compute ~config ~fixpoint ~mode:Engine.Addition topo in
    let rt = wall () -. t0 in
    let obj =
      match r.Engine.res_per_k.(k) with Some c -> c.Engine.ch_objective | None -> 0.
    in
    let exact =
      match r.Engine.res_per_k.(k) with
      | Some c -> Refine.exact_delay ~mode:Engine.Addition topo c.Engine.ch_set
      | None -> Engine.fallback_delay r
    in
    let st = r.Engine.res_stats in
    Tt.add_row t
      [
        label;
        Tt.cell_f ~decimals:4 obj;
        Tt.cell_f ~decimals:4 exact;
        Tt.cell_f ~decimals:2 rt;
        Tt.cell_i st.Tka_topk.Ilist.candidates;
        Tt.cell_i st.Tka_topk.Ilist.dominated;
        Tt.cell_i st.Tka_topk.Ilist.capped;
      ]
  in
  let cap = Tka_topk.Ilist.default_capacity in
  row "full algorithm" ~capacity:cap ~use_pseudo:true ~use_higher_order:true;
  row "no pseudo aggressors" ~capacity:cap ~use_pseudo:false ~use_higher_order:true;
  row "no higher-order aggressors" ~capacity:cap ~use_pseudo:true ~use_higher_order:false;
  row "neither device" ~capacity:cap ~use_pseudo:false ~use_higher_order:false;
  row "capacity 4" ~capacity:4 ~use_pseudo:true ~use_higher_order:true;
  row "capacity 8" ~capacity:8 ~use_pseudo:true ~use_higher_order:true;
  row "capacity 32" ~capacity:32 ~use_pseudo:true ~use_higher_order:true;
  Printf.printf "circuit %s, top-%d addition analysis\n%s" name k (Tt.render t)

(* ------------------------------------------------------------------ *)
(* Parallel speedup                                                   *)
(* ------------------------------------------------------------------ *)

(* The same full engine sweep at jobs=1 and at the pool's configured
   jobs (at least 2, so the parallel path is always exercised), with a
   shared noise fixpoint so the figure is the enumeration itself. The
   two results are cross-checked set by set — the determinism contract
   of docs/parallelism.md — and the speedup lands in BENCH_topk.json. *)
let run_parallel o =
  let name = List.nth o.circuits (List.length o.circuits - 1) in
  let jobs_before = Pool.default_jobs () in
  let par_jobs = max 2 jobs_before in
  let k = if o.quick then 5 else 10 in
  section
    (Printf.sprintf
       "Parallel sweep: %s addition k=%d, jobs=1 vs jobs=%d" name k par_jobs);
  let _, topo = circuit name in
  let fixpoint = Iterate.run topo in
  let run_at jobs =
    Pool.set_default_jobs jobs;
    let t0 = wall () in
    let r =
      Engine.compute ~config:(Engine.default_config ~k) ~fixpoint
        ~mode:Engine.Addition topo
    in
    (wall () -. t0, r)
  in
  let t_seq, r_seq = run_at 1 in
  let t_par, r_par = run_at par_jobs in
  Pool.set_default_jobs jobs_before;
  let same_choice a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b ->
      CS.to_list a.Engine.ch_set = CS.to_list b.Engine.ch_set
      && a.Engine.ch_objective = b.Engine.ch_objective
      && a.Engine.ch_sink = b.Engine.ch_sink
    | _ -> false
  in
  let deterministic =
    Array.for_all2 same_choice r_seq.Engine.res_per_k r_par.Engine.res_per_k
  in
  let speedup = t_seq /. Float.max t_par 1e-9 in
  Printf.printf "  jobs=1: %.2f s   jobs=%d: %.2f s   speedup %.2fx\n" t_seq
    par_jobs t_par speedup;
  Printf.printf "  results identical across jobs: %s\n%!"
    (if deterministic then "yes" else "NO (determinism violation!)");
  if not deterministic then exit 1;
  json_add "parallel"
    (J.Obj
       [
         ("circuit", J.Str name);
         ("k", J.Int k);
         ("jobs", J.Int par_jobs);
         ("t_seq_s", J.Float t_seq);
         ("t_par_s", J.Float t_par);
         ("speedup", J.Float speedup);
         ("deterministic", J.Bool deterministic);
       ])

(* ------------------------------------------------------------------ *)
(* table2x: synthetic scaling beyond the Table 2 suite                *)
(* ------------------------------------------------------------------ *)

(* Runtime and peak-RSS scaling curves on the synthetic table2x
   circuits (10^5 nets; 10^6 as well outside --quick). The Addition /
   Elimination re-ranking loop re-runs the noise fixpoint once per
   candidate set and is out of reach at these sizes, so the section
   times exactly the work the scaling machinery targets: generation,
   topo construction, the base fixpoint, and the full engine sweep
   (pseudo + higher-order aggressors) at k=5.

   Peak RSS is the process high-water mark, so a budget check is only
   meaningful when this section runs alone:
     bench/main.exe table2x --quick --rss-budget-mb 2048 *)
let run_table2x o =
  let sizes = if o.quick then [ 100_000 ] else [ 100_000; 1_000_000 ] in
  let k = 5 in
  section
    (Printf.sprintf "table2x: synthetic scaling sweep (k=%d, jobs=%d)" k
       (Pool.default_jobs ()));
  Printf.printf "  %9s %9s %9s %7s %7s %7s %9s %8s\n" "nets" "gates"
    "couplings" "gen_s" "topo_s" "fix_s" "sweep_s" "rss_mb";
  let rows =
    List.map
      (fun nets ->
        let spec = T2x.spec ~nets () in
        let t0 = wall () in
        let nl = T2x.generate spec in
        let gen_s = wall () -. t0 in
        let t1 = wall () in
        let topo = Topo.create nl in
        let topo_s = wall () -. t1 in
        let t2 = wall () in
        let fixpoint = Iterate.run topo in
        let fix_s = wall () -. t2 in
        let t3 = wall () in
        let res =
          Engine.compute ~config:(Engine.default_config ~k) ~fixpoint
            ~mode:Engine.Addition topo
        in
        let sweep_s = wall () -. t3 in
        let peak = Rss.peak_bytes () in
        let rss_mb =
          match peak with Some b -> float_of_int b /. 1048576. | None -> Float.nan
        in
        Printf.printf "  %9d %9d %9d %7.2f %7.2f %7.2f %9.2f %8.1f\n%!"
          (N.num_nets nl) (N.num_gates nl) (N.num_couplings nl) gen_s topo_s
          fix_s sweep_s rss_mb;
        J.Obj
          ([
             ("circuit", J.Str spec.T2x.tx_name);
             ("nets", J.Int (N.num_nets nl));
             ("gates", J.Int (N.num_gates nl));
             ("couplings", J.Int (N.num_couplings nl));
             ("k", J.Int k);
             ("gen_s", J.Float gen_s);
             ("topo_s", J.Float topo_s);
             ("fix_s", J.Float fix_s);
             ("sweep_s", J.Float sweep_s);
             ("est_delay_ns", J.Float (Engine.estimated_delay res k));
           ]
          @ match peak with
            | Some b -> [ ("peak_rss_mb", J.Float (float_of_int b /. 1048576.)) ]
            | None -> []))
      sizes
  in
  json_add "table2x" (J.List rows);
  match o.rss_budget_mb with
  | None -> ()
  | Some budget -> (
    match Rss.peak_bytes () with
    | None ->
      Printf.printf "  rss budget: peak RSS unsupported on this platform, skipping check\n%!"
    | Some b ->
      let peak_mb = float_of_int b /. 1048576. in
      let ok = peak_mb <= budget in
      Printf.printf "  rss budget: peak %.1f MB vs budget %.1f MB: %s\n%!" peak_mb
        budget
        (if ok then "ok" else "EXCEEDED");
      if not ok then exit 1)

(* ------------------------------------------------------------------ *)

let () =
  Tka_obs.Log.set_reporter Tka_obs.Log.text_reporter;
  Tka_obs.Log.set_level (Some Tka_obs.Log.Warn);
  Tka_obs.Log.set_from_env ();
  (* an invalid TKA_JOBS would otherwise silently fall through to the
     default pool sizing *)
  (match Pool.env_jobs_error () with
  | Some msg ->
    Printf.eprintf "bench: %s\n" msg;
    exit 2
  | None -> ());
  let runners =
    [
      ("stats", run_stats);
      ("table1", run_table1);
      ("table2a", run_table2 ~mode:Engine.Elimination);
      ("table2b", run_table2 ~mode:Engine.Addition);
      ("figure10", run_figure10);
      ("ablation", run_ablation);
      ("parallel", run_parallel);
      ("table2x", run_table2x);
    ]
  in
  let o = parse_args (List.map fst runners) in
  let t0 = wall () in
  Printf.printf
    "tka benchmark harness — reproduction of 'Top-k Aggressors Sets in Delay \
     Noise Analysis' (DAC 2007)\ncircuits: %s%s\n"
    (String.concat ", " o.circuits)
    (if o.quick then " (quick mode)" else "");
  (* per-section wall times: section-level granularity is what
     bench-diff thresholds *)
  let section_times =
    List.map
      (fun name ->
        let t0 = wall () in
        List.assoc name runners o;
        (name, wall () -. t0))
      o.sections
  in
  let total = wall () -. t0 in
  let doc =
    J.Obj
      ([
         ("suite", J.Str "tka top-k aggressor benchmarks");
         ("quick", J.Bool o.quick);
         ("jobs", J.Int (Pool.default_jobs ()));
         ("circuits", J.List (List.map (fun c -> J.Str c) o.circuits));
         ("sections", J.List (List.map (fun s -> J.Str s) o.sections));
         ( "section_runtime_s",
           J.Obj (List.map (fun (s, t) -> (s, J.Float t)) section_times) );
       ]
      @ !json_out
      @ [ ("total_runtime_s", J.Float total) ])
  in
  J.write_file "BENCH_topk.json" doc;
  Printf.printf "\nwrote BENCH_topk.json\n";
  Printf.printf "total benchmark time: %.1f s\n%!" (wall () -. t0)
