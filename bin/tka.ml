(* tka — command-line front end for the top-k aggressor analysis stack.

   Subcommands:
     tka gen      generate a benchmark circuit (netlist / SPEF / DOT)
     tka info     netlist statistics
     tka sta      static timing analysis and critical path
     tka noise    iterative crosstalk noise analysis
     tka topk     top-k aggressor addition / elimination sets
     tka liberty  dump the built-in cell library *)

open Cmdliner

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Nf = Tka_circuit.Netlist_format
module Spef = Tka_circuit.Spef_lite
module Dot = Tka_circuit.Dot
module Stats = Tka_circuit.Circuit_stats
module Lib = Tka_cell.Default_lib
module Liberty = Tka_cell.Liberty_lite
module Analysis = Tka_sta.Analysis
module CP = Tka_sta.Critical_path
module Iterate = Tka_noise.Iterate
module B = Tka_layout.Benchmarks
module Elimination = Tka_topk.Elimination
module Refine = Tka_topk.Refine
module Report = Tka_topk.Report
module Fmode = Tka_filter.Mode
module Filter = Tka_filter.Filter

module Log = Tka_obs.Log
module Metrics = Tka_obs.Metrics
module Trace = Tka_obs.Trace

(* ------------------------------------------------------------------ *)
(* Observability flags (shared by every subcommand)                   *)
(* ------------------------------------------------------------------ *)

type obs = {
  ob_verbose : bool;
  ob_log_level : string option;
  ob_log_json : string option;
  ob_metrics_out : string option;
  ob_trace_out : string option;
  ob_jobs : int option;
}

let obs_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Enable informational logging (level info).")
  in
  let log_level =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"SPEC"
          ~doc:
            "Log level directives: a level ($(b,error), $(b,warn), $(b,info), \
             $(b,debug), $(b,quiet)) and/or per-source overrides, e.g. \
             $(b,info,engine=debug). Overrides $(b,TKA_LOG) and \
             $(b,--verbose).")
  in
  let log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:"Also write every log event as NDJSON to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Enable the metrics registry and dump it as JSON to $(docv) when \
             the command finishes.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable span tracing and dump a Chrome-trace (trace_event) JSON \
             file to $(docv) when the command finishes (load it at \
             chrome://tracing or ui.perfetto.dev).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~env:(Cmd.Env.info "TKA_JOBS")
          ~doc:
            "Worker domains for the parallel engine sweep and brute-force \
             baseline (default: the machine's recommended domain count minus \
             one, at least 1). $(b,--jobs 1) forces the purely sequential \
             path; results are identical at any value.")
  in
  let make ob_verbose ob_log_level ob_log_json ob_metrics_out ob_trace_out
      ob_jobs =
    {
      ob_verbose;
      ob_log_level;
      ob_log_json;
      ob_metrics_out;
      ob_trace_out;
      ob_jobs;
    }
  in
  Term.(
    const make $ verbose $ log_level $ log_json $ metrics_out $ trace_out
    $ jobs)

(* Every dump flag ([--log-json], [--metrics-out], [--trace-out],
   [--json]) accepts [-] for stdout; real paths get their parent
   directories created up front so a dump-at-exit cannot fail on a
   fresh output tree. *)
let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let prepare_out path = if path <> "-" then mkdirs (Filename.dirname path)

(* dump a JSON document honouring the [-] convention *)
let emit_json path json =
  if path = "-" then print_endline (Tka_obs.Jsonx.to_string_pretty json)
  else begin
    prepare_out path;
    Tka_obs.Jsonx.write_file path json
  end

(* The text report's printf: silent when the [--json] report goes to
   stdout, so that stdout holds the JSON alone. *)
let report_printf json fmt =
  if json = Some "-" then Printf.ifprintf stdout fmt else Printf.printf fmt

(* dump plain text honouring the same convention *)
let emit_text path text =
  if path = "-" then print_string text
  else begin
    prepare_out path;
    let oc = open_out path in
    output_string oc text;
    close_out oc
  end

(* Configure the observability stack, run [f], then dump the requested
   metrics/trace files: also on exceptions, and also when [f] calls
   [exit] with a failure code (which skips [Fun.protect]'s [finally] but
   runs [at_exit] handlers). *)
let with_obs o f =
  (match o.ob_jobs with
  | None -> ()
  | Some j when j >= 1 -> Tka_parallel.Pool.set_default_jobs j
  | Some j ->
    Printf.eprintf "tka: --jobs must be >= 1 (got %d)\n" j;
    exit 2);
  Log.set_level (Some (if o.ob_verbose then Log.Info else Log.Warn));
  Log.set_from_env ();
  (match o.ob_log_level with
  | None -> ()
  | Some spec -> (
    match Log.set_from_string spec with
    | Ok () -> ()
    | Error m ->
      Printf.eprintf "tka: bad --log-level: %s\n" m;
      exit 2));
  let open_or_die path =
    if path = "-" then stdout
    else begin
      prepare_out path;
      try open_out path
      with Sys_error m ->
        Printf.eprintf "tka: cannot open --log-json file: %s\n" m;
        exit 2
    end
  in
  let log_oc = Option.map open_or_die o.ob_log_json in
  let reporters =
    Log.text_reporter
    :: (match log_oc with Some oc -> [ Log.ndjson_reporter oc ] | None -> [])
  in
  Log.set_reporter (Log.multi_reporter reporters);
  if o.ob_metrics_out <> None then Metrics.set_enabled true;
  if o.ob_trace_out <> None then Trace.set_enabled true;
  let write_failed = ref false and dumped = ref false in
  let finally () =
    if not !dumped then begin
      dumped := true;
      let write path json =
        try emit_json path (json ())
        with Sys_error m ->
          write_failed := true;
          Printf.eprintf "tka: cannot write %s: %s\n" path m
      in
      Option.iter
        (fun path -> write path (fun () -> Metrics.to_json ()))
        o.ob_metrics_out;
      Option.iter (fun path -> write path Trace.to_json) o.ob_trace_out;
      Option.iter (fun oc -> if oc != stdout then close_out oc) log_oc
    end
  in
  at_exit finally;
  let v = Fun.protect ~finally f in
  if !write_failed then exit 1;
  v

let liberty_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "liberty" ] ~docv:"FILE"
        ~doc:"Cell library in Liberty-lite format (default: built-in tka013).")

let lookup_of_liberty = function
  | None -> Lib.find
  | Some path ->
    let lib = Liberty.parse_file path in
    fun name -> Liberty.find lib name

let corner_arg =
  Arg.(
    value
    & opt (enum [ ("tt", Tka_cell.Corner.typical); ("ss", Tka_cell.Corner.slow);
                  ("ff", Tka_cell.Corner.fast) ])
        Tka_cell.Corner.typical
    & info [ "corner" ] ~docv:"CORNER"
        ~doc:"PVT corner to analyse at: $(b,tt) (default), $(b,ss), $(b,ff).")

let apply_corner corner nl =
  if corner.Tka_cell.Corner.corner_name = Tka_cell.Corner.typical.Tka_cell.Corner.corner_name
  then nl
  else
    Tka_circuit.Transform.map
      ~cell_of:(fun g -> Tka_cell.Corner.derate_cell corner g.N.cell)
      nl

let netlist_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NETLIST" ~doc:"Input netlist in tka text format.")

module V = Tka_circuit.Verilog_lite

(* pick a parser by extension: .v structural Verilog, else tka text *)
let load ~liberty path =
  let lookup = lookup_of_liberty liberty in
  if Filename.check_suffix path ".v" then V.parse_file ~lookup path
  else Nf.parse_file ~lookup path

(* An input or usage error ends the command with one line on stderr and
   exit [code]. *)
let exit_on_error code f =
  let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit code) fmt in
  try f () with
  | Tka_util.Scan.Parse_error { source; line; message } ->
    die "%s parse error, line %d: %s" source line message
  | N.Link_error { source; message } -> die "%s link error: %s" source message
  | Tka_circuit.Builder.Invalid m -> die "invalid netlist: %s" m
  | Tka_obs.Jsonx.Parse_error m -> die "json parse error: %s" m
  | Sys_error m | Failure m | Invalid_argument m -> die "error: %s" m

let run_obs obs f = with_obs obs (fun () -> exit_on_error 1 f)

(* ------------------------------------------------------------------ *)
(* gen                                                                *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let bench =
    Arg.(
      value & opt string "i1"
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:
            "Benchmark to generate: i1..i10, tiny, c17, or a table2x \
             scaling circuit (t2x-100k, t2x-1m, t2x-<nets>).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the netlist here (default stdout).")
  in
  let spef =
    Arg.(
      value & opt (some string) None
      & info [ "spef" ] ~docv:"FILE" ~doc:"Also dump parasitics in SPEF-lite format.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also dump a Graphviz rendering.")
  in
  let verilog =
    Arg.(
      value & flag
      & info [ "verilog" ] ~doc:"Emit structural Verilog instead of the tka text format.")
  in
  let run obs bench out spef dot verilog =
    run_obs obs (fun () ->
        let nl =
          if bench = "tiny" then B.tiny ()
          else if bench = "c17" then B.c17 ()
          else
            match B.by_name bench with
            | Some nl -> nl
            | None -> (
              match Tka_layout.Table2x.by_name bench with
              | Some nl -> nl
              | None -> failwith (Printf.sprintf "unknown benchmark %S" bench))
        in
        let render, write =
          if verilog then (V.print, V.write_file) else (Nf.print, Nf.write_file)
        in
        (match out with
        | Some path when path <> "-" ->
          prepare_out path;
          write nl path
        | Some _ | None -> print_string (render nl));
        Option.iter (fun path -> emit_text path (Spef.print nl)) spef;
        Option.iter (fun path -> emit_text path (Dot.render nl)) dot)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark circuit.")
    Term.(const run $ obs_term $ bench $ out $ spef $ dot $ verilog)

(* ------------------------------------------------------------------ *)
(* info                                                               *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run obs liberty path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        Format.printf "%a@." Stats.pp (Stats.compute nl))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print netlist statistics.")
    Term.(const run $ obs_term $ liberty_arg $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* sta                                                                *)
(* ------------------------------------------------------------------ *)

let sta_cmd =
  let paths =
    Arg.(
      value & opt int 1
      & info [ "paths" ] ~docv:"N" ~doc:"Report the N worst near-critical paths.")
  in
  let clock =
    Arg.(
      value & opt (some float) None
      & info [ "clock" ] ~docv:"NS"
          ~doc:"Clock period; when given, required times and slacks are reported.")
  in
  let run obs liberty corner n clock path =
    run_obs obs (fun () ->
        let nl = apply_corner corner (load ~liberty path) in
        let topo = Topo.create nl in
        let a = Analysis.run topo in
        Printf.printf "circuit delay (noiseless): %.4f ns\n" (Analysis.circuit_delay a);
        Printf.printf "worst output: %s\n"
          (N.net nl (Analysis.worst_output a)).N.net_name;
        let constraints =
          Option.map
            (fun period ->
              let c = Tka_sta.Constraints.create ~clock_period:period a in
              Printf.printf "clock period:  %.4f ns\n" period;
              Printf.printf "worst slack:   %.4f ns\n"
                (Tka_sta.Constraints.worst_slack c);
              Printf.printf "violations:    %d net(s)\n"
                (List.length (Tka_sta.Constraints.violations c));
              c)
            clock
        in
        let paths =
          if n <= 1 then [ CP.worst a ] else CP.near_critical ~limit:n a
        in
        List.iteri
          (fun i p ->
            Printf.printf "path %d:\n%s" (i + 1)
              (Tka_sta.Report_timing.path ?constraints a p))
          paths)
  in
  Cmd.v
    (Cmd.info "sta" ~doc:"Static timing analysis without noise.")
    Term.(
      const run $ obs_term $ liberty_arg $ corner_arg $ paths $ clock
      $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* noise                                                              *)
(* ------------------------------------------------------------------ *)

let noise_cmd =
  let worst =
    Arg.(
      value & opt int 5
      & info [ "worst" ] ~docv:"N" ~doc:"List the N nets with the most delay noise.")
  in
  let breakdown =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:"Also show the per-aggressor breakdown of the noisiest nets.")
  in
  let show_path =
    Arg.(
      value & flag
      & info [ "path" ] ~doc:"Show the noisy critical path with per-stage noise.")
  in
  let run obs liberty corner worst breakdown show_path path =
    run_obs obs (fun () ->
        let nl = apply_corner corner (load ~liberty path) in
        let topo = Topo.create nl in
        let r = Iterate.run topo in
        Printf.printf "noiseless delay: %.4f ns\n" (Iterate.noiseless_delay r);
        Printf.printf "noisy delay:     %.4f ns (+%.4f)\n" (Iterate.circuit_delay r)
          (Iterate.total_delay_noise r);
        Printf.printf "iterations:      %d (%sconverged)\n" r.Iterate.iterations
          (if r.Iterate.converged then "" else "NOT ");
        if show_path then
          print_string (Tka_noise.Path_noise.render nl (Tka_noise.Path_noise.worst_path r));
        if breakdown then
          List.iter
            (fun rep -> print_string (Tka_noise.Xtalk_report.render nl rep))
            (Tka_noise.Xtalk_report.worst_victims ~count:worst r)
        else begin
          let noisiest =
            List.init (N.num_nets nl) (fun v -> (v, Iterate.net_noise r v))
            |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
            |> List.filteri (fun i _ -> i < worst)
          in
          Printf.printf "noisiest nets:\n";
          List.iter
            (fun (v, d) ->
              if d > 0. then
                Printf.printf "  %-12s %.4f ns\n" (N.net nl v).N.net_name d)
            noisiest
        end)
  in
  Cmd.v
    (Cmd.info "noise" ~doc:"Iterative crosstalk delay-noise analysis.")
    Term.(
      const run $ obs_term $ liberty_arg $ corner_arg $ worst $ breakdown
      $ show_path $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* topk                                                               *)
(* ------------------------------------------------------------------ *)

(* Shared by topk and repair; the serve protocol accepts the same
   names ("none" also spelled "off"). *)
let filter_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("none", Fmode.Off); ("window", Fmode.Window); ("logic", Fmode.Logic);
           ])
        Fmode.Off
    & info [ "filter" ] ~docv:"FILTER"
        ~doc:
          "Aggressor candidate pre-filter: $(b,none) (bit-identical to no \
           filtering), $(b,window) (drop aggressors whose pulse provably \
           cannot reach the victim's sensitive interval, de-rate partial \
           overlaps), or $(b,logic) (window plus logical-correlation \
           pruning). See docs/filtering.md.")

let mode_arg ?(doc = "$(b,add) or $(b,elim).") default =
  Arg.(
    value
    & opt (enum Tka_topk.Engine.mode_names) default
    & info [ "mode" ] ~docv:"MODE" ~doc)

let topk_cmd =
  let k =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Set cardinality bound.")
  in
  let mode =
    mode_arg Tka_topk.Engine.Addition
      ~doc:"$(b,add) for the addition set, $(b,elim) for the elimination set."
  in
  let run obs liberty k mode filter path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let topo = Topo.create nl in
        let ks = List.filter (fun i -> i <= k) [ 1; 2; 3; 5; 10; 20; 50 ] @ [ k ]
                 |> List.sort_uniq Int.compare in
        print_string (Report.topk nl (Refine.compute ~mode ~filter ~k topo) ~ks))
  in
  Cmd.v
    (Cmd.info "topk"
       ~doc:"Compute top-k aggressor addition or elimination sets.")
    Term.(
      const run $ obs_term $ liberty_arg $ k $ mode $ filter_arg $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* falseagg                                                           *)
(* ------------------------------------------------------------------ *)

let falseagg_cmd =
  let run obs liberty path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let topo = Topo.create nl in
        (* the window filter's own decisions on the noiseless base
           windows: one sensitive interval, one soundness argument *)
        let filt =
          Filter.prepare ~mode:Fmode.Window
            ~windows:(Analysis.window (Analysis.run topo)) topo
        in
        let directed =
          List.concat_map (Tka_noise.Coupled_noise.aggressors_of_victim nl)
            (List.init (N.num_nets nl) Fun.id)
        in
        let inert =
          List.filter
            (fun d ->
              match Filter.decide filt d with
              | Filter.Drop Filter.Window_disjoint -> true
              | Filter.Keep | Filter.Derate _ | Filter.Drop _ -> false)
            directed
        in
        let n = List.length directed and n_inert = List.length inert in
        Printf.printf
          "directed couplings: %d live, %d window-inert (%.1f%% prunable)\n"
          (n - n_inert) n_inert
          (if n = 0 then 0. else 100. *. float_of_int n_inert /. float_of_int n);
        List.iteri
          (fun i d ->
            if i < 10 then
              Printf.printf "  inert: %s -> %s\n"
                (N.net nl d.Tka_noise.Coupled_noise.dc_aggressor).N.net_name
                (N.net nl d.Tka_noise.Coupled_noise.dc_victim).N.net_name)
          inert)
  in
  Cmd.v
    (Cmd.info "falseagg"
       ~doc:
         "List window-inert aggressors: couplings the window filter drops \
          because the aggressor's pulse cannot reach the victim's \
          sensitive interval.")
    Term.(const run $ obs_term $ liberty_arg $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* glitch                                                             *)
(* ------------------------------------------------------------------ *)

let glitch_cmd =
  let margin =
    Arg.(
      value & opt float Tka_noise.Glitch.default_margin
      & info [ "margin" ] ~docv:"VDD" ~doc:"DC noise margin in Vdd units.")
  in
  let run obs liberty margin path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let topo = Topo.create nl in
        let v = Tka_noise.Glitch.check ~margin topo in
        Printf.printf "%d net(s) over the %.2f Vdd glitch margin\n" (List.length v)
          margin;
        List.iter
          (fun x -> Format.printf "  %a@." (Tka_noise.Glitch.pp_violation nl) x)
          v)
  in
  Cmd.v
    (Cmd.info "glitch" ~doc:"Functional (glitch) noise screening.")
    Term.(const run $ obs_term $ liberty_arg $ margin $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* kvalue                                                             *)
(* ------------------------------------------------------------------ *)

let kvalue_cmd =
  let coverage =
    Arg.(
      value & opt float 0.8
      & info [ "coverage" ] ~docv:"FRAC"
          ~doc:"Noise fraction the recommended k must capture/recover.")
  in
  let kmax =
    Arg.(value & opt int 30 & info [ "kmax" ] ~docv:"K" ~doc:"Largest k to explore.")
  in
  let mode = mode_arg Tka_topk.Engine.Addition in
  let run obs liberty coverage kmax mode path =
    run_obs obs (fun () ->
        let topo = Topo.create (load ~liberty path) in
        let module Kv = Tka_topk.K_value in
        let r = Kv.recommend ~coverage ~kmax ~mode topo in
        Printf.printf "k,delay_ns,noise_fraction\n";
        List.iter
          (fun p ->
            Printf.printf "%d,%.4f,%.3f\n" p.Kv.kv_k p.Kv.kv_delay p.Kv.kv_fraction)
          r.Kv.kv_curve;
        (match r.Kv.kv_coverage_k with
        | Some k -> Printf.printf "smallest k reaching %.0f%% coverage: %d\n" (coverage *. 100.) k
        | None ->
          Printf.printf "no sampled k reaches %.0f%% coverage (try a larger --kmax)\n"
            (coverage *. 100.));
        Printf.printf "diminishing-returns knee: k = %d\n" r.Kv.kv_knee_k)
  in
  Cmd.v
    (Cmd.info "kvalue"
       ~doc:"Recommend a good k (coverage + knee of the top-k curve).")
    Term.(const run $ obs_term $ liberty_arg $ coverage $ kmax $ mode $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* sdf                                                                *)
(* ------------------------------------------------------------------ *)

let sdf_cmd =
  let noisy =
    Arg.(
      value & flag
      & info [ "noisy" ]
          ~doc:"Fold crosstalk delay noise into the exported arc delays.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write here (default stdout).")
  in
  let run obs liberty noisy out path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let topo = Topo.create nl in
        let delay_of =
          if noisy then begin
            let r = Iterate.run topo in
            fun (g : N.gate) ->
              Tka_sta.Delay_calc.stage_delay nl g.N.gate_id
              +. Iterate.net_noise r g.N.fanout
          end
          else fun (g : N.gate) -> Tka_sta.Delay_calc.stage_delay nl g.N.gate_id
        in
        match out with
        | Some p -> emit_text p (Tka_circuit.Sdf_lite.print ~delay_of nl)
        | None -> print_string (Tka_circuit.Sdf_lite.print ~delay_of nl))
  in
  Cmd.v
    (Cmd.info "sdf" ~doc:"Export IOPATH delays in SDF-lite (optionally noisy).")
    Term.(const run $ obs_term $ liberty_arg $ noisy $ out $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* sensitivity                                                        *)
(* ------------------------------------------------------------------ *)

let sensitivity_cmd =
  let k = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Set cardinality.") in
  let trials =
    Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc:"Perturbed trials.")
  in
  let noise =
    Arg.(
      value & opt float 0.15
      & info [ "extraction-error" ] ~docv:"FRAC"
          ~doc:"Uniform coupling-cap perturbation bound (0.15 = ±15%).")
  in
  let mode = mode_arg Tka_topk.Engine.Elimination in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let run obs liberty k trials noise mode seed path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let rng = Tka_util.Rng.create seed in
        let module S = Tka_topk.Sensitivity in
        let r = S.assess ~trials ~noise_pct:noise ~mode ~rng ~k nl in
        Printf.printf
          "top-%d set stability under ±%.0f%% extraction error (%d trials):\n" k
          (noise *. 100.) trials;
        Printf.printf "  Jaccard vs nominal: mean %.2f, min %.2f\n"
          r.S.sr_jaccard_mean r.S.sr_jaccard_min;
        let lo, hi = r.S.sr_delay_spread in
        Printf.printf "  evaluated delay spread: %.4f .. %.4f ns\n" lo hi;
        Printf.printf "  robust core (%d of %d couplings chosen in every trial):\n"
          (Tka_topk.Coupling_set.cardinality r.S.sr_always_chosen)
          k;
        List.iter print_endline
          (Tka_topk.Report.set_lines nl r.S.sr_always_chosen))
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Robustness of the top-k set to coupling-extraction error.")
    Term.(
      const run $ obs_term $ liberty_arg $ k $ trials $ noise $ mode $ seed
      $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let before_pos =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"BEFORE" ~doc:"Netlist before the change.")
  in
  let after_pos =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"AFTER" ~doc:"Netlist after the change.")
  in
  let run obs liberty before after =
    run_obs obs (fun () ->
        let analyse path =
          let nl = load ~liberty path in
          let r = Iterate.run (Topo.create nl) in
          (nl, r)
        in
        let nl1, r1 = analyse before in
        let nl2, r2 = analyse after in
        Printf.printf "%-24s %12s %12s %10s\n" "" "before" "after" "delta";
        let row label f1 f2 =
          Printf.printf "%-24s %12.4f %12.4f %+10.4f\n" label f1 f2 (f2 -. f1)
        in
        row "noiseless delay (ns)" (Iterate.noiseless_delay r1)
          (Iterate.noiseless_delay r2);
        row "noisy delay (ns)" (Iterate.circuit_delay r1) (Iterate.circuit_delay r2);
        row "total delay noise (ns)" (Iterate.total_delay_noise r1)
          (Iterate.total_delay_noise r2);
        Printf.printf "%-24s %12d %12d %+10d\n" "coupling caps"
          (N.num_couplings nl1) (N.num_couplings nl2)
          (N.num_couplings nl2 - N.num_couplings nl1))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare timing and noise of two netlists (before/after a fix).")
    Term.(const run $ obs_term $ liberty_arg $ before_pos $ after_pos)

(* ------------------------------------------------------------------ *)
(* eco                                                                *)
(* ------------------------------------------------------------------ *)

let eco_cmd =
  let module Eco = Tka_incr.Eco in
  let module Analyzer = Tka_incr.Analyzer in
  let k =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Set cardinality bound.")
  in
  let fix_k =
    Arg.(
      value & opt int 1
      & info [ "fix-k" ] ~docv:"N"
          ~doc:"Cardinality of the elimination set applied as the mitigation edit.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Result-cache checkpoint (NDJSON): loaded before the analysis when \
             it exists (warm start) and saved right after the initial \
             analysis, so a second invocation on the same design reuses \
             every clean victim.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON ($(b,-) for stdout).")
  in
  let fixed_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the mitigated netlist here (tka text format).")
  in
  let run obs liberty k fix_k checkpoint json fixed_out path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let r, fixed = Eco.run ~fix_k ?checkpoint (Analyzer.create ~k nl) in
        let printf fmt = report_printf json fmt in
        printf "circuit %s: ECO loop, fix top-%d of k=%d\n" r.Eco.eco_design fix_k k;
        (match r.Eco.eco_set with
        | None -> printf "  no elimination candidates; nothing to fix\n"
        | Some s ->
          printf "  removing %d coupling(s):\n%s\n"
            (List.length r.Eco.eco_edits)
            (Tka_topk.Coupling_set.describe nl s));
        if r.Eco.eco_edits <> [] then
          printf "  noisy delay %.4f ns -> %.4f ns after fix\n" r.Eco.eco_delay_noisy
            r.Eco.eco_delay_fixed;
        Option.iter
          (fun v ->
            printf "  re-verify: full %.3f s, incremental %.3f s (%.1fx speedup)\n"
              v.Eco.v_t_full_s v.Eco.v_t_incr_s v.Eco.v_speedup)
          r.Eco.eco_verify;
        if r.Eco.eco_edits <> [] then
          printf "  dirty nets %d, cache hits %d, misses %d\n" r.Eco.eco_dirty_nets
            r.Eco.eco_after.Analyzer.rs_hits r.Eco.eco_after.Analyzer.rs_misses;
        if r.Eco.eco_before.Analyzer.rs_hits > 0 then
          printf "  warm start: initial analysis reused %d victims\n"
            r.Eco.eco_before.Analyzer.rs_hits;
        Option.iter
          (fun v ->
            printf "  incremental results identical: %s\n"
              (if v.Eco.v_identical then "yes" else "NO"))
          r.Eco.eco_verify;
        printf "  fix rule: %s\n" (Eco.rule_name r.Eco.eco_rule);
        Option.iter (fun path -> emit_json path (Eco.report_json r)) json;
        Option.iter
          (fun path -> emit_text path (Nf.print (Analyzer.netlist fixed)))
          fixed_out;
        (match r.Eco.eco_verify with
        | Some { Eco.v_identical = false; _ } -> exit 1
        | Some _ | None -> ());
        (* a None/None outcome used to be indistinguishable from an
           empty fix — make "no fix set exists" a hard failure *)
        if r.Eco.eco_rule = Eco.Rule_none then exit 2)
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Run the full fix loop: top-k elimination analysis, apply the top set \
          as a shielding edit, and incrementally re-verify the improvement \
          (bit-identical to a from-scratch re-run, but cached).")
    Term.(
      const run $ obs_term $ liberty_arg $ k $ fix_k $ checkpoint $ json
      $ fixed_out $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* repair                                                             *)
(* ------------------------------------------------------------------ *)

let repair_cmd =
  let module Repair = Tka_incr.Repair in
  let k =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Set cardinality bound.")
  in
  let fix_k =
    Arg.(
      value & opt int 1
      & info [ "fix-k" ] ~docv:"N"
          ~doc:"Cardinality of the elimination set each candidate edit targets.")
  in
  let budget =
    Arg.(
      value & opt int 10
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum individual edits to apply across the whole loop.")
  in
  let target_ns =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-ns" ] ~docv:"NS"
          ~doc:
            "Absolute circuit-delay target in ns; the loop stops once the \
             all-aggressor delay is at or below it. Overrides $(b,--recover).")
  in
  let recover =
    Arg.(
      value & opt float 0.5
      & info [ "recover" ] ~docv:"FRAC"
          ~doc:
            "Fraction of the total delay noise to recover (in [0,1]) when no \
             $(b,--target-ns) is given: target = initial - FRAC * (initial - \
             noiseless).")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Run the full loop and report, but write neither the journal nor \
             the checkpoint file.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write the repair journal (NDJSON, one accepted/rejected trial \
             per line) here, incrementally as the loop runs.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Result-cache checkpoint (NDJSON): loaded when it exists (warm \
             start), re-saved after the initial analysis and after every \
             accepted edit, so an interrupted repair resumes warm.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON ($(b,-) for stdout).")
  in
  let fixed_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the repaired netlist here (tka text format).")
  in
  let run obs liberty k fix_k budget filter target_ns recover dry_run journal
      checkpoint json fixed_out path =
    run_obs obs (fun () ->
        let nl = load ~liberty path in
        let report, repaired, _elim =
          Repair.run ~k ~fix_k ~budget ~filter ?target_delay:target_ns ~recover
            ~dry_run ?journal ?checkpoint nl
        in
        let r = report in
        let printf fmt = report_printf json fmt in
        printf "circuit %s: repair loop, k=%d fix_k=%d budget=%d%s\n"
          r.Repair.rp_circuit k fix_k budget
          (if dry_run then " (dry run)" else "");
        printf "  target %.4f ns (noiseless %.4f, initial %.4f)\n"
          r.Repair.rp_target_delay r.Repair.rp_noiseless_delay
          r.Repair.rp_initial_delay;
        List.iter
          (fun e ->
            printf "  iter %d %-10s %-8s %2d edit(s)  %.4f -> %.4f ns\n"
              e.Repair.en_iter
              (Repair.move_name e.Repair.en_move)
              (if e.Repair.en_accepted then "ACCEPT" else "reject")
              (List.length e.Repair.en_edits)
              e.Repair.en_delay_before e.Repair.en_delay_after)
          r.Repair.rp_journal;
        printf
          "  outcome %s: %d edit(s) in %d iteration(s), %d rejected\n"
          (Repair.outcome_name r.Repair.rp_outcome)
          r.Repair.rp_edits_applied r.Repair.rp_iterations r.Repair.rp_rejected;
        printf "  delay %.4f -> %.4f ns (%.1f ps recovered)\n"
          r.Repair.rp_initial_delay r.Repair.rp_final_delay
          ((r.Repair.rp_initial_delay -. r.Repair.rp_final_delay) *. 1000.);
        printf "  final state identical to scratch re-analysis: %s\n"
          (if r.Repair.rp_identical then "yes" else "NO");
        Option.iter (fun p -> emit_json p (Repair.report_json r)) json;
        Option.iter
          (fun p -> emit_text p (Nf.print (Tka_incr.Analyzer.netlist repaired)))
          fixed_out;
        if not r.Repair.rp_identical then exit 1;
        if r.Repair.rp_outcome <> Repair.Target_met then exit 4)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Autonomous ECO repair: iterate top-k elimination, synthesize \
          shielding/spacing/driver-strengthening candidate edits, apply the \
          best through the incremental analyzer (rolling back candidates \
          that regress the delay), until a delay target is met or the edit \
          budget is exhausted. Exits 0 only when the target is met and the \
          final state is bit-identical to a scratch re-analysis.")
    Term.(
      const run $ obs_term $ liberty_arg $ k $ fix_k $ budget $ filter_arg
      $ target_ns $ recover $ dry_run $ journal $ checkpoint $ json
      $ fixed_out $ netlist_pos)

(* ------------------------------------------------------------------ *)
(* verify                                                             *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let module Driver = Tka_verify.Driver in
  let module Repro = Tka_verify.Repro in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master RNG seed.")
  in
  let trials =
    Arg.(
      value & opt int 500
      & info [ "trials" ] ~docv:"N" ~doc:"Number of trials to run.")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:"Stop starting new trials after this much wall time.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Skip delta-debug minimization of failing instances.")
  in
  let out =
    Arg.(
      value & opt string "tka-reproducers.ndjson"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Where to dump NDJSON reproducers when defects are found (the \
             file is only written on failure).")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of running new trials, re-execute every reproducer in \
             this NDJSON file (as written by a failing run).")
  in
  let run_replay path =
    match Repro.load path with
    | Error m -> failwith m
    | Ok rs ->
      let still = ref 0 in
      List.iteri
        (fun i r ->
          let tag = Printf.sprintf "[%d] %s" (i + 1) r.Repro.rp_invariant in
          match Driver.replay r with
          | Driver.Passed -> Printf.printf "%s: now passes\n" tag
          | Driver.Skipped why -> Printf.printf "%s: skipped (%s)\n" tag why
          | Driver.Reproduced detail ->
            incr still;
            Printf.printf "%s: STILL FAILING: %s\n" tag detail)
        rs;
      Printf.printf "%d reproducer(s), %d still failing\n" (List.length rs)
        !still;
      if !still > 0 then exit 1
  in
  let run obs seed trials budget no_minimize out replay =
    run_obs obs (fun () ->
        match replay with
        | Some path -> run_replay path
        | None ->
          let s =
            Driver.run ~seed ~trials ?budget_s:budget
              ~minimize:(not no_minimize) ()
          in
          Printf.printf
            "verify: %d trial(s) in %.1f s (%d oracle, %d fuzz, %d skipped), seed %d\n"
            s.Driver.vs_trials s.Driver.vs_elapsed_s s.Driver.vs_oracle
            s.Driver.vs_fuzz s.Driver.vs_skipped seed;
          (match s.Driver.vs_failures with
          | [] -> Printf.printf "no invariant violations found\n"
          | failures ->
            prepare_out out;
            Repro.save out failures;
            Printf.printf "%d DEFECT(S) FOUND — reproducers written to %s\n"
              (List.length failures) out;
            List.iter
              (fun r ->
                Printf.printf "  trial %d %s: %s\n" r.Repro.rp_trial
                  r.Repro.rp_invariant r.Repro.rp_detail)
              failures;
            exit 1))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differential self-verification: random circuits through the \
          brute-force, duality, determinism and incremental oracles, plus \
          mutation fuzzing of the text-format parsers.")
    Term.(
      const run $ obs_term $ seed $ trials $ budget $ no_minimize $ out
      $ replay)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let module P = Tka_prof.Profile in
  let trace_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Analyse this Chrome-trace dump (as written by \
             $(b,--trace-out)) instead of running an analysis inline.")
  in
  let k =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"Set cardinality bound.")
  in
  let mode =
    mode_arg Tka_topk.Engine.Elimination
      ~doc:"Analysis to profile inline: $(b,add) or $(b,elim) (default)."
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows in the slowest-victims and allocation tables.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON ($(b,-) for stdout).")
  in
  let netlist_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST"
          ~doc:"Netlist to analyse inline (omit when using $(b,--trace)).")
  in
  let run obs liberty trace_in k mode top json path =
    run_obs obs (fun () ->
        let spans =
          match (trace_in, path) with
          | Some f, _ -> P.of_trace_file f
          | None, Some nlpath ->
            let nl = load ~liberty nlpath in
            let topo = Topo.create nl in
            (* record the analysis whether or not --trace-out is given;
               an outer dump still sees these spans *)
            Trace.set_enabled true;
            ignore (Refine.compute ~mode ~k topo);
            Trace.spans ()
          | None, None ->
            failwith "profile needs a NETLIST to run, or --trace FILE to ingest"
        in
        let r = P.analyze ~top spans in
        (match json with
        | Some path -> emit_json path (P.to_json r)
        | None -> ());
        if json <> Some "-" then print_string (P.render r))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Trace analytics: self/total time per span, slowest victims with \
          prune attribution, and GC-allocation hotspots — from a trace dump \
          or an inline run.")
    Term.(
      const run $ obs_term $ liberty_arg $ trace_in $ k $ mode $ top $ json
      $ netlist_opt)

(* ------------------------------------------------------------------ *)
(* bench-diff                                                         *)
(* ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let module Bd = Tka_prof.Bench_diff in
  let base_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASE"
          ~doc:"Baseline bench file: one JSON document, as \
                $(b,bench/main.exe) writes to $(b,BENCH_topk.json).")
  in
  let new_pos =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Bench file to compare against the baseline.")
  in
  let threshold =
    Arg.(
      value
      & opt float 0.20
      & info [ "threshold" ] ~docv:"FRAC"
          ~doc:
            "Relative regression threshold (0.20 = flag changes beyond \
             ±20%).")
  in
  let min_seconds =
    Arg.(
      value
      & opt float Bd.default_min_seconds
      & info [ "min-seconds" ] ~docv:"S"
          ~doc:
            "Noise floor: timing metrics below this in both files are \
             skipped.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the comparison as JSON ($(b,-) for stdout).")
  in
  let run obs base next threshold min_seconds json =
    run_obs obs (fun () ->
        if not (threshold > 0.) then failwith "--threshold must be > 0";
        (* an unreadable or malformed input is exit 2, a regression exit 1 *)
        let load path = exit_on_error 2 (fun () -> Tka_obs.Jsonx.read_file path) in
        let r = Bd.compare_docs ~threshold ~min_seconds (load base) (load next) in
        (match json with
        | Some path -> emit_json path (Bd.to_json r)
        | None -> ());
        if json <> Some "-" then print_string (Bd.render r);
        if Bd.has_regressions r then exit 1)
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two benchmark result files and fail (exit 1) on \
          performance regressions beyond a noise threshold; an unreadable \
          or malformed file exits 2.")
    Term.(
      const run $ obs_term $ base_pos $ new_pos $ threshold $ min_seconds
      $ json)

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

module Server = Tka_serve.Server
module Client = Tka_serve.Client
module J = Tka_obs.Jsonx

let default_socket = "/tmp/tka-serve.sock"

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default $(b,/tmp/tka-serve.sock)).")

let serve_cmd =
  let tcp =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Also listen on 127.0.0.1:$(docv) (the Unix socket stays on).")
  in
  let max_inflight =
    Arg.(
      value & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Analysis requests executing at once (default: the domain-pool \
             jobs count).")
  in
  let max_queue =
    Arg.(
      value & opt (some int) None
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Analysis requests allowed to wait for a slot before new \
             arrivals get an $(b,overloaded) reply (default 32).")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-s" ] ~docv:"S"
          ~doc:
            "Queue-wait deadline: a request still queued after $(docv) \
             seconds gets a $(b,timeout) reply (default 30).")
  in
  let max_designs =
    Arg.(
      value & opt (some int) None
      & info [ "max-designs" ] ~docv:"N"
          ~doc:
            "Shared victim caches kept across sessions; least recently \
             attached designs are evicted beyond this (default 64).")
  in
  let default_k =
    Arg.(
      value & opt int 10
      & info [ "k" ] ~docv:"K"
          ~doc:"Default set-cardinality bound for sessions that load without one.")
  in
  let run obs liberty socket tcp max_inflight max_queue deadline_s max_designs
      default_k =
    run_obs obs (fun () ->
        let lookup = lookup_of_liberty liberty in
        (* a daemon always keeps its metrics registry live: the
           [metrics] RPC is its observability surface whether or not a
           [--metrics-out] dump was requested (span tracing stays
           opt-in via [--trace-out]: spans accumulate unboundedly in a
           long-lived process) *)
        Metrics.set_enabled true;
        let srv =
          Server.create ?max_inflight ?max_queue ?deadline_s ?max_designs
            ~default_k ~lookup ()
        in
        (* a client vanishing mid-reply must not kill the daemon *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let request_stop _ = Server.stop srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        let listeners =
          Server.listen_unix socket
          :: (match tcp with Some port -> [ Server.listen_tcp ~port ] | None -> [])
        in
        Printf.printf "tka serve: listening on %s%s (pid %d)\n%!" socket
          (match tcp with
          | Some port -> Printf.sprintf " and 127.0.0.1:%d" port
          | None -> "")
          (Unix.getpid ());
        Server.serve srv ~listeners;
        Printf.printf "tka serve: stopped\n%!")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived analysis daemon: NDJSON-RPC over a Unix-domain \
          (and optionally TCP) socket, concurrent sessions multiplexed onto \
          the shared domain pool, cross-session victim-cache sharing by \
          design fingerprint, and bounded admission control.")
    Term.(
      const run $ obs_term $ liberty_arg $ socket_arg $ tcp $ max_inflight
      $ max_queue $ deadline $ max_designs $ default_k)

(* ------------------------------------------------------------------ *)
(* client                                                             *)
(* ------------------------------------------------------------------ *)

type client_action =
  | A_ping
  | A_info
  | A_stats
  | A_metrics
  | A_shutdown
  | A_analyze of string option  (* mode: "add" | "elim" *)
  | A_eco of int  (* fix_k *)
  | A_repair of int  (* edit budget *)
  | A_whatif of int list  (* couplings to remove *)

let parse_action s =
  let fail () =
    failwith
      (Printf.sprintf
         "unknown action %S (expected ping, info, stats, metrics, shutdown, \
          analyze[:add|:elim], eco[:FIXK], repair[:BUDGET] or \
          whatif:remove=ID[,ID...])"
         s)
  in
  match String.index_opt s ':' with
  | None -> (
    match s with
    | "ping" -> A_ping
    | "info" -> A_info
    | "stats" -> A_stats
    | "metrics" -> A_metrics
    | "shutdown" -> A_shutdown
    | "analyze" -> A_analyze None
    | "eco" -> A_eco 1
    | "repair" -> A_repair 10
    | _ -> fail ())
  | Some i -> (
    let verb = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match verb with
    | "analyze" when arg = "add" || arg = "elim" -> A_analyze (Some arg)
    | "eco" -> (
      match int_of_string_opt arg with Some n -> A_eco n | None -> fail ())
    | "repair" -> (
      match int_of_string_opt arg with Some n -> A_repair n | None -> fail ())
    | "whatif" -> (
      match String.split_on_char '=' arg with
      | [ "remove"; ids ] ->
        A_whatif
          (List.map
             (fun x ->
               match int_of_string_opt (String.trim x) with
               | Some c -> c
               | None -> fail ())
             (String.split_on_char ',' ids))
      | _ -> fail ())
    | _ -> fail ())

let client_cmd =
  let tcp =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Connect to 127.0.0.1:$(docv) instead of the Unix socket.")
  in
  let design =
    Arg.(
      value & opt (some file) None
      & info [ "design" ] ~docv:"NETLIST"
          ~doc:"Load this netlist into the session before running the actions.")
  in
  let k =
    Arg.(
      value & opt (some int) None
      & info [ "k" ] ~docv:"K" ~doc:"Set cardinality bound for $(b,--design).")
  in
  let filter =
    Arg.(
      value & opt (some string) None
      & info [ "filter" ] ~docv:"FILTER"
          ~doc:
            "Aggressor pre-filter for $(b,analyze), $(b,whatif) and \
             $(b,repair) actions ($(b,none), $(b,window) or $(b,logic)). \
             Sent verbatim; the server rejects unknown names with \
             $(b,bad_request).")
  in
  let actions =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ACTION"
          ~doc:
            "Actions to run in order over one connection (one session): \
             $(b,ping), $(b,info), $(b,stats), $(b,metrics), $(b,shutdown), \
             $(b,analyze)[:add|:elim], $(b,eco)[:FIXK], $(b,repair)[:BUDGET], \
             $(b,whatif:remove=ID,ID...).")
  in
  let run obs socket tcp design k filter actions =
    run_obs obs (fun () ->
        let actions = List.map parse_action actions in
        let filter_param =
          match filter with
          | None -> []
          | Some f -> [ ("filter", J.Str f) ]
        in
        if actions = [] && design = None then
          failwith "nothing to do: give at least one ACTION (or --design)";
        let c =
          match tcp with
          | Some port -> Client.connect_tcp ~host:"127.0.0.1" ~port
          | None -> Client.connect_unix socket
        in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let call meth params =
              match Client.call c ~meth ~params () with
              | Ok result -> result
              | Error (code, msg) ->
                failwith
                  (Printf.sprintf "%s failed (%s): %s" meth
                     (Tka_serve.Proto.code_to_string code)
                     msg)
            in
            (match design with
            | None -> ()
            | Some path ->
              let body =
                In_channel.with_open_bin path In_channel.input_all
              in
              let params =
                ("netlist", J.Str body)
                :: (match k with Some k -> [ ("k", J.Int k) ] | None -> [])
              in
              print_endline (J.to_string_pretty (call "load" (J.Obj params))));
            List.iter
              (fun action ->
                let meth, params =
                  match action with
                  | A_ping -> ("ping", J.Obj [])
                  | A_info -> ("info", J.Obj [])
                  | A_stats -> ("stats", J.Obj [])
                  | A_metrics -> ("metrics", J.Obj [])
                  | A_shutdown -> ("shutdown", J.Obj [])
                  | A_analyze mode ->
                    ( "analyze",
                      J.Obj
                        ((match mode with
                         | Some m -> [ ("mode", J.Str m) ]
                         | None -> [])
                        @ filter_param) )
                  | A_eco fix_k -> ("eco", J.Obj [ ("fix_k", J.Int fix_k) ])
                  | A_repair budget ->
                    ("repair", J.Obj (("budget", J.Int budget) :: filter_param))
                  | A_whatif couplings ->
                    ( "whatif",
                      J.Obj
                        (( "edits",
                           J.List
                             (List.map
                                (fun cid ->
                                  J.Obj
                                    [
                                      ("op", J.Str "remove_coupling");
                                      ("coupling", J.Int cid);
                                    ])
                                couplings) )
                        :: filter_param) )
                in
                let result = call meth params in
                match (action, J.member "body" result) with
                (* metrics: print the Prometheus exposition itself *)
                | A_metrics, Some (J.Str body) -> print_string body
                | _ -> print_endline (J.to_string_pretty result))
              actions))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,tka serve) daemon: load a design and run \
          analyze / what-if / ECO / metrics actions over one session.")
    Term.(
      const run $ obs_term $ socket_arg $ tcp $ design $ k $ filter $ actions)

(* ------------------------------------------------------------------ *)
(* liberty                                                            *)
(* ------------------------------------------------------------------ *)

let liberty_cmd =
  let run () = print_string (Lib.to_liberty ()) in
  Cmd.v
    (Cmd.info "liberty" ~doc:"Dump the built-in tka013 cell library.")
    Term.(const run $ const ())

let () =
  let doc = "top-k aggressor sets in crosstalk delay noise analysis" in
  let info = Cmd.info "tka" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; info_cmd; sta_cmd; noise_cmd; topk_cmd; glitch_cmd;
            falseagg_cmd; kvalue_cmd; sensitivity_cmd; compare_cmd; sdf_cmd;
            eco_cmd; repair_cmd; verify_cmd; profile_cmd; bench_diff_cmd;
            serve_cmd;
            client_cmd; liberty_cmd;
          ]))
