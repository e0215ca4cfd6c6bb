(* Scaling sweep over table2x circuits: generate synthetic designs at
   several sizes, run the base fixpoint plus the engine's addition-mode
   sweep on each, and print runtime and peak-RSS curves — the data
   behind the "scaling" section of docs/performance.md and the
   [table2x] bench section.

     dune exec examples/scale_sweep.exe                # 20k 50k 100k
     dune exec examples/scale_sweep.exe -- 100000 1000000
     TKA_JOBS=8 dune exec examples/scale_sweep.exe -- 200000

   Optional flags: [-k <int>] sweep cardinality (default 5). *)

module T2x = Tka_layout.Table2x
module Topo = Tka_circuit.Topo
module N = Tka_circuit.Netlist
module Engine = Tka_topk.Engine
module Iterate = Tka_noise.Iterate
module Rss = Tka_prof.Rss

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run ~k ~pseudo ~higher nets =
  let spec = T2x.spec ~nets () in
  let nl, gen_s = time (fun () -> T2x.generate spec) in
  let topo, topo_s = time (fun () -> Topo.create nl) in
  let fix, fix_s = time (fun () -> Iterate.run topo) in
  let config =
    { (Engine.default_config ~k) with use_pseudo = pseudo; use_higher_order = higher }
  in
  let res, sweep_s =
    time (fun () -> Engine.compute ~config ~fixpoint:fix ~mode:Engine.Addition topo)
  in
  let rss_mb =
    match Rss.peak_bytes () with
    | Some b -> Printf.sprintf "%8.1f" (float_of_int b /. 1048576.)
    | None -> "     n/a"
  in
  Printf.printf "%9d %9d %9d %7.2f %7.2f %7.2f %8.2f %s %8.4f\n%!"
    (N.num_nets nl) (N.num_gates nl) (N.num_couplings nl) gen_s topo_s fix_s
    sweep_s rss_mb
    (Engine.estimated_delay res k)

let () =
  let sizes = ref [] in
  let k = ref 5 in
  let pseudo = ref true and higher = ref true in
  let rec parse = function
    | [] -> ()
    | "-k" :: v :: tl ->
      k := int_of_string v;
      parse tl
    | "--no-pseudo" :: tl ->
      pseudo := false;
      parse tl
    | "--no-higher" :: tl ->
      higher := false;
      parse tl
    | v :: tl ->
      sizes := int_of_string v :: !sizes;
      parse tl
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sizes =
    match List.rev !sizes with [] -> [ 20_000; 50_000; 100_000 ] | s -> s
  in
  Printf.printf
    "# table2x scaling sweep: k=%d jobs=%d (peak RSS is cumulative across rows)\n"
    !k
    (Tka_parallel.Pool.default_jobs ());
  Printf.printf "%9s %9s %9s %7s %7s %7s %8s %8s %8s\n" "nets" "gates"
    "couplings" "gen_s" "topo_s" "fix_s" "sweep_s" "rss_mb" "est_ns";
  List.iter (fun nets -> run ~k:!k ~pseudo:!pseudo ~higher:!higher nets) sizes
