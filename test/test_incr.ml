(* Tests for the incremental ECO re-analysis layer (Tka_incr): the
   content-addressed cache must make re-runs cheap while keeping every
   result bit-identical to a from-scratch analysis — after any edit
   sequence, at any jobs count (the correctness bar of
   docs/incremental.md). *)

module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module B = Tka_layout.Benchmarks
module Cell = Tka_cell.Cell
module Pool = Tka_parallel.Pool
module Engine = Tka_topk.Engine
module Elimination = Tka_topk.Elimination
module CS = Tka_topk.Coupling_set
module Fnv = Tka_incr.Fnv
module Edit = Tka_incr.Edit
module Dirty = Tka_incr.Dirty
module Fingerprint = Tka_incr.Fingerprint
module Cache = Tka_incr.Cache
module Analyzer = Tka_incr.Analyzer
module Eco = Tka_incr.Eco
module Repair = Tka_incr.Repair
module Nf = Tka_circuit.Netlist_format

let at_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* ------------------------------------------------------------------ *)
(* Hashing                                                            *)
(* ------------------------------------------------------------------ *)

let test_fnv () =
  Alcotest.(check bool)
    "float hashing is bit-exact (0. vs -0.)" false
    (Fnv.float Fnv.basis 0. = Fnv.float Fnv.basis (-0.));
  Alcotest.(check bool)
    "string hashing is length-prefixed" false
    (Fnv.string (Fnv.string Fnv.basis "ab") "c"
    = Fnv.string (Fnv.string Fnv.basis "a") "bc");
  Alcotest.(check bool)
    "deterministic" true
    (Fnv.int (Fnv.float Fnv.basis 1.5) 7 = Fnv.int (Fnv.float Fnv.basis 1.5) 7)

let test_fingerprint_stability () =
  let topo = Topo.create (B.tiny ()) in
  let fix = Tka_noise.Iterate.run topo in
  let config = Engine.default_config ~k:4 in
  let fp1 = Fingerprint.compute ~config ~mode:Engine.Elimination ~fix topo in
  let fp2 = Fingerprint.compute ~config ~mode:Engine.Elimination ~fix topo in
  Alcotest.(check bool)
    "same inputs, same signatures" true
    (fp1.Fingerprint.fp_sig = fp2.Fingerprint.fp_sig);
  Alcotest.(check bool)
    "same inputs, same direct hashes" true
    (fp1.Fingerprint.fp_hd = fp2.Fingerprint.fp_hd);
  Alcotest.(check bool)
    "same inputs, same stable coupling names" true
    (fp1.Fingerprint.fp_stable = fp2.Fingerprint.fp_stable);
  let fpa = Fingerprint.compute ~config ~mode:Engine.Addition ~fix topo in
  Alcotest.(check bool)
    "modes keyed apart (config)" false
    (Int64.equal fp1.Fingerprint.fp_cfg fpa.Fingerprint.fp_cfg);
  (* the Elimination signature folds the noisy timing on top of the
     Addition one, so the two can never collide *)
  Alcotest.(check bool)
    "modes keyed apart (signatures)" true
    (Array.for_all2
       (fun a b -> not (Int64.equal a b))
       fp1.Fingerprint.fp_sig fpa.Fingerprint.fp_sig)

(* ------------------------------------------------------------------ *)
(* Edit scripts                                                       *)
(* ------------------------------------------------------------------ *)

let test_edit_remove () =
  let nl = B.tiny () in
  let nc = N.num_couplings nl in
  Alcotest.(check bool) "tiny has couplings" true (nc >= 2);
  let victim = 1 in
  let nl', remap = Edit.apply nl [ Edit.Remove_coupling victim ] in
  Alcotest.(check int) "one fewer coupling" (nc - 1) (N.num_couplings nl');
  Alcotest.(check (option int)) "removed id maps to None" None (remap victim);
  Alcotest.(check (option int)) "out of range maps to None" None (remap nc);
  (* survivors keep their relative order and land densely *)
  let survivor_targets =
    List.init nc (fun c -> remap c) |> List.filter_map Fun.id
  in
  Alcotest.(check (list int))
    "survivors renumbered densely in order"
    (List.init (nc - 1) Fun.id)
    survivor_targets;
  (* net and gate ids are preserved *)
  Alcotest.(check int) "net count" (N.num_nets nl) (N.num_nets nl');
  Array.iter
    (fun (n : N.net) ->
      Alcotest.(check string)
        (Printf.sprintf "net %d name" n.N.net_id)
        n.N.net_name
        (N.net nl' n.N.net_id).N.net_name)
    (N.nets nl)

let test_edit_compose () =
  let nl = B.tiny () in
  let nc = N.num_couplings nl in
  let cap0 = (N.coupling nl 0).N.coupling_cap in
  (* scaling twice multiplies; scaling to zero removes *)
  let nl', remap =
    Edit.apply nl
      [
        Edit.Scale_coupling { coupling = 0; factor = 0.5 };
        Edit.Scale_coupling { coupling = 0; factor = 0.5 };
        Edit.Scale_coupling { coupling = 1; factor = 0. };
      ]
  in
  Alcotest.(check int) "zero-scaled cap removed" (nc - 1) (N.num_couplings nl');
  (match remap 0 with
  | Some c' ->
    Alcotest.(check (float 1e-12))
      "factors compose" (0.25 *. cap0)
      (N.coupling nl' c').N.coupling_cap
  | None -> Alcotest.fail "coupling 0 should survive");
  Alcotest.(check bool) "factor outside [0,1] rejected" true
    (try
       ignore (Edit.apply nl [ Edit.Scale_coupling { coupling = 0; factor = 2. } ]);
       false
     with Invalid_argument _ -> true)

let upsized cell =
  Cell.make ~name:(cell.Cell.name ^ "_x2") ~inputs:cell.Cell.inputs
    ~output:cell.Cell.output ~logic:cell.Cell.logic
    ~intrinsic_delay:cell.Cell.intrinsic_delay
    ~drive_resistance:(0.5 *. cell.Cell.drive_resistance)
    ~intrinsic_slew:cell.Cell.intrinsic_slew
    ~slew_resistance:(0.5 *. cell.Cell.slew_resistance)

let test_edit_resize_touches () =
  let nl = B.tiny () in
  let g = N.gate nl 0 in
  let touched =
    Edit.touched_nets nl [ Edit.Resize_driver { gate = 0; cell = upsized g.N.cell } ]
  in
  Alcotest.(check bool) "output net touched" true (List.mem g.N.fanout touched);
  List.iter
    (fun (_, u) ->
      Alcotest.(check bool)
        (Printf.sprintf "fanin net %d touched" u)
        true (List.mem u touched))
    g.N.fanin

let test_edit_strengthen () =
  let nl = B.tiny () in
  let g = N.gate nl 0 in
  let factor = 1.5 in
  let nl', _ = Edit.apply nl [ Edit.Strengthen_driver { gate = 0; factor } ] in
  let cell0 = g.N.cell and cell' = (N.gate nl' 0).N.cell in
  Alcotest.(check (float 1e-12))
    "drive resistance divided by the factor"
    (cell0.Cell.drive_resistance /. factor)
    cell'.Cell.drive_resistance;
  List.iter2
    (fun p p' ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "input cap of %s scaled up" p.Cell.pin_name)
        (factor *. p.Cell.capacitance)
        p'.Cell.capacitance)
    cell0.Cell.inputs cell'.Cell.inputs;
  (* same footprint as a resize: the load seen by fanin drivers moves *)
  let touched =
    Edit.touched_nets nl [ Edit.Strengthen_driver { gate = 0; factor } ]
  in
  Alcotest.(check bool) "output net touched" true (List.mem g.N.fanout touched);
  List.iter
    (fun (_, u) ->
      Alcotest.(check bool)
        (Printf.sprintf "fanin net %d touched" u)
        true (List.mem u touched))
    g.N.fanin;
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "factor %g rejected" bad)
        true
        (try
           ignore
             (Edit.apply nl [ Edit.Strengthen_driver { gate = 0; factor = bad } ]);
           false
         with Invalid_argument _ -> true))
    [ 0.; -1.; Float.nan; Float.infinity ];
  (* the wire format round-trips every edit kind; strengthen needs no
     cell lookup (the factor is the whole payload) *)
  List.iter
    (fun e ->
      match Edit.of_json ~lookup:(fun _ -> None) (Edit.to_json e) with
      | Ok e' -> Alcotest.(check bool) "edit JSON round-trip" true (e = e')
      | Error m -> Alcotest.failf "edit did not round-trip: %s" m)
    [
      Edit.Remove_coupling 3;
      Edit.Scale_coupling { coupling = 1; factor = 0.25 };
      Edit.Strengthen_driver { gate = 0; factor = 1.5 };
    ]

let test_dirty_closure () =
  let nl = B.c17 () in
  let topo = Topo.create nl in
  let c = N.coupling nl 0 in
  let seeds = [ c.N.net_a; c.N.net_b ] in
  let mark = Dirty.closure topo seeds in
  List.iter
    (fun s -> Alcotest.(check bool) "seed dirty" true mark.(s))
    seeds;
  (* closed under fanout and coupling adjacency *)
  Array.iteri
    (fun v d ->
      if d then begin
        List.iter
          (fun w -> Alcotest.(check bool) "fanout closed" true mark.(w))
          (N.fanout_nets nl v);
        List.iter
          (fun cid ->
            Alcotest.(check bool) "coupling closed" true
              mark.(N.coupling_partner nl cid v))
          (N.couplings_of_net nl v)
      end)
    mark

(* ------------------------------------------------------------------ *)
(* Cache reuse and bit-identity                                       *)
(* ------------------------------------------------------------------ *)

let num_victim_lookups nl = 2 * N.num_nets nl (* both dual modes *)

(* A second run on the same state is answered from its memo, so the
   genuine all-hit re-run — every victim installed from the cache —
   goes through a fresh state over the same cache. *)
let test_second_run_all_hits () =
  let nl = B.tiny () in
  let az = Analyzer.create ~k:4 nl in
  let r1, st1 = Analyzer.run az in
  Alcotest.(check int) "first run misses everywhere"
    (num_victim_lookups nl) st1.Analyzer.rs_misses;
  Alcotest.(check int) "first run has no hits" 0 st1.Analyzer.rs_hits;
  let r2, st2 = Analyzer.run (Analyzer.create ~cache:(Analyzer.cache az) ~k:4 nl) in
  Alcotest.(check bool) "second run is a run" false st2.Analyzer.rs_reused;
  Alcotest.(check int) "second run hits everywhere"
    (num_victim_lookups nl) st2.Analyzer.rs_hits;
  Alcotest.(check int) "second run misses nothing" 0 st2.Analyzer.rs_misses;
  Alcotest.(check bool) "second run bit-identical" true
    (Eco.elim_identical r1 r2);
  let scratch = Elimination.compute ~k:4 (Topo.create nl) in
  Alcotest.(check bool) "cached == from scratch" true
    (Eco.elim_identical scratch r2)

(* The serve memo's exactness rests on this: with no other writer, a
   run moves its cache's generation by exactly its misses (one store
   per missed lookup), cold, warm (+0) and after an edit. *)
let test_generation_steps_by_misses () =
  let step az =
    let cache = Analyzer.cache az in
    let g0 = Cache.generation cache in
    let _, st = Analyzer.run az in
    Alcotest.(check bool) "a run, not a memo answer" false st.Analyzer.rs_reused;
    (Cache.generation cache - g0, st)
  in
  List.iter
    (fun jobs ->
      at_jobs jobs @@ fun () ->
      List.iter
        (fun name ->
          let nl = Option.get (B.by_name name) in
          let az = Analyzer.create ~k:3 nl in
          let label what = Printf.sprintf "%s jobs %d %s" name jobs what in
          let d, st = step az in
          Alcotest.(check int) (label "cold run misses everywhere")
            (num_victim_lookups nl) st.Analyzer.rs_misses;
          Alcotest.(check int) (label "cold run: generation += misses")
            st.Analyzer.rs_misses d;
          let d, st = step (Analyzer.create ~cache:(Analyzer.cache az) ~k:3 nl) in
          Alcotest.(check int) (label "warm run misses nothing") 0 st.Analyzer.rs_misses;
          Alcotest.(check int) (label "warm run: generation += 0") 0 d;
          let az', _ = Analyzer.apply az [ Edit.Remove_coupling 0 ] in
          let d, st = step az' in
          Alcotest.(check bool) (label "edited run hits and misses") true
            (st.Analyzer.rs_hits > 0 && st.Analyzer.rs_misses > 0);
          Alcotest.(check int) (label "edited run: generation += misses")
            st.Analyzer.rs_misses d)
        [ "i1"; "i2"; "i3" ])
    [ 1; 4 ]

let test_edit_reanalysis_identical () =
  let nl = B.c17 () in
  let az = Analyzer.create ~k:4 nl in
  let _ = Analyzer.run az in
  let az', dirty = Analyzer.apply az [ Edit.Remove_coupling 0 ] in
  Alcotest.(check bool) "dirty set non-empty" true (dirty > 0);
  let nl' = Analyzer.netlist az' in
  let incr, st = Analyzer.run az' in
  let scratch = Elimination.compute ~k:4 (Topo.create nl') in
  Alcotest.(check bool) "incremental == scratch after edit" true
    (Eco.elim_identical scratch incr);
  Alcotest.(check int) "every victim looked up"
    (num_victim_lookups nl')
    (st.Analyzer.rs_hits + st.Analyzer.rs_misses);
  (* a genuine all-hit re-run of the edited design installs every
     victim from the populated cache, bit-identically *)
  let warm, st' = Analyzer.run (Analyzer.create ~cache:(Analyzer.cache az') ~k:4 nl') in
  Alcotest.(check int) "all-hit re-run hits everywhere" (num_victim_lookups nl')
    st'.Analyzer.rs_hits;
  Alcotest.(check bool) "all-hit re-run == scratch" true (Eco.elim_identical scratch warm);
  (* apply never mutates its argument: the pre-edit cache still hits
     everywhere on the unedited design *)
  let _, st0 = Analyzer.run (Analyzer.create ~cache:(Analyzer.cache az) ~k:4 nl) in
  Alcotest.(check int) "pre-edit analyzer untouched" (num_victim_lookups nl)
    st0.Analyzer.rs_hits

let test_checkpoint_roundtrip () =
  let nl = B.tiny () in
  let az = Analyzer.create ~k:4 nl in
  let r1, _ = Analyzer.run az in
  let path = Filename.temp_file "tka_incr_test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Analyzer.save_checkpoint az path;
      let az2 = Analyzer.create ~k:4 nl in
      Analyzer.load_checkpoint az2 path;
      Alcotest.(check int) "all records round-trip"
        (Cache.size (Analyzer.cache az))
        (Cache.size (Analyzer.cache az2));
      let r2, st = Analyzer.run az2 in
      Alcotest.(check int) "warm start hits everywhere"
        (num_victim_lookups nl) st.Analyzer.rs_hits;
      Alcotest.(check bool) "warm result bit-identical" true
        (Eco.elim_identical r1 r2);
      (* a foreign checkpoint names a different coupling table, so the
         universe guard flushes it wholesale before the run consults
         anything — results stay correct *)
      let az3 = Analyzer.create ~k:4 (B.c17 ()) in
      Analyzer.load_checkpoint az3 path;
      let r3, _ = Analyzer.run az3 in
      Alcotest.(check bool) "foreign checkpoint still correct" true
        (Eco.elim_identical (Elimination.compute ~k:4 (Topo.create (B.c17 ()))) r3))

(* The id-aliasing trap the universe guard exists for: a checkpoint
   saved after an edit carries coupling ids compacted to the edited
   table. Reloaded against the ORIGINAL design, its key hits would
   silently report sets under the wrong ids — unless the mismatched
   universe flushes the cache first. *)
let test_checkpoint_universe_guard () =
  let nl = B.c17 () in
  let az = Analyzer.create ~k:4 nl in
  let _ = Analyzer.run az in
  let az', _ = Analyzer.apply az [ Edit.Remove_coupling 0 ] in
  let _ = Analyzer.run az' in
  let path = Filename.temp_file "tka_incr_test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Analyzer.save_checkpoint az' path;
      let az2 = Analyzer.create ~k:4 nl in
      Analyzer.load_checkpoint az2 path;
      let r, st = Analyzer.run az2 in
      Alcotest.(check int) "mismatched universe hits nothing" 0
        st.Analyzer.rs_hits;
      Alcotest.(check bool) "results identical after flush" true
        (Eco.elim_identical (Elimination.compute ~k:4 (Topo.create nl)) r))

let test_checkpoint_rejects_garbage () =
  let path = Filename.temp_file "tka_incr_test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"format\":\"something-else\",\"version\":9}\n";
      close_out oc;
      Alcotest.(check bool) "wrong header rejected" true
        (try
           ignore (Cache.load path);
           false
         with Failure _ -> true))

(* Runs of [Analysis.run] (the noiseless STA every fixpoint starts
   from) while [f] runs. *)
let sta_runs f =
  let runs () = Tka_obs.Metrics.Counter.value (Option.get (Tka_obs.Metrics.find_counter "sta.runs")) in
  Tka_obs.Metrics.with_enabled true (fun () ->
      let before = runs () in
      let x = f () in
      (runs () - before, x))

(* A state computes its all-aggressor fixpoint once and hands it to
   every analysis of that state, whatever the filter; a repeated
   analysis is a memo answer that reports an all-hit re-run. *)
let test_one_fixpoint_per_state () =
  let nl = Option.get (B.by_name "i1") in
  let az = Analyzer.create ~k:3 nl in
  let n, (_, (win, _)) =
    sta_runs (fun () ->
        let off = Analyzer.run az in
        (off, Analyzer.run ~filter:Tka_filter.Mode.Window az))
  in
  Alcotest.(check int) "two filters, one fixpoint" 1 n;
  Alcotest.(check bool) "window run identical to scratch" true
    (Eco.elim_identical
       (Elimination.compute ~filter:Tka_filter.Mode.Window ~k:3 (Topo.create nl))
       win);
  (* the window run stored into the cache after the [Off] one, so only
     the window analysis is still current *)
  let n, (again, st) = sta_runs (fun () -> Analyzer.run ~filter:Tka_filter.Mode.Window az) in
  Alcotest.(check int) "repeat runs nothing" 0 n;
  Alcotest.(check bool) "repeat is reused" true st.Analyzer.rs_reused;
  Alcotest.(check bool) "repeat returns the analysis" true (again == win);
  Alcotest.(check int) "repeat reports all hits" (num_victim_lookups nl)
    st.Analyzer.rs_hits;
  (* the loop's three analyses: initial, from scratch, incremental *)
  let n, (r, _) = sta_runs (fun () -> Eco.run ~fix_k:1 (Analyzer.create ~k:5 nl)) in
  Alcotest.(check int) "eco runs three analyses" 3 n;
  Alcotest.(check bool) "eco identical" true r.Eco.eco_identical

let test_eco_loop () =
  let r, _ = Eco.run ~fix_k:1 (Analyzer.create ~k:4 (B.c17 ())) in
  Alcotest.(check bool) "eco re-analyses identical" true r.Eco.eco_identical;
  Alcotest.(check bool) "eco applied an edit" true (r.Eco.eco_edits <> []);
  Alcotest.(check bool) "fix does not worsen delay" true
    (r.Eco.eco_delay_fixed <= r.Eco.eco_delay_noisy +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Repair loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Netlists are compared through their canonical text: two netlists
   that print identically are the same design bit for bit. *)
let same_netlist a b = String.equal (Nf.print a) (Nf.print b)

let in_temp name f =
  let path = Filename.temp_file "tka_repair" name in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_repair_loop () =
  let nl = B.c17 () in
  let report, a', _elim = Repair.run ~k:4 ~fix_k:1 ~budget:3 ~recover:0.5 nl in
  let nl' = Analyzer.netlist a' in
  Alcotest.(check bool)
    "final state identical to scratch" true report.Repair.rp_identical;
  Alcotest.(check bool)
    "repair does not worsen the delay" true
    (report.Repair.rp_final_delay <= report.Repair.rp_initial_delay +. 1e-9);
  (match report.Repair.rp_curve with
  | (0, d0) :: _ ->
    Alcotest.(check (float 0.)) "curve starts at the initial delay"
      report.Repair.rp_initial_delay d0
  | _ -> Alcotest.fail "curve must start at (0, initial delay)");
  Alcotest.(check int)
    "rejected count matches the journal"
    (List.length
       (List.filter (fun e -> not e.Repair.en_accepted) report.Repair.rp_journal))
    report.Repair.rp_rejected;
  Alcotest.(check bool)
    "journal replays to the final netlist" true
    (same_netlist nl' (Repair.replay nl report.Repair.rp_journal))

let test_repair_journal_roundtrip () =
  in_temp ".ndjson" (fun path ->
      let nl = B.c17 () in
      let report, a', _ = Repair.run ~k:4 ~fix_k:1 ~budget:3 ~journal:path nl in
      let nl' = Analyzer.netlist a' in
      match Repair.load_journal ~lookup:(fun _ -> None) path with
      | Error m -> Alcotest.failf "journal did not load back: %s" m
      | Ok entries ->
        Alcotest.(check int)
          "all trials journaled on disk"
          (List.length report.Repair.rp_journal)
          (List.length entries);
        Alcotest.(check bool)
          "loaded journal replays to the final netlist" true
          (same_netlist nl' (Repair.replay nl entries)))

let test_repair_dry_run () =
  in_temp ".ndjson" (fun journal ->
      in_temp ".ckpt" (fun ckpt ->
          (* a pre-existing checkpoint must come through byte-identical:
             dry-run promises no file writes, even of equivalent content *)
          let stale = "not a checkpoint at all\n" in
          Out_channel.with_open_bin ckpt (fun oc -> output_string oc stale);
          let report, _, _ =
            Repair.run ~k:4 ~fix_k:1 ~budget:2 ~dry_run:true ~journal
              ~checkpoint:ckpt (B.c17 ())
          in
          Alcotest.(check bool) "report says dry run" true report.Repair.rp_dry_run;
          Alcotest.(check bool)
            "no journal file written" false (Sys.file_exists journal);
          Alcotest.(check string)
            "checkpoint untouched" stale
            (In_channel.with_open_bin ckpt In_channel.input_all);
          (* Eco.run shares the warm-start step: the stale file is a
             cold start, not an error, and is then replaced by a real
             checkpoint that a rerun warm-starts from *)
          let eco () = fst (Eco.run ~fix_k:1 ~checkpoint:ckpt (Analyzer.create ~k:4 (B.c17 ()))) in
          let cold = eco () in
          Alcotest.(check int)
            "stale checkpoint is a cold start" 0 cold.Eco.eco_before.Analyzer.rs_hits;
          Alcotest.(check bool) "cold eco identical" true cold.Eco.eco_identical;
          let warm = eco () in
          Alcotest.(check bool)
            "rewritten checkpoint warm-starts" true
            (warm.Eco.eco_before.Analyzer.rs_hits > 0);
          Alcotest.(check bool)
            "warm eco picks the same fix" true
            (warm.Eco.eco_rule = cold.Eco.eco_rule
            && Option.equal Tka_topk.Coupling_set.equal warm.Eco.eco_set
                 cold.Eco.eco_set)))

let test_repair_no_mutation () =
  let nl = B.c17 () in
  let before = Nf.print nl in
  (* target already met: the loop must exit immediately, apply nothing
     and hand back the design unchanged *)
  let report, a', _ = Repair.run ~k:4 ~fix_k:1 ~budget:3 ~target_delay:1e9 nl in
  Alcotest.(check bool)
    "already-met target -> Target_met" true
    (report.Repair.rp_outcome = Repair.Target_met);
  Alcotest.(check int) "no edits applied" 0 report.Repair.rp_edits_applied;
  Alcotest.(check bool) "netlist unchanged" true (same_netlist nl (Analyzer.netlist a'));
  Alcotest.(check string) "input netlist not mutated" before (Nf.print nl);
  (* budget 0: every candidate is over budget, nothing may change *)
  let report0, a0, _ = Repair.run ~k:4 ~fix_k:1 ~budget:0 nl in
  Alcotest.(check int) "budget 0 applies nothing" 0 report0.Repair.rp_edits_applied;
  Alcotest.(check bool) "budget 0 leaves the netlist" true
    (same_netlist nl (Analyzer.netlist a0))

(* ------------------------------------------------------------------ *)
(* qcheck: random edit sequences, applied incrementally, at jobs 1/4  *)
(* ------------------------------------------------------------------ *)

(* simple deterministic generator for edit scripts *)
let random_edits nl rand n =
  let nc = N.num_couplings nl in
  let ng = N.num_gates nl in
  List.init n (fun _ ->
      match rand 3 with
      | 0 when nc > 0 -> Edit.Remove_coupling (rand nc)
      | 1 when nc > 0 ->
        Edit.Scale_coupling
          { coupling = rand nc; factor = [| 0.; 0.3; 0.7 |].(rand 3) }
      | _ ->
        let g = N.gate nl (rand ng) in
        Edit.Resize_driver { gate = g.N.gate_id; cell = upsized g.N.cell })

let test_random_edit_sequences =
  QCheck.Test.make
    ~name:"random edit sequence: incremental == scratch (jobs 1 and 4)"
    ~count:4
    QCheck.(pair (int_range 6 12) (int_range 0 10_000))
    (fun (gates, seed) ->
      let spec =
        {
          B.sp_name = "rnd";
          sp_gates = gates;
          sp_inputs = 3;
          sp_depth = 3;
          sp_couplings = 2 * gates;
          sp_seed = seed;
        }
      in
      let nl0 = B.generate spec in
      let st = Random.State.make [| seed; gates |] in
      let rand n = Random.State.int st n in
      (* two successive edit batches so cache remapping is exercised
         repeatedly; state must match a from-scratch run after each *)
      List.for_all
        (fun jobs ->
          at_jobs jobs (fun () ->
              let az = Analyzer.create ~k:4 nl0 in
              let _ = Analyzer.run az in
              let step az =
                let edits = random_edits (Analyzer.netlist az) rand (1 + rand 2) in
                let az', _ = Analyzer.apply az edits in
                let incr, _ = Analyzer.run az' in
                let scratch =
                  Elimination.compute ~k:4 (Topo.create (Analyzer.netlist az'))
                in
                (az', Eco.elim_identical scratch incr)
              in
              let az1, ok1 = step az in
              let _, ok2 = step az1 in
              ok1 && ok2))
        [ 1; 4 ])

let () =
  Alcotest.run "tka_incr"
    [
      ( "hashing",
        [
          Alcotest.test_case "fnv primitives" `Quick test_fnv;
          Alcotest.test_case "fingerprint stability" `Quick
            test_fingerprint_stability;
        ] );
      ( "edits",
        [
          Alcotest.test_case "remove compacts ids" `Quick test_edit_remove;
          Alcotest.test_case "edits compose" `Quick test_edit_compose;
          Alcotest.test_case "resize touches fanin" `Quick
            test_edit_resize_touches;
          Alcotest.test_case "strengthen driver" `Quick test_edit_strengthen;
          Alcotest.test_case "dirty closure" `Quick test_dirty_closure;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second run all hits, identical" `Quick
            test_second_run_all_hits;
          Alcotest.test_case "generation steps by misses" `Quick
            test_generation_steps_by_misses;
          Alcotest.test_case "edit then re-analysis identical" `Quick
            test_edit_reanalysis_identical;
          Alcotest.test_case "checkpoint round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint universe guard" `Quick
            test_checkpoint_universe_guard;
          Alcotest.test_case "checkpoint rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
          Alcotest.test_case "eco loop" `Quick test_eco_loop;
          Alcotest.test_case "one fixpoint per state" `Quick
            test_one_fixpoint_per_state;
        ] );
      ( "repair",
        [
          Alcotest.test_case "loop invariants" `Quick test_repair_loop;
          Alcotest.test_case "journal round-trip" `Quick
            test_repair_journal_roundtrip;
          Alcotest.test_case "dry run writes nothing" `Quick test_repair_dry_run;
          Alcotest.test_case "no mutation without budget or need" `Quick
            test_repair_no_mutation;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest test_random_edit_sequences ] );
    ]
