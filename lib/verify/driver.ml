module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Nf = Tka_circuit.Netlist_format
module CS = Tka_topk.Coupling_set
module Rng = Tka_util.Rng
module Edit = Tka_incr.Edit
module Lib = Tka_cell.Default_lib
module Log = Tka_obs.Log
module Trace = Tka_obs.Trace
module J = Tka_obs.Jsonx

let log_src = Log.Src.create "verify" ~doc:"differential verification loop"

type summary = {
  vs_trials : int;
  vs_oracle : int;
  vs_fuzz : int;
  vs_skipped : int;
  vs_failures : Repro.t list;
  vs_elapsed_s : float;
}

(* --------------------------------------------------------------- *)
(* Minimization helpers                                            *)
(* --------------------------------------------------------------- *)

(* Rebuild [nl] keeping only the couplings in [keep] (ids refer to the
   original netlist). *)
let restrict_couplings nl keep =
  let drop =
    List.init (N.num_couplings nl) Fun.id
    |> List.filter (fun c -> not (List.mem c keep))
  in
  match Edit.apply nl (List.map (fun c -> Edit.Remove_coupling c) drop) with
  | nl', _map -> Some nl'
  | exception _ -> None

(* ddmin over the coupling list: the smallest set of couplings on
   which [fails] still holds. [fails] must treat its own exceptions. *)
let minimize_couplings ~fails nl =
  let test keep =
    match restrict_couplings nl keep with
    | Some nl' -> ( try fails nl' with _ -> false)
    | None -> false
  in
  let kept = Minimize.ddmin test (List.init (N.num_couplings nl) Fun.id) in
  match restrict_couplings nl kept with Some nl' -> nl' | None -> nl

(* --------------------------------------------------------------- *)
(* Trial families                                                  *)
(* --------------------------------------------------------------- *)

type ctx = {
  cx_seed : int;
  cx_minimize : bool;
  mutable cx_oracle : int;
  mutable cx_fuzz : int;
  mutable cx_skipped : int;
  mutable cx_failures : Repro.t list;
}

let record cx ~trial ~invariant ~detail ?k ?netlist ?set ?edits ?input () =
  Log.warn log_src (fun m ->
      m
        ~fields:[ Log.str "invariant" invariant; Log.int "trial" trial ]
        "defect found by trial %d (%s): %s" trial invariant detail);
  cx.cx_failures <-
    {
      Repro.rp_invariant = invariant;
      rp_seed = cx.cx_seed;
      rp_trial = trial;
      rp_detail = detail;
      rp_k = k;
      rp_netlist = netlist;
      rp_set = set;
      rp_edits = Option.map (List.map Repro.spec_of_edit) edits;
      rp_input = input;
    }
    :: cx.cx_failures

let fail_detail = function Oracle.Fail d -> Some d | Oracle.Pass | Oracle.Skip _ -> None

let trial_brute cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.small_circuit rng in
  let k = Rng.int_in rng 1 3 in
  (* a short per-run budget: the loop must not stall on one instance *)
  let check nl = Oracle.brute ~budget_s:20. ~k (Topo.create nl) in
  match check nl with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let nl =
      if cx.cx_minimize then
        minimize_couplings ~fails:(fun nl -> fail_detail (check nl) <> None) nl
      else nl
    in
    let detail = Option.value ~default:detail (fail_detail (check nl)) in
    record cx ~trial ~invariant:"brute" ~detail ~k ~netlist:(Nf.print nl) ()

let trial_duality cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.medium_circuit rng in
  let topo = Topo.create nl in
  let u = 2 * N.num_couplings nl in
  if u = 0 then cx.cx_skipped <- cx.cx_skipped + 1
  else begin
    let s = List.filter (fun _ -> Rng.bool rng) (List.init u Fun.id) in
    let check s = Oracle.duality ~set:(CS.of_list s) topo in
    match check s with
    | Oracle.Pass -> ()
    | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
    | Oracle.Fail detail ->
      let s =
        if cx.cx_minimize then
          Minimize.ddmin (fun s -> fail_detail (check s) <> None) s
        else s
      in
      let detail = Option.value ~default:detail (fail_detail (check s)) in
      record cx ~trial ~invariant:"duality" ~detail ~netlist:(Nf.print nl)
        ~set:s ()
  end

let trial_jobs cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.medium_circuit rng in
  let k = Rng.int_in rng 2 4 in
  let check nl = Oracle.jobs ~k (Topo.create nl) in
  match check nl with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let nl =
      if cx.cx_minimize then
        minimize_couplings ~fails:(fun nl -> fail_detail (check nl) <> None) nl
      else nl
    in
    let detail = Option.value ~default:detail (fail_detail (check nl)) in
    record cx ~trial ~invariant:"jobs" ~detail ~k ~netlist:(Nf.print nl) ()

let trial_incr cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.medium_circuit rng in
  let k = Rng.int_in rng 2 4 in
  let edits = Gen.edits rng nl in
  let check edits = Oracle.incremental ~k nl edits in
  match check edits with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let edits =
      if cx.cx_minimize then
        Minimize.ddmin (fun es -> fail_detail (check es) <> None) edits
      else edits
    in
    let detail = Option.value ~default:detail (fail_detail (check edits)) in
    record cx ~trial ~invariant:"incr" ~detail ~k ~netlist:(Nf.print nl) ~edits
      ()

let trial_repair cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.medium_circuit rng in
  let k = Rng.int_in rng 2 4 in
  let budget = Rng.int_in rng 1 3 in
  let check nl = Oracle.repair ~budget ~k nl in
  match check nl with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let nl =
      if cx.cx_minimize then
        minimize_couplings ~fails:(fun nl -> fail_detail (check nl) <> None) nl
      else nl
    in
    let detail = Option.value ~default:detail (fail_detail (check nl)) in
    record cx ~trial ~invariant:"repair" ~detail ~k ~netlist:(Nf.print nl) ()

let trial_filter cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  (* alternate small and medium circuits: small ones keep the exhaustive
     logic-certificate simulation cheap, medium ones exercise the window
     geometry on deeper cones *)
  let nl =
    if Rng.bool rng then Gen.small_circuit rng else Gen.medium_circuit rng
  in
  let k = Rng.int_in rng 1 4 in
  let check nl = Oracle.filter_consistency ~k (Topo.create nl) in
  match check nl with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let nl =
      if cx.cx_minimize then
        minimize_couplings ~fails:(fun nl -> fail_detail (check nl) <> None) nl
      else nl
    in
    let detail = Option.value ~default:detail (fail_detail (check nl)) in
    record cx ~trial ~invariant:"filter" ~detail ~k ~netlist:(Nf.print nl) ()

let trial_rerank cx rng trial =
  cx.cx_oracle <- cx.cx_oracle + 1;
  let nl = Gen.medium_circuit rng in
  let k = Rng.int_in rng 1 4 in
  let check nl = Oracle.rerank ~k (Topo.create nl) in
  match check nl with
  | Oracle.Pass -> ()
  | Oracle.Skip _ -> cx.cx_skipped <- cx.cx_skipped + 1
  | Oracle.Fail detail ->
    let nl =
      if cx.cx_minimize then
        minimize_couplings ~fails:(fun nl -> fail_detail (check nl) <> None) nl
      else nl
    in
    let detail = Option.value ~default:detail (fail_detail (check nl)) in
    record cx ~trial ~invariant:"rerank" ~detail ~k ~netlist:(Nf.print nl) ()

let trial_fuzz cx rng trial =
  cx.cx_fuzz <- cx.cx_fuzz + 1;
  let fmt = Rng.pick_list rng Fuzz.all in
  let src = Fuzz.mutate rng (Fuzz.generate rng fmt) in
  match Fuzz.check fmt src with
  | None -> ()
  | Some detail ->
    let src =
      if cx.cx_minimize then
        Minimize.lines (fun s -> Fuzz.check fmt s <> None) src
      else src
    in
    let detail = Option.value ~default:detail (Fuzz.check fmt src) in
    record cx ~trial ~invariant:("fuzz_" ^ Fuzz.name fmt) ~detail ~input:src ()

(* --------------------------------------------------------------- *)
(* The loop                                                        *)
(* --------------------------------------------------------------- *)

let run ?(seed = 1) ?(trials = 500) ?(budget_s = infinity) ?(minimize = true)
    ?(progress = fun _ _ -> ()) () =
  Trace.with_span ~cat:"verify"
    ~args:[ ("seed", J.Int seed); ("trials", J.Int trials) ]
    "verify.run"
  @@ fun () ->
  let wall = Tka_obs.Clock.now_s in
  let t0 = wall () in
  let cx =
    {
      cx_seed = seed;
      cx_minimize = minimize;
      cx_oracle = 0;
      cx_fuzz = 0;
      cx_skipped = 0;
      cx_failures = [];
    }
  in
  let master = Rng.create seed in
  let trial = ref 0 in
  while !trial < trials && wall () -. t0 < budget_s do
    let rng = Rng.split master in
    (* one fuzz slot per eight trials: the fuzzer is orders of
       magnitude cheaper than an oracle trial, so it still dominates in
       count when a budget is set *)
    let family, body =
      match !trial mod 8 with
      | 0 -> ("brute", trial_brute)
      | 1 -> ("duality", trial_duality)
      | 2 -> ("jobs", trial_jobs)
      | 3 -> ("incr", trial_incr)
      | 4 -> ("repair", trial_repair)
      | 5 -> ("filter", trial_filter)
      | 6 -> ("rerank", trial_rerank)
      | _ -> ("fuzz", trial_fuzz)
    in
    Trace.with_span ~cat:"verify"
      ~args:[ ("trial", J.Int !trial); ("family", J.Str family) ]
      "verify.trial"
      (fun () -> body cx rng !trial);
    incr trial;
    progress !trial trials
  done;
  let s =
    {
      vs_trials = !trial;
      vs_oracle = cx.cx_oracle;
      vs_fuzz = cx.cx_fuzz;
      vs_skipped = cx.cx_skipped;
      vs_failures = List.rev cx.cx_failures;
      vs_elapsed_s = wall () -. t0;
    }
  in
  Log.info log_src (fun m ->
      m
        ~fields:
          [
            Log.int "trials" s.vs_trials;
            Log.int "failures" (List.length s.vs_failures);
            Log.float "elapsed_s" s.vs_elapsed_s;
          ]
        "verification loop done: %d trial(s), %d failure(s)" s.vs_trials
        (List.length s.vs_failures));
  s

(* --------------------------------------------------------------- *)
(* Replay                                                          *)
(* --------------------------------------------------------------- *)

type replay_outcome = Reproduced of string | Passed | Skipped of string

let of_verdict = function
  | Oracle.Pass -> Passed
  | Oracle.Skip why -> Skipped why
  | Oracle.Fail detail -> Reproduced detail

let replay (r : Repro.t) =
  let broken detail = Reproduced ("cannot replay: " ^ detail) in
  let with_netlist f =
    match r.Repro.rp_netlist with
    | None -> broken "reproducer carries no netlist"
    | Some src -> (
      match Nf.parse ~lookup:Lib.find src with
      | nl -> f nl
      | exception e ->
        broken ("embedded netlist does not parse: " ^ Printexc.to_string e))
  in
  let k = Option.value ~default:1 r.Repro.rp_k in
  match r.Repro.rp_invariant with
  | "brute" -> with_netlist (fun nl -> of_verdict (Oracle.brute ~k (Topo.create nl)))
  | "duality" -> (
    match r.Repro.rp_set with
    | None -> broken "duality reproducer carries no set"
    | Some s ->
      with_netlist (fun nl ->
          of_verdict (Oracle.duality ~set:(CS.of_list s) (Topo.create nl))))
  | "jobs" -> with_netlist (fun nl -> of_verdict (Oracle.jobs ~k (Topo.create nl)))
  | "rerank" -> with_netlist (fun nl -> of_verdict (Oracle.rerank ~k (Topo.create nl)))
  | "filter" ->
    with_netlist (fun nl ->
        of_verdict (Oracle.filter_consistency ~k (Topo.create nl)))
  | "incr" -> (
    match r.Repro.rp_edits with
    | None -> broken "incr reproducer carries no edit script"
    | Some specs -> (
      match
        List.map
          (fun spec ->
            match Repro.edit_of_spec spec with
            | Some e -> e
            | None -> raise Exit)
          specs
      with
      | edits -> with_netlist (fun nl -> of_verdict (Oracle.incremental ~k nl edits))
      | exception Exit -> broken "edit script names an unknown cell"))
  | inv when String.length inv > 5 && String.sub inv 0 5 = "fuzz_" -> (
    match (Fuzz.of_name (String.sub inv 5 (String.length inv - 5)), r.Repro.rp_input) with
    | None, _ -> broken ("unknown fuzz format in invariant " ^ inv)
    | _, None -> broken "fuzz reproducer carries no input"
    | Some fmt, Some input -> (
      match Fuzz.check fmt input with
      | None -> Passed
      | Some detail -> Reproduced detail))
  | inv -> broken ("unknown invariant " ^ inv)
