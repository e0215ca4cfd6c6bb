module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Analysis = Tka_sta.Analysis
module Delay_calc = Tka_sta.Delay_calc
module Iterate = Tka_noise.Iterate
module Engine = Tka_topk.Engine

type t = {
  fp_cfg : Fnv.t;
  fp_sig : Fnv.t array;
  fp_hd : Fnv.t array;
  fp_stable : Fnv.t array;
}

(* Bump when the hash inputs or the cached-record layout change: stale
   on-disk checkpoints then miss instead of corrupting results.
   v3: filter mode folded into the config hash, per-net implication
   values folded into signatures under logic filtering. *)
let version_salt = "tka-incr-v3"

let window h (w : TW.t) =
  let h = Fnv.float h w.TW.eat in
  let h = Fnv.float h w.TW.lat in
  let h = Fnv.float h w.TW.slew_early in
  Fnv.float h w.TW.slew_late

let config_hash ~(config : Engine.config) ~mode =
  let h = Fnv.string Fnv.basis version_salt in
  let h = Fnv.int h (Engine.mode_tag mode) in
  let h = Fnv.int h config.Engine.k in
  let h = Fnv.int h config.Engine.capacity in
  let h = Fnv.bool h config.Engine.use_pseudo in
  let h = Fnv.bool h config.Engine.use_higher_order in
  Fnv.int h (Tka_filter.Mode.to_int config.Engine.filter)

(* Content-stable names for directed couplings: victim/aggressor nets,
   capacitance bits and an occurrence rank among parallel same-cap
   couplings of the same net pair (ranked in id order, which
   Transform.map preserves). Invariant under the id compaction a
   removal causes, so summary values hash identically across edits.
   The directed convention matches Coupled_noise: side 0 attacks the
   lower-numbered net. *)
let stable_ids nl =
  let nc = N.num_couplings nl in
  let seen : (int * int * int64, int) Hashtbl.t = Hashtbl.create (2 * nc) in
  let out = Array.make (2 * nc) Fnv.basis in
  for cid = 0 to nc - 1 do
    let c = N.coupling nl cid in
    let lo = min c.N.net_a c.N.net_b and hi = max c.N.net_a c.N.net_b in
    let bits = Int64.bits_of_float c.N.coupling_cap in
    let key = (lo, hi, bits) in
    let rank = Option.value (Hashtbl.find_opt seen key) ~default:0 in
    Hashtbl.replace seen key (rank + 1);
    let h = Fnv.int (Fnv.int Fnv.basis lo) hi in
    let h = Fnv.int64 h bits in
    let h = Fnv.int h rank in
    out.((2 * cid) + 0) <- Fnv.int h 0;
    out.((2 * cid) + 1) <- Fnv.int h 1
  done;
  out

(* Hash of the coupling table itself — which physical cap each id
   names. Cached values carry raw directed ids, so they may only be
   interpreted against the exact universe they were stored under. *)
let universe nl =
  let nc = N.num_couplings nl in
  let h = Fnv.int Fnv.basis nc in
  let h = ref h in
  for cid = 0 to nc - 1 do
    let c = N.coupling nl cid in
    let lo = min c.N.net_a c.N.net_b and hi = max c.N.net_a c.N.net_b in
    h := Fnv.float (Fnv.int (Fnv.int !h lo) hi) c.N.coupling_cap
  done;
  !h

let compute ~config ~mode ~fix topo =
  let nl = Topo.netlist topo in
  let nn = N.num_nets nl in
  let base_w = Analysis.window fix.Iterate.base in
  let noisy_w = Analysis.window fix.Iterate.analysis in
  let cfg = config_hash ~config ~mode in
  (* Under logic filtering a victim's enumeration also reads the
     implication values of itself and its aggressors — global facts
     about the fanin logic that a remote edit (e.g. a cell swap deep
     upstream) can change without touching this net's electrical
     signature or windows. Folding each net's own implication value
     into its signature makes such edits miss instead of replaying a
     cached result that was filtered under stale logic. *)
  let impl =
    match config.Engine.filter with
    | Tka_filter.Mode.Logic -> Some (Tka_filter.Implication.analyze topo)
    | Tka_filter.Mode.Off | Tka_filter.Mode.Window -> None
  in
  let impl_hash h v =
    match impl with
    | None -> h
    | Some values -> (
        match values.(v) with
        | Tka_filter.Implication.Const b -> Fnv.bool (Fnv.int h 0xC0) b
        | Tka_filter.Implication.Fn { root; at0; at1 } ->
          Fnv.bool (Fnv.bool (Fnv.int (Fnv.int h 0xC1) root) at0) at1
        | Tka_filter.Implication.Mixed -> Fnv.int h 0xC2)
  in
  (* Electrical signature: everything the enumeration reads about the
     net itself (as a victim or as a directly-enumerated aggressor).
     Addition never reads the noisy timing — it aligns aggressors in
     noiseless windows — so its signature stops at the base window and
     survives the noisy-window ripple an ECO edit causes. *)
  let signature v =
    let n = N.net nl v in
    let h = Fnv.int Fnv.basis v in
    let h = Fnv.float h n.N.wire_cap in
    let h = Fnv.float h n.N.wire_res in
    let h = Fnv.float h (N.ground_cap nl v) in
    let h = Fnv.float h (N.total_cap nl v) in
    let h = Fnv.float h (Delay_calc.holding_resistance nl v) in
    let h = Fnv.bool h n.N.is_output in
    let h =
      match N.driver_gate nl v with
      | None -> Fnv.int h (-1)
      | Some g ->
        let c = g.N.cell in
        let h = Fnv.string h c.Tka_cell.Cell.name in
        let h = Fnv.float h c.Tka_cell.Cell.intrinsic_delay in
        let h = Fnv.float h c.Tka_cell.Cell.drive_resistance in
        let h = Fnv.float h c.Tka_cell.Cell.intrinsic_slew in
        let h = Fnv.float h c.Tka_cell.Cell.slew_resistance in
        let h = Fnv.float h (Delay_calc.stage_delay nl g.N.gate_id) in
        List.fold_left
          (fun h (pin, u) -> Fnv.int (Fnv.string h pin) u)
          h g.N.fanin
    in
    let h = window h (base_w v) in
    let h = impl_hash h v in
    match mode with
    | Engine.Addition -> h
    | Engine.Elimination ->
      Fnv.float (window h (noisy_w v)) (Iterate.net_noise fix v)
  in
  let sg = Array.init nn signature in
  (* Direct-only hash: what a memoised direct enumeration of the net
     reads — its own signature and its primary aggressors, one hop. *)
  let direct a =
    let h = Fnv.int64 (Fnv.int Fnv.basis 0xD1) cfg in
    let h = Fnv.int64 h sg.(a) in
    List.fold_left
      (fun h cid ->
        let c = N.coupling nl cid in
        let p = N.coupling_partner nl cid a in
        Fnv.int64 (Fnv.float h c.N.coupling_cap) sg.(p))
      h
      (N.couplings_of_net nl a)
  in
  { fp_cfg = cfg; fp_sig = sg; fp_hd = Array.init nn direct; fp_stable = stable_ids nl }
