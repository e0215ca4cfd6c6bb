module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module CN = Tka_noise.Coupled_noise
module EB = Tka_noise.Envelope_builder

type reason = Window_disjoint | Logic_constant | Logic_correlated

type decision = Keep | Derate of float | Drop of reason

type t = {
  f_mode : Mode.t;
  f_nl : N.t;
  f_topo : Topo.t;
  f_windows : EB.windows;
  f_margin : float;
  f_logic : Implication.value array option;  (** [Some] iff mode = Logic *)
}

let prepare ~mode ?(margin = 0.) ~windows topo =
  {
    f_mode = mode;
    f_nl = Topo.netlist topo;
    f_topo = topo;
    f_windows = windows;
    f_margin = margin;
    f_logic =
      (match mode with
      | Mode.Logic -> Some (Implication.analyze topo)
      | Mode.Off | Mode.Window -> None);
  }

let mode t = t.f_mode
let is_off t = t.f_mode = Mode.Off

let derate_threshold = 0.85

let logic_decision t (d : CN.directed) =
  match t.f_logic with
  | None -> None
  | Some values -> (
      match
        Implication.relate values ~victim:d.CN.dc_victim
          ~aggressor:d.CN.dc_aggressor
      with
      | Implication.Constant -> Some (Drop Logic_constant)
      | Implication.Same_phase -> Some (Drop Logic_correlated)
      | Implication.Unrelated | Implication.Opposite_phase -> None)

let decide_against t ~sensitive (d : CN.directed) =
  match t.f_mode with
  | Mode.Off -> Keep
  | Mode.Window | Mode.Logic -> (
      match logic_decision t d with
      | Some dec -> dec
      | None ->
          let reach = Overlap.reach t.f_nl ~windows:t.f_windows d in
          if Overlap.cannot_overlap ~reach ~sensitive then Drop Window_disjoint
          else
            let f = Derate.factor ~reach ~sensitive in
            (* Overlap fractions near 1 are dominated by the sensitive
               interval's own safety padding (>= 1.25 victim slews of
               slack beyond the dominance interval), not by genuine
               partial overlap — treat them as full keeps. Rounding a
               factor up to 1 is always sound: it reproduces the
               unfiltered engine exactly for that candidate, and it
               skips an Envelope.scale per kept aggressor on the hot
               path. Only clearly partial overlaps carry signal. *)
            if f >= derate_threshold then Keep else Derate f)

let sensitive_of t victim =
  Overlap.sensitive ~margin:t.f_margin (t.f_windows victim)

let decide t (d : CN.directed) =
  match t.f_mode with
  | Mode.Off -> Keep
  | Mode.Window | Mode.Logic ->
      decide_against t ~sensitive:(sensitive_of t d.CN.dc_victim) d

let no_derate : int -> float = fun _ -> 1.

let screen t (ds : CN.directed list) =
  match t.f_mode with
  | Mode.Off -> (ds, no_derate)
  | Mode.Window | Mode.Logic -> (
      match ds with
      | [] -> (ds, no_derate)
      | d0 :: _ ->
          (* One victim per call: every directed coupling handed to the
             engine's per-victim sweep shares [dc_victim]. *)
          let sensitive = sensitive_of t d0.CN.dc_victim in
          let kept = ref [] and factors = ref [] in
          List.iter
            (fun d ->
              match decide_against t ~sensitive d with
              | Keep -> kept := d :: !kept
              | Derate f ->
                  kept := d :: !kept;
                  factors := (CN.directed_id d, f) :: !factors
              | Drop _ -> ())
            ds;
          let lookup =
            match !factors with
            | [] -> no_derate
            | fs ->
                let tbl = Hashtbl.create (List.length fs) in
                List.iter (fun (id, f) -> Hashtbl.replace tbl id f) fs;
                fun id -> Option.value ~default:1. (Hashtbl.find_opt tbl id)
          in
          (List.rev !kept, lookup))

type survey = {
  sv_victims : int;
  sv_candidates : int;
  sv_kept : int;
  sv_derated : int;
  sv_dropped_window : int;
  sv_dropped_constant : int;
  sv_dropped_correlated : int;
}

let sv_dropped s =
  s.sv_dropped_window + s.sv_dropped_constant + s.sv_dropped_correlated

let survey t =
  let victims = ref 0
  and cands = ref 0
  and kept = ref 0
  and derated = ref 0
  and d_window = ref 0
  and d_const = ref 0
  and d_corr = ref 0 in
  let n = N.num_nets t.f_nl in
  for v = 0 to n - 1 do
    match CN.aggressors_of_victim t.f_nl v with
    | [] -> ()
    | ds ->
        incr victims;
        let sensitive = sensitive_of t v in
        List.iter
          (fun d ->
            incr cands;
            match decide_against t ~sensitive d with
            | Keep -> incr kept
            | Derate _ ->
                incr kept;
                incr derated
            | Drop Window_disjoint -> incr d_window
            | Drop Logic_constant -> incr d_const
            | Drop Logic_correlated -> incr d_corr)
          ds
  done;
  {
    sv_victims = !victims;
    sv_candidates = !cands;
    sv_kept = !kept;
    sv_derated = !derated;
    sv_dropped_window = !d_window;
    sv_dropped_constant = !d_const;
    sv_dropped_correlated = !d_corr;
  }
