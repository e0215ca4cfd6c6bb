module N = Tka_circuit.Netlist
module Builder = Tka_circuit.Builder
module Cell = Tka_cell.Cell
module Lib = Tka_cell.Default_lib
module Rng = Tka_util.Rng
module Log = Tka_obs.Log

let log_src = Log.Src.create "layout" ~doc:"synthetic layout and benchmarks"

type spec = {
  tx_name : string;
  tx_nets : int;
  tx_cones : int;
  tx_density : float;
  tx_max_fanout : int;
  tx_seed : int;
}

let default_cones nets = max 4 (min 512 (nets / 2000))

let spec ?cones ?(density = 2.0) ?(max_fanout = 6) ?(seed = 11007) ~nets () =
  if nets < 64 then invalid_arg "Table2x.spec: nets must be >= 64";
  {
    tx_name = Printf.sprintf "t2x-%d" nets;
    tx_nets = nets;
    tx_cones = (match cones with Some c -> max 1 c | None -> default_cones nets);
    tx_density = density;
    tx_max_fanout = max 2 max_fanout;
    tx_seed = seed;
  }

(* The i1–i10 flow runs placement, routing and geometric extraction —
   quadratic-ish constants that are fine at 20k nets and hopeless at a
   million. table2x instead emits the netlist directly: [tx_cones]
   independent levelised DAGs (no net, gate or coupling crosses a cone
   boundary, so the circuit has at least [tx_cones] connected
   components), with couplings drawn between creation-order
   neighbours inside a cone — nets of the same or adjacent levels,
   whose switching windows overlap and so actually attack each other.

   Every draw comes from the single seeded stream in a fixed order, so
   a spec pins the netlist exactly (the Tka_verify oracle checks a
   fingerprint of it). *)
let generate spec =
  let rng = Rng.create spec.tx_seed in
  let b = Builder.create ~name:spec.tx_name () in
  let cells =
    [|
      Array.of_list (Lib.combinational_of_arity 1);
      Array.of_list (Lib.combinational_of_arity 2);
      Array.of_list (Lib.combinational_of_arity 3);
    |]
  in
  let pick_cell arity = Rng.pick rng cells.(arity - 1) in
  let pick_arity () =
    let r = Rng.float rng 1.0 in
    if r < 0.25 then 1 else if r < 0.85 then 2 else 3
  in
  let cones = spec.tx_cones in
  let per_cone = max 16 (spec.tx_nets / cones) in
  let coupling_target =
    int_of_float (spec.tx_density *. float_of_int spec.tx_nets) / cones
  in
  (* couplings already incident per net: a cap keeps any single victim's
     primary-aggressor list (and so the per-victim enumeration cost)
     bounded regardless of density *)
  let max_deg = 8 in
  let deg = Hashtbl.create (2 * spec.tx_nets) in
  let deg_of n = Option.value ~default:0 (Hashtbl.find_opt deg n) in
  let bump_deg n = Hashtbl.replace deg n (deg_of n + 1) in
  for c = 0 to cones - 1 do
    let depth =
      max 3 (min 12 (int_of_float (Float.log (float_of_int per_cone) /. Float.log 2.)))
    in
    let width = max 2 (((per_cone - 1) / (depth + 1)) + 1) in
    let levels = Array.make (depth + 1) [||] in
    levels.(0) <-
      Array.init width (fun i -> Builder.add_input b (Printf.sprintf "c%d_pi%d" c i));
    let sink_counts = Hashtbl.create (2 * per_cone) in
    let sink_count n = Option.value ~default:0 (Hashtbl.find_opt sink_counts n) in
    let note_sink n = Hashtbl.replace sink_counts n (sink_count n + 1) in
    (* locality-biased source pick, resampled away from mega-fanout *)
    let pick_source level =
      let attempt () =
        let back =
          let r = Rng.float rng 1.0 in
          if r < 0.7 then 1 else if r < 0.95 then min 2 level else min (1 + Rng.int rng 4) level
        in
        let pool = levels.(level - back) in
        pool.(Rng.int rng (Array.length pool))
      in
      let rec go tries =
        let n = attempt () in
        if tries = 0 || sink_count n < spec.tx_max_fanout then n else go (tries - 1)
      in
      go 5
    in
    for level = 1 to depth do
      let outs = Array.make width 0 in
      for j = 0 to width - 1 do
        let cell = pick_cell (pick_arity ()) in
        let out = Builder.add_net b (Printf.sprintf "c%d_n%d_%d" c level j) in
        let bindings =
          List.mapi
            (fun kth pin ->
              let src =
                if kth = 0 then
                  (* pinned to the previous level: guarantees the depth *)
                  levels.(level - 1).(Rng.int rng (Array.length levels.(level - 1)))
                else pick_source level
              in
              note_sink src;
              (pin, src))
            (Cell.input_names cell)
        in
        ignore
          (Builder.add_gate b
             ~name:(Printf.sprintf "c%d_g%d_%d" c level j)
             ~cell ~inputs:bindings ~output:out);
        outs.(j) <- out
      done;
      levels.(level) <- outs
    done;
    (* Collector tree: fold every sink-less net (the whole last level
       plus mid-cone orphans) into one primary output per cone.
       Without it each orphan becomes an implicit output and sink
       selection goes quadratic in the output count. *)
    let orphans = ref [] in
    for level = depth downto 0 do
      Array.iter
        (fun n -> if sink_count n = 0 then orphans := n :: !orphans)
        levels.(level)
    done;
    let col = ref 0 in
    let collect cell ins =
      incr col;
      let out = Builder.add_net b (Printf.sprintf "c%d_col%d" c !col) in
      let bindings = List.map2 (fun pin src -> (pin, src)) (Cell.input_names cell) ins in
      ignore
        (Builder.add_gate b
           ~name:(Printf.sprintf "c%d_colg%d" c !col)
           ~cell ~inputs:bindings ~output:out);
      out
    in
    (* balanced reduction (rounds of 3-input folds): depth grows as
       log3 of the orphan count instead of linearly *)
    let rec reduce = function
      | [] -> None
      | [ o ] -> Some o
      | os ->
        let rec round acc = function
          | o1 :: o2 :: o3 :: tl ->
            round (collect (Rng.pick rng cells.(2)) [ o1; o2; o3 ] :: acc) tl
          | [ o1; o2 ] -> collect (Rng.pick rng cells.(1)) [ o1; o2 ] :: acc
          | [ o1 ] -> o1 :: acc
          | [] -> acc
        in
        reduce (List.rev (round [] os))
    in
    let final =
      match reduce !orphans with
      | Some o -> o
      | None -> levels.(depth).(0) (* unreachable: the last level has no sinks *)
    in
    Builder.mark_output b final;
    (* Couplings between creation-order neighbours of this cone: the
       level-by-level build makes index distance track level distance,
       so coupled nets switch in overlapping windows. *)
    let cone_nets = Array.concat (Array.to_list levels) in
    let nc = Array.length cone_nets in
    let placed = ref 0 in
    let attempts = ref 0 in
    let max_attempts = 8 * coupling_target in
    while !placed < coupling_target && !attempts < max_attempts do
      incr attempts;
      let i = Rng.int rng nc in
      let d = 1 + Rng.int rng (min (nc - 1) (2 * width)) in
      let j = if i + d < nc then i + d else i - d in
      let u = cone_nets.(i) and v = cone_nets.(j) in
      if u <> v && deg_of u < max_deg && deg_of v < max_deg then begin
        let cap = 0.002 +. Rng.float rng 0.004 in
        ignore (Builder.add_coupling b u v cap);
        bump_deg u;
        bump_deg v;
        incr placed
      end
    done
  done;
  let nl = Builder.finalize b in
  Log.info log_src (fun m ->
      m
        ~fields:
          [
            Log.str "circuit" spec.tx_name;
            Log.int "nets" (N.num_nets nl);
            Log.int "gates" (N.num_gates nl);
            Log.int "couplings" (N.num_couplings nl);
            Log.int "cones" cones;
          ]
        "%s: %d nets, %d gates, %d couplings in %d cones" spec.tx_name
        (N.num_nets nl) (N.num_gates nl) (N.num_couplings nl) cones);
  nl

(* "t2x-100k", "t2x-1m", "t2x-250000", ... *)
let spec_of_name name =
  let prefix = "t2x-" in
  let pl = String.length prefix in
  if String.length name <= pl || String.sub name 0 pl <> prefix then None
  else begin
    let num = String.sub name pl (String.length name - pl) in
    let parse s mult =
      match int_of_string_opt s with Some n when n > 0 -> Some (n * mult) | _ -> None
    in
    let nets =
      match String.lowercase_ascii num with
      | s when String.length s > 1 && s.[String.length s - 1] = 'k' ->
        parse (String.sub s 0 (String.length s - 1)) 1_000
      | s when String.length s > 1 && s.[String.length s - 1] = 'm' ->
        parse (String.sub s 0 (String.length s - 1)) 1_000_000
      | s -> parse s 1
    in
    match nets with
    | Some n when n >= 64 -> Some { (spec ~nets:n ()) with tx_name = name }
    | _ -> None
  end

let by_name name = Option.map generate (spec_of_name name)
