type curve_point = { kv_k : int; kv_delay : float; kv_fraction : float }

type recommendation = {
  kv_coverage_k : int option;
  kv_knee_k : int;
  kv_curve : curve_point list;
}

let sample_ks ~kmax =
  List.init kmax (fun i -> i + 1)
  |> List.filter (fun k -> k <= 10 || k mod 5 = 0 || k = kmax)

let knee_of_curve pts =
  match pts with
  | [] | [ _ ] -> invalid_arg "K_value.knee_of_curve: need at least two points"
  | (x0, y0) :: _ ->
    let xn, yn =
      match List.rev pts with
      | (x, y) :: _ -> (x, y)
      | [] -> assert false
    in
    let fx0 = float_of_int x0 and fxn = float_of_int xn in
    let span_x = Float.max 1e-9 (fxn -. fx0) in
    let chord x = y0 +. ((yn -. y0) *. (float_of_int x -. fx0) /. span_x) in
    let best =
      List.fold_left
        (fun (bk, bd) (x, y) ->
          let d = Float.abs (y -. chord x) in
          if d > bd then (x, d) else (bk, bd))
        (x0, Float.neg_infinity) pts
    in
    fst best

let summarise ~coverage pts =
  let coverage_k =
    List.find_opt (fun p -> p.kv_fraction >= coverage) pts
    |> Option.map (fun p -> p.kv_k)
  in
  let knee_k =
    match pts with
    | [] -> 1
    | [ p ] -> p.kv_k
    | _ -> knee_of_curve (List.map (fun p -> (p.kv_k, p.kv_fraction)) pts)
  in
  { kv_coverage_k = coverage_k; kv_knee_k = knee_k; kv_curve = pts }

let recommend ?(coverage = 0.8) ?(kmax = 30) ~mode topo =
  let r = Refine.compute ~mode ~k:kmax topo in
  let res = r.Refine.result in
  let total =
    Float.max 1e-12 (res.Engine.res_noisy_delay -. res.Engine.res_noiseless_delay)
  in
  (* the noise captured (addition) or recovered (elimination): the
     distance from the delay with no set applied *)
  let from = Engine.fallback_delay res in
  let fraction d =
    (match mode with
    | Engine.Addition -> d -. from
    | Engine.Elimination -> from -. d)
    /. total
  in
  summarise ~coverage
    (List.map
       (fun (k, _, d) -> { kv_k = k; kv_delay = d; kv_fraction = fraction d })
       (Refine.evaluate_curve r ~ks:(sample_ks ~kmax)))

let addition ?coverage ?kmax topo =
  recommend ?coverage ?kmax ~mode:Engine.Addition topo

let elimination ?coverage ?kmax topo =
  recommend ?coverage ?kmax ~mode:Engine.Elimination topo
