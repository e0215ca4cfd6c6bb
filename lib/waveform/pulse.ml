type t = { onset : float; peak : float; rise : float; decay : float }

let make ~onset ~peak ~rise ~decay =
  if peak <= 0. then invalid_arg "Pulse.make: peak must be positive";
  if rise <= 0. then invalid_arg "Pulse.make: rise must be positive";
  if decay <= 0. then invalid_arg "Pulse.make: decay must be positive";
  { onset; peak; rise; decay }

let peak_time p = p.onset +. p.rise
let end_time p = p.onset +. p.rise +. (3. *. p.decay)

let points = 4

let write_points p a o =
  (* Two-segment linearisation of the exponential tail: half the peak one
     time constant after the peak, zero after three. [peak_time] and
     [end_time] are spelt out: a call would box its result. *)
  a.(o) <- p.onset;
  a.(o + 1) <- 0.;
  a.(o + 2) <- p.onset +. p.rise;
  a.(o + 3) <- p.peak;
  a.(o + 4) <- p.onset +. p.rise +. p.decay;
  a.(o + 5) <- p.peak /. 2.;
  a.(o + 6) <- p.onset +. p.rise +. (3. *. p.decay);
  a.(o + 7) <- 0.

let waveform p =
  let a = Array.create_float (2 * points) in
  write_points p a 0;
  Pwl.create (List.init points (fun i -> (a.(2 * i), a.((2 * i) + 1))))

let width_at level p =
  if level <= 0. || level >= 1. then invalid_arg "Pulse.width_at: level outside (0,1)";
  let w = waveform p in
  match (Pwl.first_upcrossing w (level *. p.peak), Pwl.crossings w (level *. p.peak)) with
  | Some first, crossings -> (
    match List.rev crossings with
    | last :: _ -> last -. first
    | [] -> 0.)
  | None, _ -> 0.

let shift d p = { p with onset = p.onset +. d }

let scale k p =
  if k <= 0. then invalid_arg "Pulse.scale: factor must be positive";
  { p with peak = k *. p.peak }

let pp ppf p =
  Format.fprintf ppf "pulse(onset=%g, peak=%g, rise=%g, decay=%g)" p.onset
    p.peak p.rise p.decay
