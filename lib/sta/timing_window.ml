module F = Tka_util.Float_cmp
module Interval = Tka_util.Interval

type t = { eat : float; lat : float; slew_early : float; slew_late : float }

let make ~eat ~lat ~slew_early ~slew_late =
  if slew_early <= 0. || slew_late <= 0. then
    invalid_arg "Timing_window.make: slews must be positive";
  if F.gt eat lat then
    invalid_arg (Printf.sprintf "Timing_window.make: eat %g > lat %g" eat lat);
  { eat = Float.min eat lat; lat; slew_early; slew_late }

let point ~t50 ~slew = make ~eat:t50 ~lat:t50 ~slew_early:slew ~slew_late:slew

let interval t = Interval.make t.eat t.lat

let width t = t.lat -. t.eat

let merge a b =
  let eat, slew_early =
    if a.eat <= b.eat then (a.eat, a.slew_early) else (b.eat, b.slew_early)
  in
  let lat, slew_late =
    if a.lat >= b.lat then (a.lat, a.slew_late) else (b.lat, b.slew_late)
  in
  { eat; lat; slew_early; slew_late }

let shift d t = { t with eat = t.eat +. d; lat = t.lat +. d }

let extend_lat d t =
  if d < 0. then invalid_arg "Timing_window.extend_lat: negative";
  { t with lat = t.lat +. d }

let onset_interval t =
  let lo = t.eat -. (t.slew_early /. 2.) in
  let hi = t.lat -. (t.slew_late /. 2.) in
  if hi >= lo then Interval.make lo hi else Interval.point lo

(* Arrival-window overlap queries, used by the aggressor filter layer
   (lib/filter) and exposed for any window-vs-window reasoning. Both
   delegate to the interval layer so one definition of "overlap" is
   shared with the pulse-reach tests. *)
let overlaps a b = Interval.overlaps (interval a) (interval b)

let overlap_fraction a b = Interval.overlap_fraction (interval a) (interval b)

let latest_transition t =
  Tka_waveform.Transition.make ~t50:t.lat ~slew:t.slew_late

let equal ?eps a b =
  F.approx ?eps a.eat b.eat && F.approx ?eps a.lat b.lat
  && F.approx ?eps a.slew_early b.slew_early
  && F.approx ?eps a.slew_late b.slew_late

let pp ppf t =
  Format.fprintf ppf "[%g, %g] (slew %g/%g)" t.eat t.lat t.slew_early t.slew_late
