module F = Tka_util.Float_cmp
module Interval = Tka_util.Interval

(* A waveform is a slice of a flat arena buffer: breakpoint [i] lives
   interleaved at [buf.(off + 2i)] (abscissa) and [buf.(off + 2i + 1)]
   (ordinate), [len] counting breakpoints. Kernels allocate a
   worst-case slice from the domain-local {!Arena}, write the result,
   simplify in place and return the tail — so the merge kernels from
   PR 5 no longer allocate per-result arrays, and the (x, y) pairs a
   co-scan touches together sit on the same cache line.

   [peak] caches [max_value]; NaN means "not yet computed". Breakpoint
   construction rejects NaN ordinates, so the sentinel is unambiguous.
   The field is boxed (the record mixes float and int fields), so
   concurrent domains racing to fill it each store a word-sized pointer
   to the same deterministic value — a benign race. *)
type t = { buf : float array; off : int; len : int; mutable peak : float }

let mk buf off len = { buf; off; len; peak = Float.nan }

(* Breakpoint accessors; bare indexing everywhere else follows the same
   [off + 2i] / [off + 2i + 1] scheme on raw (buf, off) pairs. *)
let[@inline] gx t i = t.buf.(t.off + (2 * i))
let[@inline] gy t i = t.buf.(t.off + (2 * i) + 1)

(* Merge tolerance for abscissae: two breakpoints closer than this are
   considered the same instant. *)
let x_eps = 1e-12

let[@inline] collinear x0 y0 x1 y1 x2 y2 =
  (* (x1,y1) lies on the segment (x0,y0)-(x2,y2)? Cross-product test with a
     scale-aware tolerance. *)
  let cross = ((x1 -. x0) *. (y2 -. y0)) -. ((x2 -. x0) *. (y1 -. y0)) in
  Float.abs cross <= 1e-12 *. (1. +. Float.abs (x2 -. x0)) *. (1. +. Float.abs y2 +. Float.abs y0)

(* In-place collinear simplification of the first [n] breakpoints of a
   slice: drops every interior point collinear with the last kept point
   and the next original point, returns the compacted length. The write
   cursor never passes the read cursor, so no scratch is needed. *)
let simplify_into buf off n =
  if n <= 2 then n
  else begin
    let w = ref 1 in
    for r = 1 to n - 2 do
      let k = off + (2 * (!w - 1)) and c = off + (2 * r) in
      if
        not
          (collinear buf.(k) buf.(k + 1) buf.(c) buf.(c + 1) buf.(c + 2) buf.(c + 3))
      then begin
        buf.(off + (2 * !w)) <- buf.(c);
        buf.(off + (2 * !w) + 1) <- buf.(c + 1);
        incr w
      end
    done;
    buf.(off + (2 * !w)) <- buf.(off + (2 * (n - 1)));
    buf.(off + (2 * !w) + 1) <- buf.(off + (2 * (n - 1)) + 1);
    incr w;
    !w
  end

(* Finish a kernel output: [n] valid breakpoints written into a slice
   allocated for [cap]; simplify in place, hand the tail back to the
   arena. *)
let finish buf off ~cap n =
  let n' = simplify_into buf off n in
  Arena.shrink_last buf off ~alloc:(2 * cap) ~used:(2 * n');
  mk buf off n'

let of_points_unchecked pts =
  match pts with
  | [] -> mk [||] 0 0
  | _ ->
    let n = List.length pts in
    let buf, off = Arena.alloc (2 * n) in
    let i = ref 0 in
    List.iter
      (fun (x, y) ->
        buf.(off + (2 * !i)) <- F.not_nan ~what:"Pwl: breakpoint abscissa" x;
        buf.(off + (2 * !i) + 1) <- F.not_nan ~what:"Pwl: breakpoint ordinate" y;
        incr i)
      pts;
    finish buf off ~cap:n n

(* Already strictly increasing with every gap wider than [x_eps]: the
   stable sort below is then the identity and the merge keeps every
   point, so both can be skipped. NaN abscissae fail the test. *)
let rec well_spaced = function
  | (x, _) :: ((x', _) :: _ as tl) -> x' -. x > x_eps && well_spaced tl
  | [ _ ] | [] -> true

let create pts =
  match pts with
  | [] -> invalid_arg "Pwl.create: empty point list"
  | _ :: _ when well_spaced pts -> of_points_unchecked pts
  | _ :: _ ->
    let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pts in
    (* Merge coincident abscissae. *)
    let rec merge acc = function
      | [] -> List.rev acc
      | (x, y) :: tl -> (
        match acc with
        | (x', y') :: _ when Float.abs (x -. x') <= x_eps ->
          if F.approx y y' then merge acc tl
          else
            invalid_arg
              (Printf.sprintf
                 "Pwl.create: conflicting values %g and %g at x = %g" y' y x)
        | _ -> merge ((x, y) :: acc) tl)
    in
    of_points_unchecked (merge [] sorted)

(* Constants are the long-lived singletons ([zero] lives for the whole
   process): a private exact array instead of an arena slice, so they
   pin no chunk. *)
let constant y = mk [| 0.; F.not_nan ~what:"Pwl.constant" y |] 0 1

let zero = constant 0.

let breakpoints t =
  let rec go i acc = if i < 0 then acc else go (i - 1) ((gx t i, gy t i) :: acc) in
  go (t.len - 1) []

let first_x t = gx t 0
let last_x t = gx t (t.len - 1)

let is_constant t =
  let y0 = gy t 0 in
  let ok = ref true in
  for i = 1 to t.len - 1 do
    if not (F.approx (gy t i) y0) then ok := false
  done;
  !ok

(* Index of the last breakpoint with x_i <= x, or -1. *)
let seg_index t x =
  let n = t.len in
  if x < gx t 0 then -1
  else if x >= gx t (n - 1) then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: x_lo <= x < x_hi *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if gx t mid <= x then lo := mid else hi := mid
    done;
    !lo
  end

(* Value at [x] given [i = seg_index t x]. *)
let eval_seg t i x =
  let n = t.len in
  if i < 0 then gy t 0
  else if i >= n - 1 then gy t (n - 1)
  else begin
    let x0 = gx t i and x1 = gx t (i + 1) in
    let y0 = gy t i and y1 = gy t (i + 1) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

let eval t x = eval_seg t (seg_index t x) x

let max_value t =
  if Float.is_nan t.peak then begin
    let m = ref (gy t 0) in
    for i = 1 to t.len - 1 do
      let y = gy t i in
      if y > !m then m := y
    done;
    t.peak <- !m
  end;
  t.peak

let min_value t =
  let m = ref (gy t 0) in
  for i = 1 to t.len - 1 do
    let y = gy t i in
    if y < !m then m := y
  done;
  !m

let extremum_on ~better interval t =
  let lo = Interval.lo interval and hi = Interval.hi interval in
  let acc = ref (better (eval t lo) (eval t hi)) in
  for i = 0 to t.len - 1 do
    let x = gx t i in
    if x >= lo && x <= hi then acc := better !acc (gy t i)
  done;
  !acc

let max_on interval t = extremum_on ~better:Float.max interval t
let min_on interval t = extremum_on ~better:Float.min interval t

let support ?(eps = F.default_eps) t =
  let n = t.len in
  let nonzero i = Float.abs (gy t i) > eps in
  let first = ref (-1) and last = ref (-1) in
  for i = 0 to n - 1 do
    if nonzero i then begin
      if !first < 0 then first := i;
      last := i
    end
  done;
  if !first < 0 then None
  else begin
    let lo = if !first > 0 then gx t (!first - 1) else gx t 0 in
    let hi = if !last < n - 1 then gx t (!last + 1) else gx t (n - 1) in
    Some (Interval.make lo hi)
  end

let map_y f t =
  let n = t.len in
  let buf, off = Arena.alloc (2 * n) in
  for i = 0 to n - 1 do
    buf.(off + (2 * i)) <- gx t i;
    buf.(off + (2 * i) + 1) <- f (gy t i)
  done;
  mk buf off n

let scale k t = map_y (fun y -> k *. y) t
let neg t = map_y (fun y -> -.y) t
let shift_y d t = map_y (fun y -> y +. d) t

let shift_x d t =
  (* the ordinates are untouched, so the cached peak carries over *)
  let n = t.len in
  let buf, off = Arena.alloc (2 * n) in
  for i = 0 to n - 1 do
    buf.(off + (2 * i)) <- gx t i +. d;
    buf.(off + (2 * i) + 1) <- gy t i
  done;
  { buf; off; len = n; peak = t.peak }

(* ------------------------------------------------------------------ *)
(* Linear-merge kernels                                               *)
(* ------------------------------------------------------------------ *)
(* Every binary operation below walks the two breakpoint slices with a
   pair of cursors in a single pass — the output is written straight
   into one arena slice. Invariants of the co-scan:
     - merged abscissae are visited in non-decreasing order, deduped
       within [x_eps] (the first of a cluster wins, as in the previous
       merged-grid construction);
     - when the scan stands at x, each operand's cursor [i] is the
       index of its first breakpoint with x_i >= x, so the value at
       x is y_i on an exact hit and the (i-1, i) segment
       interpolation otherwise — bit-identical to [eval]. *)

(* Value of the slice (buf, off, n) at [x] given cursor [i] = first
   index with x_i >= x (n when exhausted). Same formula as [eval]. *)
let[@inline] value_at buf off n i x =
  if i < n && buf.(off + (2 * i)) = x then buf.(off + (2 * i) + 1)
  else if i = 0 then buf.(off + 1)
  else if i >= n then buf.(off + (2 * (n - 1)) + 1)
  else begin
    let x0 = buf.(off + (2 * (i - 1))) and x1 = buf.(off + (2 * i)) in
    let y0 = buf.(off + (2 * (i - 1)) + 1) and y1 = buf.(off + (2 * i) + 1) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

(* A two-cursor co-scan of [a] and [b] in progress: the cursors in
   [scan], the last visited abscissa and the current merged point in
   [point]. [scan_next] steps to the next merged abscissa; callers loop
   on it and read [px], [pya], [pyb]. An all-float record stores its
   fields unboxed, so a scan allocates its two records and nothing per
   point. *)
type scan = { mutable si : int; mutable sj : int }
type point = { mutable px : float; mutable pya : float; mutable pyb : float; mutable plast : float }

let scan_start () =
  ({ si = 0; sj = 0 }, { px = 0.; pya = 0.; pyb = 0.; plast = Float.neg_infinity })

(* false once both operands are exhausted *)
let rec scan_next a b s p =
  let i = s.si and j = s.sj in
  if i >= a.len && j >= b.len then false
  else begin
    let xa = if i < a.len then gx a i else Float.infinity
    and xb = if j < b.len then gx b j else Float.infinity in
    if xa <= xb then begin
      s.si <- i + 1;
      if xa -. p.plast > x_eps then begin
        p.px <- xa;
        p.pya <- gy a i;
        p.pyb <- value_at b.buf b.off b.len j xa;
        p.plast <- xa;
        true
      end
      else scan_next a b s p
    end
    else begin
      s.sj <- j + 1;
      if xb -. p.plast > x_eps then begin
        p.px <- xb;
        p.pya <- value_at a.buf a.off a.len i xb;
        p.pyb <- gy b j;
        p.plast <- xb;
        true
      end
      else scan_next a b s p
    end
  end

let combine2 ~neg a b =
  let cap = a.len + b.len in
  let buf, off = Arena.alloc (2 * cap) in
  let s, p = scan_start () in
  let m = ref 0 in
  while scan_next a b s p do
    buf.(off + (2 * !m)) <- p.px;
    buf.(off + (2 * !m) + 1) <- (if neg then p.pya -. p.pyb else p.pya +. p.pyb);
    incr m
  done;
  finish buf off ~cap !m

let add a b = combine2 ~neg:false a b
let sub a b = combine2 ~neg:true a b

(* [last_upcrossing (combine2 ~neg a b) level] without the waveform: the
   co-scan's points go through [simplify_into]'s rule as they come (a
   point is kept unless it is collinear with the last kept point and
   the next scanned one; the first and last points are always kept),
   and [last_upcrossing]'s rightmost kept point below [level] that has
   a successor is remembered with that successor. The points, the
   rule and the final interpolation are those of the two-step path, so
   the result is bit-identical. [up_point] takes one scanned point and
   [up_close] ends the scan; the all-float record stores the state
   unboxed, [upcount] the points scanned (capped at 2) and whether a
   segment is remembered. *)
type upcross = {
  mutable kx : float;
  mutable ky : float;  (* last kept point *)
  mutable cx : float;
  mutable cy : float;  (* scanned, not yet decided *)
  mutable bx0 : float;
  mutable by0 : float;
  mutable bx1 : float;
  mutable by1 : float;  (* last kept segment rising from below [level] *)
  mutable last : float;  (* last scanned abscissa ([floor_upcrossing]) *)
}

type upcount = { mutable cnt : int; mutable found : bool }

let up_state () =
  {
    kx = 0.;
    ky = 0.;
    cx = 0.;
    cy = 0.;
    bx0 = 0.;
    by0 = 0.;
    bx1 = 0.;
    by1 = 0.;
    last = Float.neg_infinity;
  }

(* the kept segment (k, c) *)
let[@inline] up_segment u z level =
  if u.ky < level then begin
    z.found <- true;
    u.bx0 <- u.kx;
    u.by0 <- u.ky;
    u.bx1 <- u.cx;
    u.by1 <- u.cy
  end

let[@inline] up_point u z level x y =
  if z.cnt = 0 then begin
    u.kx <- x;
    u.ky <- y;
    z.cnt <- 1
  end
  else begin
    if z.cnt >= 2 && not (collinear u.kx u.ky u.cx u.cy x y) then begin
      up_segment u z level;
      u.kx <- u.cx;
      u.ky <- u.cy
    end;
    u.cx <- x;
    u.cy <- y;
    z.cnt <- 2
  end

let[@inline] crossing_at level x0 y0 x1 y1 =
  x0 +. ((x1 -. x0) *. (level -. y0) /. (y1 -. y0))

let up_found u z level =
  if z.found then Some (crossing_at level u.bx0 u.by0 u.bx1 u.by1) else None

let up_close u z level =
  let last_y = if z.cnt >= 2 then (up_segment u z level; u.cy) else u.ky in
  if last_y < level then None else up_found u z level

let last_upcrossing2 ~neg a b level =
  let s, p = scan_start () in
  let u = up_state () and z = { cnt = 0; found = false } in
  while scan_next a b s p do
    up_point u z level p.px (if neg then p.pya -. p.pyb else p.pya +. p.pyb)
  done;
  up_close u z level

(* [last_upcrossing2 ~neg:false floor env level] for one [floor] and
   many [env]s, visiting only the part of the floor that [env] can
   change.

   The index runs [up_point]'s rule over the co-scan of the floor and
   [zero], whose one breakpoint, the lead point, lies where every sum
   built on [zero] starts, and records, before each floor breakpoint i
   (and after the last, i = len), the scan state in [st]: the last kept
   point k, the undecided point c and the remembered segment (b0, b1),
   two to an int, each an index into the private copy of the floor,
   whose breakpoint len is the lead point, or -1 while unset. The
   abscissa the [x_eps] dedupe compares with is c's, or k's while c is
   unset. [rec_at] is the i such that the final segment was remembered
   between states i and i + 1 (len: by the closing), so a scan that
   leaves state i remembers another segment iff [rec_at >= i];
   [answer] and [last_y] are the indexed scan's result and last
   ordinate.

   The kernel needs [env] to start and end at a zero ordinate and to be
   nowhere negative, as every noise envelope is; other inputs take
   [last_upcrossing2] and count as fallbacks.

   - Start. When [env]'s first breakpoint lies at the lead point and
     [env] is zero up to its second one, e1, the co-scan of [floor] and
     [env] before e1 is the indexed one: the same merged abscissae in
     the same order (ties go to the floor) with the same ordinates,
     [env] being a zero there. So the co-scan reaches the first floor
     breakpoint at or after e1 in the recorded state, and the kernel
     starts there, past [env]'s first breakpoint. Any other [env] is
     scanned from the start.
   - Resync. Past [env]'s last breakpoint [env] is a zero again. When
     the co-scan is about to take floor breakpoint i, the lead point
     lies before it, and the state is the recorded state of i (same k
     and c, hence the same dedupe abscissa), the two scans take the
     same points from there on: if the indexed scan remembers a
     segment after state i, its answer is the co-scan's; otherwise the
     co-scan's segment stands, with the indexed scan's last ordinate.
   - Stop. [guard] is one past the floor's last breakpoint below
     [level] plus a margin of 2^-40 [bound], with [bound] one plus the
     largest magnitude among the floor's ordinates and [level].
     [value_at]'s interpolation falls at most 8 ulps of the larger end
     magnitude below the lower end, so when [env]'s peak is at most
     [bound], every point at or past the guard breakpoint sums to at
     least [level]. Once the next point lies there and the kept and
     undecided points are not below [level] either, no segment can
     start below it any more and the last point is not below it: the
     remembered segment is the answer.

   Signed zeros: the co-scan's ordinates are [floor + ±0.], the floor's
   own ordinates except that -0. may turn into +0., while the recorded
   state holds the indexed scan's. A zero's sign changes no comparison
   with [level] and no collinearity test (each difference is the other
   operand or a zero, and only the cross product's magnitude is
   tested); the final interpolation reads [level - y0] and [y1 - y0]
   with y1 >= level, so y0's sign does not show either; and the resync
   compares with [=], for which the two zeros are equal. *)
type floor = {
  fw : t;  (* the floor in a private exact array, the lead point after it *)
  flevel : float;
  st : int array;  (* (k, c), (b0, b1) before each floor breakpoint *)
  rec_at : int;
  answer : float option;
  last_y : float;
  guard : int;
  bound : float;
  mutable visited : int;
  mutable full : int;
  mutable fallbacks : int;
}

(* two indices in [-1, 2^31 - 1) in one int *)
let[@inline] pair a b = ((a + 1) lsl 31) lor (b + 1)
let[@inline] first_of p = (p lsr 31) - 1
let[@inline] second_of p = (p land 0x7FFF_FFFF) - 1

let floor_index ~level t =
  let n = t.len and lead = gx zero 0 in
  if n = 0 then invalid_arg "Pwl.floor_index: empty waveform";
  let buf = Array.make (2 * (n + 1)) 0. in
  Array.blit t.buf t.off buf 0 (2 * n);
  let w = mk buf 0 n in
  (* the co-scan takes the lead point after the floor breakpoints at or
     before it, evaluating the floor with the cursor there *)
  let lead_at = ref 0 in
  while !lead_at < n && gx w !lead_at <= lead do
    incr lead_at
  done;
  buf.(2 * n) <- lead;
  buf.((2 * n) + 1) <- value_at buf 0 n !lead_at lead +. 0.;
  let st = Array.make (2 * (n + 1)) 0 in
  let k = ref (-1) and c = ref (-1) and b0 = ref (-1) and b1 = ref (-1) in
  let rec_at = ref (-1) and last = ref Float.neg_infinity in
  let save i =
    st.(2 * i) <- pair !k !c;
    st.((2 * i) + 1) <- pair !b0 !b1
  in
  let segment at =
    if gy w !k < level then begin
      b0 := !k;
      b1 := !c;
      rec_at := at
    end
  in
  let step p at =
    let x = gx w p and y = gy w p in
    if x -. !last > x_eps then begin
      last := x;
      if !k < 0 then k := p
      else begin
        if !c >= 0 && not (collinear (gx w !k) (gy w !k) (gx w !c) (gy w !c) x y) then begin
          segment at;
          k := !c
        end;
        c := p
      end
    end
  in
  for i = 0 to n - 1 do
    if i = !lead_at then step n (i - 1);
    save i;
    step i i
  done;
  if !lead_at = n then step n (n - 1);
  save n;
  let last_y = if !c >= 0 then (segment n; gy w !c) else gy w !k in
  let answer =
    if last_y < level || !b0 < 0 then None
    else Some (crossing_at level (gx w !b0) (gy w !b0) (gx w !b1) (gy w !b1))
  in
  let bound = ref (1. +. Float.abs level) in
  for i = 0 to n - 1 do
    bound := Float.max !bound (1. +. Float.abs (gy w i))
  done;
  let high = level +. (0x1p-40 *. !bound) in
  let g = ref n in
  while !g > 0 && gy w (!g - 1) >= high do
    decr g
  done;
  {
    fw = w;
    flevel = level;
    st;
    rec_at = !rec_at;
    answer;
    last_y;
    guard = !g;
    bound = !bound;
    visited = 0;
    full = 0;
    fallbacks = 0;
  }

let floor_counts f =
  let r = (f.visited, f.full, f.fallbacks) in
  f.visited <- 0;
  f.full <- 0;
  f.fallbacks <- 0;
  r

let floor_upcrossing f env =
  let w = f.fw and level = f.flevel in
  let n = w.len and m = env.len in
  let ok = ref (m > 0 && gy env 0 = 0. && gy env (m - 1) = 0.) and peak = ref 0. in
  for j = 0 to m - 1 do
    let y = gy env j in
    if not (y >= 0.) then ok := false else if y > !peak then peak := y
  done;
  f.full <- f.full + n + m;
  if not !ok then begin
    f.fallbacks <- f.fallbacks + 1;
    f.visited <- f.visited + n + m;
    last_upcrossing2 ~neg:false w env level
  end
  else begin
    let st = f.st in
    let u = up_state () and z = { cnt = 0; found = false } in
    let r = ref 0 and j0 = ref 0 in
    let lead = gx zero 0 in
    if gx env 0 = lead && (m = 1 || gy env 1 = 0.) then begin
      (* restore at the first floor breakpoint at or after e1 *)
      let e1 = if m = 1 then Float.infinity else gx env 1 in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if gx w mid < e1 then lo := mid + 1 else hi := mid
      done;
      r := !lo;
      j0 := 1;
      let kc = st.(2 * !r) and b = st.((2 * !r) + 1) in
      let k = first_of kc and c = second_of kc and b0 = first_of b in
      if k >= 0 then begin
        u.kx <- gx w k;
        u.ky <- gy w k;
        u.last <- u.kx;
        z.cnt <- 1
      end;
      if c >= 0 then begin
        u.cx <- gx w c;
        u.cy <- gy w c;
        u.last <- u.cx;
        z.cnt <- 2
      end;
      if b0 >= 0 then begin
        let b1 = second_of b in
        z.found <- true;
        u.bx0 <- gx w b0;
        u.by0 <- gy w b0;
        u.bx1 <- gx w b1;
        u.by1 <- gy w b1
      end
    end;
    let r = !r and j0 = !j0 in
    let can_stop = f.guard < n && !peak <= f.bound in
    let stop_x = if can_stop then gx w f.guard else Float.infinity in
    let i = ref r and j = ref j0 and result = ref None and go = ref true in
    while !go do
      if !i >= n && !j >= m then begin
        result := up_close u z level;
        go := false
      end
      else begin
        let xa = if !i < n then gx w !i else Float.infinity
        and xb = if !j < m then gx env !j else Float.infinity in
        if
          can_stop
          && Float.min xa xb >= stop_x
          && (z.cnt = 0 || u.ky >= level)
          && (z.cnt < 2 || u.cy >= level)
        then begin
          result := up_found u z level;
          go := false
        end
        else if xa <= xb then begin
          let i0 = !i in
          let kc = st.(2 * i0) in
          let k' = first_of kc and c' = second_of kc in
          if
            !j >= m && z.cnt >= 2 && c' >= 0 && xa > lead
            && u.cx = gx w c' && u.cy = gy w c' && u.kx = gx w k' && u.ky = gy w k'
          then begin
            result :=
              if f.rec_at >= i0 then f.answer
              else if f.last_y < level then None
              else up_found u z level;
            go := false
          end
          else begin
            i := i0 + 1;
            if xa -. u.last > x_eps then begin
              up_point u z level xa (gy w i0 +. value_at env.buf env.off m !j xa);
              u.last <- xa
            end
          end
        end
        else begin
          let j' = !j in
          j := j' + 1;
          if xb -. u.last > x_eps then begin
            up_point u z level xb (value_at w.buf w.off n !i xb +. gy env j');
            u.last <- xb
          end
        end
      end
    done;
    f.visited <- f.visited + (!i - r) + (!j - j0);
    !result
  end

(* k-way superposition: one pass over the union of all operand
   breakpoints. The operands are packed in one slice: operand c's
   breakpoints lie interleaved in [src] from position [beg.(c)] up to
   [stop.(c)], exclusive. The sum is written at (dst, doff), which has
   room for their total breakpoint count and overlaps none of them, and
   both fronts return the points written, not yet simplified. Each
   operand has a cursor, the position of its first unconsumed
   breakpoint, with the co-scan's invariant, and a point evaluates an
   operand as [value_at] does. Both fronts add the merged abscissae to
   [noise.sum_points] and the operand evaluations to [noise.sum_terms],
   once per call.

   - [sum_scan], the general one, finds the next abscissa by a linear
     min-scan and evaluates every operand at every output point. It
     stops at an x = infinity breakpoint.
   - [sum_front] serves operands whose two end ordinates are zero and
     whose end abscissae are finite (every noise envelope). A binary
     heap keyed by each operand's next breakpoint yields the abscissae,
     and a point only evaluates the operands strictly inside their span
     — kept in operand order in [act], their cursors beside them in
     [apos], so a term reads one int array and the slice. Every skipped
     operand contributes
     exactly +0. or -0. to the full sum; the accumulator starts at +0.
     and a round-to-nearest sum is -0. only when both terms are, so it
     is never -0. and adding a zero leaves it unchanged. An operand
     inside its span has a breakpoint on each side of the point, so its
     term is [value_at]'s exact hit or interpolation, without the end
     cases. The result is therefore bit-identical to [sum_scan]'s. With
     three operands or fewer the heap costs more than the scans it
     saves. *)

let m_sum_points = Tka_obs.Metrics.Counter.make "noise.sum_points"
let m_sum_terms = Tka_obs.Metrics.Counter.make "noise.sum_terms"

let count_sum points terms =
  Tka_obs.Metrics.Counter.add m_sum_points points;
  Tka_obs.Metrics.Counter.add m_sum_terms terms

let sum_scan src beg stop dst doff =
  let r = Array.length beg in
  let cur = Array.copy beg in
  let m = ref 0 in
  let last = ref Float.neg_infinity in
  let go = ref true in
  while !go do
    (* front: smallest unconsumed breakpoint across the operands *)
    let x = ref Float.infinity in
    for c = 0 to r - 1 do
      let p = cur.(c) in
      if p < stop.(c) && src.(p) < !x then x := src.(p)
    done;
    let x = !x in
    if x = Float.infinity then go := false
    else begin
      if x -. !last > x_eps then begin
        let acc = ref 0. in
        for c = 0 to r - 1 do
          let b = beg.(c) in
          acc := !acc +. value_at src b ((stop.(c) - b) / 2) ((cur.(c) - b) / 2) x
        done;
        dst.(doff + (2 * !m)) <- x;
        dst.(doff + (2 * !m) + 1) <- !acc;
        incr m;
        last := x
      end;
      for c = 0 to r - 1 do
        let p = cur.(c) in
        if p < stop.(c) && src.(p) = x then cur.(c) <- p + 2
      done
    end
  done;
  count_sum !m (!m * r);
  !m

(* Restores the heap order below [hx.(i)], [hc.(i)] in [size] entries:
   the entry moves down past every child that is strictly smaller,
   taking the smaller child when both are. Every index read is below
   [size], which is at most the arrays' length, so the accesses go
   unchecked. *)
let sift_down (hx : float array) (hc : int array) size i =
  let x = Array.unsafe_get hx i and c = Array.unsafe_get hc i in
  let i = ref i and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= size then go := false
    else begin
      let j =
        if l + 1 < size && Array.unsafe_get hx (l + 1) < Array.unsafe_get hx l then l + 1
        else l
      in
      if Array.unsafe_get hx j < x then begin
        Array.unsafe_set hx !i (Array.unsafe_get hx j);
        Array.unsafe_set hc !i (Array.unsafe_get hc j);
        i := j
      end
      else go := false
    end
  done;
  Array.unsafe_set hx !i x;
  Array.unsafe_set hc !i c

let sum_front src beg stop dst doff =
  let r = Array.length beg in
  let cur = Array.copy beg in
  (* min-heap of (next abscissa, operand), each pushed and sifted up in
     operand order *)
  let hx = Array.make r 0. and hc = Array.make r 0 in
  for c = 0 to r - 1 do
    let x = src.(beg.(c)) in
    let i = ref c in
    while !i > 0 && x < hx.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      hx.(!i) <- hx.(p);
      hc.(!i) <- hc.(p);
      i := p
    done;
    hx.(!i) <- x;
    hc.(!i) <- c
  done;
  let size = ref r in
  (* the operands strictly inside their span, ascending, beside their
     cursors; [slot.(c)] is operand c's place among them *)
  let act = Array.make r 0 and apos = Array.make r 0 and slot = Array.make r 0 in
  let na = ref 0 in
  let m = ref 0 and terms = ref 0 in
  let last = ref Float.neg_infinity in
  while !size > 0 do
    let x = hx.(0) in
    if x -. !last > x_eps then begin
      (* an active cursor lies strictly inside its operand, so it and
         the breakpoint before it are in [src]: the reads go unchecked *)
      let acc = ref 0. in
      for j = 0 to !na - 1 do
        let p = Array.unsafe_get apos j in
        let x1 = Array.unsafe_get src p and y1 = Array.unsafe_get src (p + 1) in
        if x1 = x then acc := !acc +. y1
        else begin
          let x0 = Array.unsafe_get src (p - 2) and y0 = Array.unsafe_get src (p - 1) in
          acc := !acc +. (y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0)))
        end
      done;
      terms := !terms + !na;
      dst.(doff + (2 * !m)) <- x;
      dst.(doff + (2 * !m) + 1) <- !acc;
      incr m;
      last := x
    end;
    (* consume every breakpoint at x *)
    while !size > 0 && hx.(0) = x do
      let c = hc.(0) in
      let p = cur.(c) + 2 in
      cur.(c) <- p;
      if p < stop.(c) then begin
        if p - 2 = beg.(c) then begin
          (* first breakpoint consumed: the operand enters its span *)
          let j = ref !na in
          while !j > 0 && act.(!j - 1) > c do
            let c' = act.(!j - 1) in
            act.(!j) <- c';
            apos.(!j) <- apos.(!j - 1);
            slot.(c') <- !j;
            decr j
          done;
          act.(!j) <- c;
          apos.(!j) <- p;
          slot.(c) <- !j;
          incr na
        end
        else apos.(slot.(c)) <- p;
        hx.(0) <- src.(p)
      end
      else begin
        if p - 2 > beg.(c) then begin
          (* last breakpoint consumed: the operand leaves its span *)
          for k = slot.(c) to !na - 2 do
            let c' = act.(k + 1) in
            act.(k) <- c';
            apos.(k) <- apos.(k + 1);
            slot.(c') <- k
          done;
          decr na
        end;
        decr size;
        hx.(0) <- hx.(!size);
        hc.(0) <- hc.(!size)
      end;
      sift_down hx hc !size 0
    done
  done;
  count_sum !m !terms;
  !m

let zero_ended src b e =
  src.(b + 1) = 0.
  && src.(e - 1) = 0.
  && Float.is_finite src.(b)
  && Float.is_finite src.(e - 2)

(* The sum of the (two or more) operands packed in [src], at (dst, doff) *)
let sum_into src beg stop dst doff =
  let r = Array.length beg in
  let front = ref (r > 3) in
  for c = 0 to r - 1 do
    if !front && not (zero_ended src beg.(c) stop.(c)) then front := false
  done;
  if !front then sum_front src beg stop dst doff else sum_scan src beg stop dst doff

(* The operands are copied behind the room for the sum, so the fronts
   read one slice whoever allocated them. *)
let sum = function
  | [] -> zero
  | [ w ] -> w
  | ws ->
    let r = List.length ws in
    let cap = List.fold_left (fun acc o -> acc + o.len) 0 ws in
    let alloc = 4 * cap in
    let buf, off = Arena.alloc alloc in
    let beg = Array.make r 0 and stop = Array.make r 0 in
    List.iteri
      (fun c o ->
        let b = if c = 0 then off + (2 * cap) else stop.(c - 1) in
        Array.blit o.buf o.off buf b (2 * o.len);
        beg.(c) <- b;
        stop.(c) <- b + (2 * o.len))
      ws;
    let n = simplify_into buf off (sum_into buf beg stop buf off) in
    Arena.shrink_last buf off ~alloc ~used:(2 * n);
    mk buf off n

(* Pointwise max/min need the crossing abscissae inserted: within one
   cell of the co-scan both functions are linear, so they cross at most
   once. Each merged point plus at most one crossing per cell bounds
   the output by 2 * (na + nb). *)
let extremum2 pickhi a b =
  let cap = 2 * (a.len + b.len) in
  let buf, off = Arena.alloc (2 * cap) in
  let m = ref 0 in
  let px = ref 0. and pya = ref 0. and pyb = ref 0. in
  let have_prev = ref false in
  let s, p = scan_start () in
  while scan_next a b s p do
    let x = p.px and ya = p.pya and yb = p.pyb in
    if !have_prev then begin
      let d0 = !pya -. !pyb and d1 = ya -. yb in
      if (d0 > 0. && d1 < 0.) || (d0 < 0. && d1 > 0.) then begin
        let xc = !px +. ((x -. !px) *. d0 /. (d0 -. d1)) in
        if xc > !px +. x_eps && xc < x -. x_eps then begin
          let f = (xc -. !px) /. (x -. !px) in
          let yac = !pya +. ((ya -. !pya) *. f)
          and ybc = !pyb +. ((yb -. !pyb) *. f) in
          buf.(off + (2 * !m)) <- xc;
          buf.(off + (2 * !m) + 1) <-
            (if pickhi then Float.max yac ybc else Float.min yac ybc);
          incr m
        end
      end
    end;
    buf.(off + (2 * !m)) <- x;
    buf.(off + (2 * !m) + 1) <- (if pickhi then Float.max ya yb else Float.min ya yb);
    incr m;
    px := x;
    pya := ya;
    pyb := yb;
    have_prev := true
  done;
  finish buf off ~cap !m

let max2 a b = extremum2 true a b
let min2 a b = extremum2 false a b

(* Balanced pairwise reduction: log k rounds of two-cursor merges,
   O(total breakpoints * log k) instead of the left fold's O(k^2 * n)
   re-merges of an ever-growing accumulator. *)
let max_list = function
  | [] -> invalid_arg "Pwl.max_list: empty list"
  | ws ->
    let rec pair = function
      | a :: b :: tl -> max2 a b :: pair tl
      | rest -> rest
    in
    let rec round = function [ w ] -> w | ws -> round (pair ws) in
    round ws

let clip_min lo t = max2 t (constant lo)
let clip_max hi t = min2 t (constant hi)

let dominates ?(eps = F.default_eps) a b =
  (* Within each cell of the co-scan (a - b) is linear, so checking the
     merged abscissae suffices; constant extension is covered by the
     first and last of them. The peak comparison is a free O(1)
     rejection: if b's supremum clears a's by more than eps, a cannot
     dominate at b's argmax. The scan stops at the first violation —
     this is the hot inner loop of [Ilist.prune]. *)
  a == b
  || max_value a >= max_value b -. eps
     && begin
          let ok = ref true in
          let s, p = scan_start () in
          while !ok && scan_next a b s p do
            if not (p.pya >= p.pyb -. eps) then ok := false
          done;
          !ok
        end

(* Where a waveform meets a dominance interval: its values at both
   ends ([eval]'s, bit for bit) and [seek], the index of its first
   breakpoint past [lo]. Computed once per waveform and interval, they
   replace the endpoint evaluations and the scan prefix of every
   dominance test the waveform takes part in. *)
type ends = { lo_y : float; hi_y : float; seek : int }

let ends interval t =
  let lo = Interval.lo interval and hi = Interval.hi interval in
  let i = seg_index t lo in
  { lo_y = eval_seg t i lo; hi_y = eval t hi; seek = i + 1 }

(* A co-scan of [a] and [b] started at the interval instead of at index
   0. Starting at the first merged abscissa past [lo] would be wrong
   only when the full scan's [x_eps] dedupe could drop that point
   because of an earlier one, so the start steps back over merged
   abscissae until the first one to visit lies more than [x_eps] past
   the one before it (or nothing precedes it). The full scan emits such
   a point whatever it emitted earlier, so with [plast] seeded to the
   abscissa before it both scans emit the same points with the same
   cursors from there on; the points before [lo] that the step-back
   adds are skipped by the callers as before. *)
let scan_seek a ea b eb =
  let i = ref ea.seek and j = ref eb.seek in
  let plast = ref Float.neg_infinity and go = ref true in
  while !go && (!i > 0 || !j > 0) do
    let pa = if !i > 0 then gx a (!i - 1) else Float.neg_infinity
    and pb = if !j > 0 then gx b (!j - 1) else Float.neg_infinity in
    let prev = Float.max pa pb in
    let next =
      Float.min
        (if !i < a.len then gx a !i else Float.infinity)
        (if !j < b.len then gx b !j else Float.infinity)
    in
    if next -. prev > x_eps then begin
      plast := prev;
      go := false
    end
    else begin
      if !i > 0 && pa = prev then decr i;
      if !j > 0 && pb = prev then decr j
    end
  done;
  ({ si = !i; sj = !j }, { px = 0.; pya = 0.; pyb = 0.; plast = !plast })

let dominates_on ?(eps = F.default_eps) interval a ea b eb =
  let lo = Interval.lo interval and hi = Interval.hi interval in
  ea.lo_y >= eb.lo_y -. eps
  && ea.hi_y >= eb.hi_y -. eps
  && begin
       (* interior merged points only; the scan is ascending, so stop
          once past [hi] *)
       let good = ref true and go = ref true in
       let s, p = scan_seek a ea b eb in
       while !go && scan_next a b s p do
         let x = p.px in
         if x <= lo then ()
         else if x >= hi then go := false
         else if not (p.pya >= p.pyb -. eps) then begin
           good := false;
           go := false
         end
       done;
       !good
     end

(* Both directions of [dominates_on] from one co-scan. The merged
   abscissae and the values the co-scan reports at them do not depend
   on operand order, so testing [yb >= ya - eps] here is exactly the
   test [dominates_on interval b eb a ea] makes. *)
let dominates_on_pair ?(eps = F.default_eps) interval a ea b eb =
  let lo = Interval.lo interval and hi = Interval.hi interval in
  let fwd = ref (ea.lo_y >= eb.lo_y -. eps && ea.hi_y >= eb.hi_y -. eps)
  and bwd = ref (eb.lo_y >= ea.lo_y -. eps && eb.hi_y >= ea.hi_y -. eps) in
  if !fwd || !bwd then begin
    let go = ref true in
    let s, p = scan_seek a ea b eb in
    while !go && scan_next a b s p do
      let x = p.px and ya = p.pya and yb = p.pyb in
      if x <= lo then ()
      else if x >= hi then go := false
      else begin
        if !fwd && not (ya >= yb -. eps) then fwd := false;
        if !bwd && not (yb >= ya -. eps) then bwd := false;
        go := !fwd || !bwd
      end
    done
  end;
  (!fwd, !bwd)

let equal ?(eps = F.default_eps) a b = dominates ~eps a b && dominates ~eps b a

let last_upcrossing t level =
  let n = t.len in
  if gy t (n - 1) < level then None
  else begin
    (* rightmost index strictly below the level *)
    let rec find i =
      if i < 0 then None else if gy t i < level then Some i else find (i - 1)
    in
    match find (n - 1) with
    | None -> None (* never below: no upward crossing *)
    | Some i ->
      (* segment (i, i+1) rises through the level; i < n-1 because the
         last value is >= level. *)
      let x0 = gx t i and x1 = gx t (i + 1) in
      let y0 = gy t i and y1 = gy t (i + 1) in
      Some (x0 +. ((x1 -. x0) *. (level -. y0) /. (y1 -. y0)))
  end

let first_upcrossing t level =
  let n = t.len in
  if gy t 0 >= level then None
  else begin
    let rec find i =
      if i >= n then None else if gy t i >= level then Some i else find (i + 1)
    in
    match find 1 with
    | None -> None
    | Some j ->
      let x0 = gx t (j - 1) and x1 = gx t j in
      let y0 = gy t (j - 1) and y1 = gy t j in
      if F.approx y1 y0 then Some x1
      else Some (x0 +. ((x1 -. x0) *. (level -. y0) /. (y1 -. y0)))
  end

let crossings t level =
  let n = t.len in
  let out = ref [] in
  let push x =
    match !out with
    | x' :: _ when Float.abs (x -. x') <= x_eps -> ()
    | _ -> out := x :: !out
  in
  for i = 0 to n - 1 do
    if F.approx (gy t i) level then push (gx t i);
    if i < n - 1 then begin
      let d0 = gy t i -. level and d1 = gy t (i + 1) -. level in
      if (d0 > 0. && d1 < 0.) || (d0 < 0. && d1 > 0.) then
        push (gx t i +. ((gx t (i + 1) -. gx t i) *. d0 /. (d0 -. d1)))
    end
  done;
  List.rev !out

(* [is_unimodal] on the [n] breakpoints at (buf, off) *)
let unimodal_in eps buf off n =
  let ok = ref true and seen_down = ref false and i = ref 0 in
  while !ok && !i < n - 1 do
    let dy = buf.(off + (2 * (!i + 1)) + 1) -. buf.(off + (2 * !i) + 1) in
    if dy > eps then ok := not !seen_down
    else if dy < -.eps then seen_down := true;
    incr i
  done;
  !ok

let is_unimodal ?(eps = F.default_eps) t = unimodal_in eps t.buf t.off t.len

(* [F.not_nan] on a breakpoint, inline: a call would box both floats. *)
let[@inline] put_point buf off m x y =
  if Float.is_nan x then invalid_arg "Pwl: breakpoint abscissa: NaN";
  if Float.is_nan y then invalid_arg "Pwl: breakpoint ordinate: NaN";
  buf.(off + (2 * m)) <- x;
  buf.(off + (2 * m) + 1) <- y

(* The sweep of the [n] unimodal breakpoints at (src, so) over a window
   wider than [x_eps]: the rising part, the flat top, then the falling
   part shifted by the window, written unsimplified at (dst, doff),
   which must not overlap the source. Returns the count written, at
   most [n + 2]. *)
let[@inline] sweep_points src so n ~window dst doff =
  (* [max_value]'s scan *)
  let peak = ref src.(so + 1) in
  for i = 1 to n - 1 do
    if src.(so + (2 * i) + 1) > !peak then peak := src.(so + (2 * i) + 1)
  done;
  let peak = !peak in
  (* first and last abscissae attaining the peak, by [F.approx] *)
  let xp_first = ref src.(so) and xp_last = ref src.(so) and found = ref false in
  for i = 0 to n - 1 do
    let y = src.(so + (2 * i) + 1) in
    if y = peak || Float.abs (y -. peak) <= F.default_eps then begin
      if not !found then xp_first := src.(so + (2 * i));
      xp_last := src.(so + (2 * i));
      found := true
    end
  done;
  let m = ref 0 in
  for i = 0 to n - 1 do
    let x = src.(so + (2 * i)) in
    if x < !xp_first -. x_eps then begin
      put_point dst doff !m x src.(so + (2 * i) + 1);
      incr m
    end
  done;
  put_point dst doff !m !xp_first peak;
  put_point dst doff (!m + 1) (!xp_last +. window) peak;
  m := !m + 2;
  for i = 0 to n - 1 do
    let x = src.(so + (2 * i)) in
    if x > !xp_last +. x_eps then begin
      put_point dst doff !m (x +. window) src.(so + (2 * i) + 1);
      incr m
    end
  done;
  !m

let sliding_max ~window t =
  if window < 0. then invalid_arg "Pwl.sliding_max: negative window";
  if not (is_unimodal t) then
    invalid_arg "Pwl.sliding_max: waveform is not unimodal";
  if window <= x_eps then t
  else begin
    let cap = t.len + 2 in
    let buf, off = Arena.alloc (2 * cap) in
    finish buf off ~cap (sweep_points t.buf t.off t.len ~window buf off)
  end

(* ------------------------------------------------------------------ *)
(* Swept pulses                                                       *)
(* ------------------------------------------------------------------ *)
(* [sum_swept] fuses [create], [shift_x], [sliding_max] and [sum] for
   the superposition of noise envelopes: each operand's points are
   written, simplified, shifted and swept inside one arena slice, with
   the same float operations in the same order as the composed path,
   and the sum is written into the front of that slice by the same
   fronts as [sum]. Only points closer than [x_eps] — which [create]
   sorts and merges, or rejects — take the composed path, and are
   counted. *)

let m_sweep_fallbacks = Tka_obs.Metrics.Counter.make "noise.envelope_fallbacks"

(* One operand: the [k] points at buf.(s) go through [create]'s
   well-spaced path into scratch at buf.(o + 2 (k + 2)), are shifted by
   buf.(s + 2k) and swept over buf.(s + 2k + 1) into buf.(o), which has
   room for the [k + 2] points a sweep may write. Returns the point
   count, or -1 when the points are not well spaced. *)
let sweep_one buf o s k =
  let spaced = ref true in
  for i = 1 to k - 1 do
    if not (buf.(s + (2 * i)) -. buf.(s + (2 * (i - 1))) > x_eps) then spaced := false
  done;
  if not !spaced then -1
  else begin
    let t = o + (2 * (k + 2)) in
    for i = 0 to k - 1 do
      put_point buf t i buf.(s + (2 * i)) buf.(s + (2 * i) + 1)
    done;
    let n = simplify_into buf t k in
    let d = buf.(s + (2 * k)) and window = buf.(s + (2 * k) + 1) in
    for i = 0 to n - 1 do
      buf.(t + (2 * i)) <- buf.(t + (2 * i)) +. d
    done;
    if window < 0. then invalid_arg "Pwl.sliding_max: negative window";
    if not (unimodal_in F.default_eps buf t n) then
      invalid_arg "Pwl.sliding_max: waveform is not unimodal";
    if window <= x_eps then begin
      Array.blit buf t buf o (2 * n);
      n
    end
    else simplify_into buf o (sweep_points buf t n ~window buf o)
  end

(* [sliding_max (shift_x (create pts))] for the record at buf.(s), the
   composed path [sweep_one] declines *)
let sweep_composed buf s k =
  Tka_obs.Metrics.Counter.incr m_sweep_fallbacks;
  let pts = List.init k (fun i -> (buf.(s + (2 * i)), buf.(s + (2 * i) + 1))) in
  sliding_max ~window:buf.(s + (2 * k) + 1) (shift_x buf.(s + (2 * k)) (create pts))

(* Writes the record of each of [xs] in turn at buf.(s), sweeps it into
   buf.(p) and on, and notes where operand [c] and the ones after it lie
   in [beg] and [stop]. A record the composed path sweeps is copied in
   behind the others: it has at most [k + 2] points too. *)
let rec sweep_all write buf s k beg stop c p = function
  | [] -> ()
  | x :: tl ->
    write buf s x;
    let m = sweep_one buf p s k in
    let m =
      if m >= 0 then m
      else begin
        let o = sweep_composed buf s k in
        Array.blit o.buf o.off buf p (2 * o.len);
        o.len
      end
    in
    beg.(c) <- p;
    stop.(c) <- p + (2 * m);
    sweep_all write buf s k beg stop (c + 1) (p + (2 * m)) tl

let sum_swept ~points:k write xs =
  if k < 1 then invalid_arg "Pwl.sum_swept: points must be positive";
  let cap = k + 2 in
  match xs with
  | [] -> zero
  | [ x ] ->
    (* the operand, then one scratch, then its record *)
    let alloc = (2 * (cap + k)) + (2 * k) + 2 in
    let buf, off = Arena.alloc alloc in
    let s = off + (2 * (cap + k)) in
    write buf s x;
    let m = sweep_one buf off s k in
    if m >= 0 then begin
      Arena.shrink_last buf off ~alloc ~used:(2 * m);
      mk buf off m
    end
    else sweep_composed buf s k
  | _ :: _ :: _ ->
    (* the sum's points, the operands', one scratch, then the record
       being swept *)
    let n = List.length xs in
    let total = (2 * n * cap) + k in
    let alloc = (2 * total) + (2 * k) + 2 in
    let buf, off = Arena.alloc alloc in
    let beg = Array.make n 0 and stop = Array.make n 0 in
    sweep_all write buf (off + (2 * total)) k beg stop 0 (off + (2 * n * cap)) xs;
    let m = simplify_into buf off (sum_into buf beg stop buf off) in
    Arena.shrink_last buf off ~alloc ~used:(2 * m);
    mk buf off m

let area t =
  let n = t.len in
  let acc = ref 0. in
  for i = 0 to n - 2 do
    acc := !acc +. (0.5 *. (gy t i +. gy t (i + 1)) *. (gx t (i + 1) -. gx t i))
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<h>pwl[";
  for i = 0 to t.len - 1 do
    if i > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "(%g, %g)" (gx t i) (gy t i)
  done;
  Format.fprintf ppf "]@]"

let to_string t = Format.asprintf "%a" pp t
