(** Exact piecewise-linear functions of time.

    A value represents a total function [f : R -> R] given by breakpoints
    [(x_i, y_i)] with strictly increasing [x_i], linear interpolation
    between consecutive breakpoints, and constant extension beyond both
    ends ([f x = y_0] for [x <= x_0], [f x = y_n] for [x >= x_n]).

    All waveform objects of the noise analysis — transitions, noise
    pulses, trapezoidal noise envelopes, combined envelopes, noisy
    transitions — live in this algebra, and every operation below is
    exact (no sampling), which makes dominance checks and delay-noise
    [t50] computations exact as well.

    The binary and n-ary operations ({!add}, {!sub}, {!sum}, {!max2},
    {!dominates}, …) are single-pass cursor merges over the breakpoint
    arrays: no intermediate merged grid is allocated and no per-point
    binary search is performed (see docs/performance.md for the kernel
    design). Breakpoints are rejected when NaN; {!max_value} is
    memoised per waveform. *)

type t

(** {1 Construction} *)

val create : (float * float) list -> t
(** [create pts] builds the PWL through [pts]. Points are sorted;
    duplicate abscissae (within tolerance) must carry equal ordinates or
    [Invalid_argument] is raised. The list must be non-empty. Collinear
    interior points are simplified away. Input that is already strictly
    increasing with gaps wider than the tolerance skips the sort and
    the merge. *)

val constant : float -> t
(** The constant function. Raises [Invalid_argument] on NaN. *)

val zero : t

(** {1 Observation} *)

val eval : t -> float -> float
(** [eval f x]: exact value at [x] (binary search + interpolation). *)

val breakpoints : t -> (float * float) list
(** Simplified breakpoint list, strictly increasing in x. *)

val first_x : t -> float
val last_x : t -> float

val is_constant : t -> bool

val max_value : t -> float
(** Supremum of [f] (attained at a breakpoint or at infinity = end
    values). Memoised: O(n) the first time, O(1) after. *)

val min_value : t -> float

val max_on : Tka_util.Interval.t -> t -> float
(** Maximum over a closed interval. *)

val min_on : Tka_util.Interval.t -> t -> float

val support : ?eps:float -> t -> Tka_util.Interval.t option
(** Smallest interval outside which [|f| <= eps], or [None] when [f] is
    (tolerantly) zero everywhere. Meaningful for pulse-like functions
    whose end values are zero. *)

(** {1 Pointwise arithmetic} *)

val scale : float -> t -> t
val neg : t -> t
val shift_x : float -> t -> t
val shift_y : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t

val sum : t list -> t
(** Pointwise sum of all operands in one k-way breakpoint merge (no
    intermediate waveforms), accumulated in operand order.
    [sum [] = zero]. The operands are first copied into one slice
    behind the room for the result. When there are more than three
    operands and each has zero end ordinates and finite end abscissae
    (noise envelopes), a heap front visits the merged abscissae and
    each point adds only the operands strictly inside their span; the
    skipped terms are exact zeros, so the result is bit-identical to
    adding them all. Otherwise a linear min-scan front adds every
    operand at every point. Each sum of two or more operands adds its
    merged abscissae to the [noise.sum_points] counter and its operand
    evaluations to [noise.sum_terms]. *)

val max2 : t -> t -> t
(** Exact pointwise maximum (inserts crossing abscissae). *)

val min2 : t -> t -> t

val max_list : t list -> t
(** Pointwise maximum of a non-empty list, reduced as a balanced
    tournament of {!max2} merges (log k rounds). *)

val clip_min : float -> t -> t
(** [clip_min lo f] is [max f lo] pointwise. *)

val clip_max : float -> t -> t

(** {1 Comparison} *)

val dominates : ?eps:float -> t -> t -> bool
(** [dominates a b]: [a x >= b x - eps] for all [x]. This is the
    envelope-encapsulation test of the paper's dominance property.
    A two-cursor co-scan with a peak prefilter; returns at the first
    violated point. *)

type ends
(** A waveform's values at both ends of an interval and the position
    where a co-scan of it enters the interval. *)

val ends : Tka_util.Interval.t -> t -> ends
(** [ends i f]: computed once per waveform and interval (two binary
    searches), then passed to every dominance test of [f] on [i]. *)

val dominates_on :
  ?eps:float -> Tka_util.Interval.t -> t -> ends -> t -> ends -> bool
(** [dominates_on i a ea b eb]: {!dominates} restricted to the closed
    interval [i] (the dominance interval of Section 3.2), where
    [ea = ends i a] and [eb = ends i b]. The co-scan starts at the
    interval, not at the first breakpoints, and visits exactly the
    points a scan from the start would visit there. *)

val dominates_on_pair :
  ?eps:float -> Tka_util.Interval.t -> t -> ends -> t -> ends -> bool * bool
(** [dominates_on_pair i a ea b eb] is exactly
    [(dominates_on i a ea b eb, dominates_on i b eb a ea)], computed with
    one co-scan that stops once both directions have failed or the scan
    passes the interval. *)

val equal : ?eps:float -> t -> t -> bool

(** {1 Crossings} *)

val last_upcrossing : t -> float -> float option
(** [last_upcrossing f level] is the largest [x] with [f x = level] and
    [f] below [level] immediately before [x], i.e. the final time the
    waveform rises through [level]. [None] if [f] never reaches [level]
    from below, or only sits at it. For a noisy rising transition this is
    the noisy [t50] when [level = 0.5]. *)

val last_upcrossing2 : neg:bool -> t -> t -> float -> float option
(** [last_upcrossing2 ~neg a b level] is
    [last_upcrossing (if neg then sub a b else add a b) level], bit for
    bit, from one co-scan that builds no waveform: the combined points
    are simplified and searched as they are scanned. *)

type floor
(** An index of one waveform (the floor) for {!floor_upcrossing}: a
    private copy of its breakpoints, which outlives the arena scope it
    was built in, and the state of {!last_upcrossing2}'s scan of it
    plus {!zero} before each of them. *)

val floor_index : level:float -> t -> floor
(** [floor_index ~level floor]: one pass over [floor]. Raises
    [Invalid_argument] on a waveform without breakpoints. *)

val floor_upcrossing : floor -> t -> float option
(** [floor_upcrossing (floor_index ~level floor) env] is
    [last_upcrossing2 ~neg:false floor env level], bit for bit. When
    [env] starts and ends at a zero ordinate and is nowhere negative (a
    noise envelope), the co-scan starts at the recorded state past
    [env]'s leading zero when [env] starts where {!zero}'s breakpoint
    lies, as every sum built on {!zero} does, and ends where it
    rejoins the recorded state past [env]'s end, or where no later
    point can fall below [level]; otherwise the call is
    [last_upcrossing2] (a fallback). *)

val floor_counts : floor -> int * int * int
(** The breakpoints {!floor_upcrossing} visited, the breakpoints a full
    co-scan would have visited (floor plus [env], per call) and the
    fallbacks, since the index was built or last asked; resets them. *)

val first_upcrossing : t -> float -> float option

val crossings : t -> float -> float list
(** All crossing abscissae of [level], ascending. Intervals where [f]
    equals [level] exactly contribute their endpoints. *)

(** {1 Specials} *)

val sliding_max : window:float -> t -> t
(** [sliding_max ~window:w f] is [g x = max over s in \[0, w\] of f (x - s)]
    for [w >= 0] — the waveform swept over a time window, used to turn a
    noise pulse into the trapezoidal noise envelope of Fig. 2 of the
    paper. Requires [f] to be unimodal (non-decreasing then
    non-increasing); raises [Invalid_argument] otherwise. *)

val sum_swept : points:int -> (float array -> int -> 'a -> unit) -> 'a list -> t
(** [sum_swept ~points:k write xs] superposes swept pulses. For each
    [x] of [xs], in order, [write buf s x] stores one record of
    [2k + 2] floats at [buf.(s)]: [k] breakpoints [(x, y)]
    interleaved, then a shift [d] and a window [w]. The result is,
    bit for bit and with the same exceptions,
    [sum (List.map (fun (pts, d, w) -> sliding_max ~window:w (shift_x d
    (create pts))) records)] — built in one arena slice, with no
    intermediate waveform. Records whose points are closer than the
    merge tolerance take that composed path, whose result is copied
    into the slice, and bump the [noise.envelope_fallbacks] counter. *)

val is_unimodal : ?eps:float -> t -> bool

val area : t -> float
(** Integral of [f] between its first and last breakpoints. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
