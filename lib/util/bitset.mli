(** Fixed-capacity mutable bitsets over a dense integer universe.

    Built for the engine's per-victim primary-aggressor universe:
    membership, subset and intersection tests are straight word
    arithmetic over an int array, replacing id-list scans on the hot
    extension path. Not domain-safe under concurrent mutation; each
    bitset is owned by one enumeration. *)

type t

val make : int -> t
(** [make n] is the empty set over universe [0, n). *)

val capacity : t -> int

val set : t -> int -> unit
val mem : t -> int -> bool

val clear : t -> unit
(** Remove every element (for scratch reuse). *)

val subset : t -> t -> bool
(** [subset a b]: every element of [a] is in [b]. Capacities must
    match. *)

val intersects : t -> t -> bool
(** [intersects a b]: the sets share at least one element. Capacities
    must match. *)

val is_empty : t -> bool
val iter : (int -> unit) -> t -> unit
