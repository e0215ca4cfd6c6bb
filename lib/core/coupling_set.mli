(** Immutable sets of directed aggressor–victim couplings.

    The unit of the top-k problem, matching the paper's "aggressor–
    victim coupling": elements are {e directed} coupling ids
    ({!Tka_noise.Coupled_noise.directed_id} — a physical coupling cap
    seen from one victim side). A top-k addition/elimination set is a
    value of this type with {!cardinality} k. Represented as sorted
    duplicate-free int arrays — the sets are tiny (≤ k ≈ 75) and
    comparison/union dominate, so the members live in one flat block
    and membership is a binary search. *)

type t

type elt = int
(** A directed coupling id. *)

val empty : t
val singleton : elt -> t
val of_list : elt list -> t
val to_list : t -> elt list

val cardinality : t -> int
val mem : elt -> t -> bool
val add : elt -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val disjoint : t -> t -> bool
val subset : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val hash_key : t -> string
(** Canonical dedupe key: the sorted directed-coupling ids joined by
    commas. Injective over well-formed sets, so it can stand in for the
    set in hash tables without polymorphic structural hashing of the
    underlying list (the hot-path cost in {!Ilist.prune}). *)

val hash : t -> int
(** FNV-1a over the members: allocation-free alternative to
    {!hash_key} for int-keyed tables. *)

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed directly by coupling sets ({!hash}/{!equal}),
    replacing the string-keyed dedupe tables. *)

val dedup : t list -> t list
(** Drop repeated sets, keeping each first occurrence in order. *)

val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (elt -> unit) -> t -> unit
val exists : (elt -> bool) -> t -> bool

val pad : universe:int -> target:int -> t -> t option
(** [pad ~universe ~target s] grows [s] to exactly [target] elements by
    adding the smallest directed ids below [universe] not already in
    [s]; [None] when the universe is too small. Used to keep reported
    top-k curves monotone: activating (removing) a superset never adds
    (recovers) less delay. *)

val pp : Format.formatter -> t -> unit
val describe : Tka_circuit.Netlist.t -> t -> string
(** Human-readable "aggressor->victim (cap)" listing. *)
