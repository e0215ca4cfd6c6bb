(** Domain-local flat float arenas for PWL breakpoint slices.

    {!Pwl.t} values are (buffer, offset, length) slices of bump-allocated
    chunks handed out here; a kernel allocates a worst-case slice, writes
    its result, and returns the unused tail with {!shrink_last}. Chunks
    are plain float arrays referenced only through the slices, so memory
    comes back via the GC when an analysis drops its waveforms, or
    straight away when the slices were allocated inside {!scoped}.

    Lifetime rule: no slice may escape the analysis that allocated it —
    an escaping slice pins its entire chunk (see docs/performance.md,
    "scaling") — and no slice allocated inside {!scoped} may outlive the
    scope. Each chunk allocation bumps the [arena.chunks] counter. *)

val alloc : int -> float array * int
(** [alloc n] returns [(buf, off)] with [n] floats available at
    [buf.(off) .. buf.(off + n - 1)]. The floats are not cleared —
    a slice reusing a {!shrink_last}-returned tail or a rewound
    {!scoped} region holds stale values, so write before reading.
    Requests too large for a chunk get a dedicated exact array. *)

val shrink_last : float array -> int -> alloc:int -> used:int -> unit
(** [shrink_last buf off ~alloc ~used] returns the tail of the most
    recent allocation to the current chunk ([used <= alloc] floats
    kept). A no-op when the allocation is not the chunk's latest (or
    was a dedicated array) — the tail is then merely wasted, never
    reused. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] and then hands back every chunk slice [f]
    allocated, on return or exception: the cursor goes back to where it
    stood, or to the start of a chunk [f] opened. [f] must not return
    or store a slice (a [Pwl.t]); slices allocated before the scope are
    untouched.

    Systhreads of one domain share its arena, so the rewind is only
    done when it is provably safe. The scope records its owner thread;
    an {!alloc} by any other thread of the domain while it is open
    taints it, and a tainted scope releases nothing. A scope opened
    while another is open on the domain, by this thread or another,
    runs [f] unscoped. *)
