(* Domain-local bump allocator backing PWL breakpoint storage.

   Each domain owns one current chunk (a plain float array) and a bump
   cursor; an allocation is a (buffer, offset) pair carved off the
   cursor. Chunks are referenced only by the slices cut from them, so
   when an analysis drops its waveforms the GC reclaims whole chunks at
   once — there is no free list. A chunk that no longer fits a request
   is abandoned (still pinned by any live slices) and replaced.

   [scoped] is the one explicit reset: it records the cursor, runs its
   thunk and rewinds, so a loop that scopes each iteration reuses the
   same chunk region instead of leaving chunks for the GC.

   Lifetime rule (docs/performance.md): a slice must not outlive the
   analysis that allocated it — nor the scope, inside [scoped]; a
   single escaping slice pins its whole chunk. Long-lived singletons
   (e.g. [Pwl.constant]) therefore use exact private arrays instead of
   the arena.

   Domain-safety: the chunk state is in [Domain.DLS], so concurrent
   pool workers bump distinct chunks without synchronisation. Reading a
   finished slice from another domain is a plain float-array read,
   published by the pool's level barriers. Systhreads of one domain
   share its chunk, which is why a scope remembers its owner thread and
   gives up its rewind when any other thread allocates meanwhile. *)

let m_chunks = Tka_obs.Metrics.Counter.make "arena.chunks"

type chunk = {
  mutable buf : float array;
  mutable used : int;
  (* The open scope, if any: its owner's thread id (-1 when no scope is
     open), the cursor it rewinds to, and whether another thread has
     allocated since it opened. *)
  mutable owner : int;
  mutable saved_buf : float array;
  mutable saved_used : int;
  mutable tainted : bool;
}

(* 64k floats = 512 KiB per chunk: big enough that kernel outputs
   (tens to hundreds of floats) amortise the chunk allocation, small
   enough that an escaping slice pins little. *)
let chunk_floats = 1 lsl 16

(* Requests at least a quarter-chunk large get their own exact array:
   they would fragment chunks, and their size already amortises a
   dedicated allocation. *)
let large_threshold = chunk_floats / 4

let key =
  Domain.DLS.new_key (fun () ->
      { buf = [||]; used = 0; owner = -1; saved_buf = [||]; saved_used = 0; tainted = false })

let[@inline] self () = Thread.id (Thread.self ())

(* Thread switches happen only at allocations and polls, so the scope
   test and the bump below must have none between them: a thread that
   passed the test is then guaranteed to have bumped before any other
   thread runs. The chunk replacement allocates, hence comes first. *)
let alloc n =
  if n < 0 then invalid_arg "Arena.alloc: negative size";
  if n >= large_threshold then (Array.make n 0., 0)
  else begin
    let c = Domain.DLS.get key in
    let fresh = c.used + n > Array.length c.buf in
    if fresh then begin
      let buf = Array.make chunk_floats 0. in
      c.buf <- buf;
      c.used <- 0
    end;
    if c.owner >= 0 && self () <> c.owner then c.tainted <- true;
    let off = c.used in
    c.used <- off + n;
    if fresh then Tka_obs.Metrics.Counter.incr m_chunks;
    (c.buf, off)
  end

let shrink_last buf off ~alloc ~used =
  let c = Domain.DLS.get key in
  if buf == c.buf && off + alloc = c.used then c.used <- off + used

(* Rewind to the cursor the scope opened at. When the scope rolled over
   to a fresh chunk, everything in that chunk is the scope's, so the
   chunk is kept and its cursor reset; the opening chunk keeps its
   pre-scope slices and is abandoned as usual. *)
let close c =
  if not c.tainted then begin
    if c.buf == c.saved_buf then c.used <- c.saved_used else c.used <- 0
  end;
  c.owner <- -1;
  c.saved_buf <- [||];
  c.tainted <- false

(* Opening records the cursor and the owner with no thread switch in
   between (same argument as in [alloc]). *)
let scoped f =
  let me = self () in
  let c = Domain.DLS.get key in
  if c.owner >= 0 then f ()
  else begin
    c.tainted <- false;
    c.saved_buf <- c.buf;
    c.saved_used <- c.used;
    c.owner <- me;
    match f () with
    | v ->
      close c;
      v
    | exception e ->
      close c;
      raise e
  end
