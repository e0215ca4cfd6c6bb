type entry = {
  couplings : Coupling_set.t;
  envelope : Tka_waveform.Envelope.t;
  objective : float;
}

type stats = {
  mutable candidates : int;
  mutable dominated : int;
  mutable duplicates : int;
  mutable capped : int;
  mutable checks : int;
}

let fresh_stats () =
  { candidates = 0; dominated = 0; duplicates = 0; capped = 0; checks = 0 }

let merge_stats acc s =
  acc.candidates <- acc.candidates + s.candidates;
  acc.dominated <- acc.dominated + s.dominated;
  acc.duplicates <- acc.duplicates + s.duplicates;
  acc.capped <- acc.capped + s.capped;
  acc.checks <- acc.checks + s.checks

let default_capacity = 10

(* Registry mirrors of the per-run stats record: the record stays the
   cheap always-on API; the counters feed [--metrics-out] and the bench
   summary. Updated once per [prune] call, not per candidate. *)
module M = Tka_obs.Metrics

let m_candidates = M.Counter.make "engine.candidate_sets"
let m_dominated = M.Counter.make "engine.sets_pruned"
let m_duplicates = M.Counter.make "engine.duplicate_sets"
let m_capped = M.Counter.make "engine.capacity_evictions"
let m_checks = M.Counter.make "engine.dominance_checks"

let prune ?(capacity = default_capacity) ?(skipped_duplicates = 0) ~interval
    ~stats entries =
  (* Repeats the caller dropped before building their entries count
     exactly as this function's own dedupe would count them. *)
  stats.candidates <- stats.candidates + skipped_duplicates;
  stats.duplicates <- stats.duplicates + skipped_duplicates;
  if skipped_duplicates > 0 && M.is_enabled () then begin
    M.Counter.add m_candidates skipped_duplicates;
    M.Counter.add m_duplicates skipped_duplicates
  end;
  match entries with
  | [] -> []
  | [ e ] when capacity >= 1 ->
    (* A lone candidate cannot be a duplicate or dominated (dominance
       is only ever checked against already-kept entries) and fits any
       positive capacity, so the answer is the input — skip the dedupe
       table, the order array and the peak-prefilter arrays. Small
       cones take this path for most victims, and those allocations
       were the bulk of their prune cost. Stats/metrics accounting is
       identical to the general path: one candidate, no duplicates,
       no dominance checks, nothing capped. *)
    stats.candidates <- stats.candidates + 1;
    if M.is_enabled () then M.Counter.add m_candidates 1;
    [ e ]
  | entries ->
  let c0 = stats.candidates
  and d0 = stats.dominated
  and u0 = stats.duplicates
  and p0 = stats.capped
  and k0 = stats.checks in
  (* dedupe identical coupling sets (same set => same envelope); the
     sets key the table directly (FNV over the sorted members) so no
     comma-joined string is built per candidate, and the table is
     pre-sized to the candidate count to avoid rehash-and-copy churn *)
  let by_set : unit Coupling_set.Tbl.t =
    Coupling_set.Tbl.create (max 16 (List.length entries))
  in
  let deduped =
    List.filter
      (fun e ->
        stats.candidates <- stats.candidates + 1;
        if Coupling_set.Tbl.mem by_set e.couplings then begin
          stats.duplicates <- stats.duplicates + 1;
          false
        end
        else begin
          Coupling_set.Tbl.replace by_set e.couplings ();
          true
        end)
      entries
  in
  (* One objective-descending sort into an array (index tie-break keeps
     the sort stable); every later step indexes this array instead of
     re-walking lists. *)
  let arr = Array.of_list deduped in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare arr.(j).objective arr.(i).objective in
      if c <> 0 then c else Int.compare i j)
    order;
  (* Prescreen: entries far down the objective order cannot enter the
     capacity-bounded result, and the pairwise dominance scan on large
     PWL envelopes is the expensive part — truncate first (counted as
     capped, never silent). *)
  let prescreen = 3 * capacity in
  let scan_n =
    if n <= prescreen then n
    else begin
      stats.capped <- stats.capped + (n - prescreen);
      prescreen
    end
  in
  (* Objective-descending scan: an entry can only be dominated by one
     with an objective at least as large (Theorem 1), i.e. by an entry
     already kept. The envelope peaks (memoised inside the waveform, so
     each envelope folds its ordinates at most once in its lifetime)
     are staged into a flat array as the cheap prefilter ruling out
     most pairs before the two-cursor dominance scan. An entry's
     interval ends are computed at its first dominance test and kept
     with it, so a kept entry tested against many later ones pays for
     them once. *)
  let kept = if scan_n = 0 then [||] else Array.make scan_n arr.(order.(0)) in
  let kept_peak = Array.make scan_n 0. in
  let kept_ends = Array.make scan_n (ref None) in
  let kept_n = ref 0 in
  let eps = Tka_util.Float_cmp.default_eps in
  let ends_of cell e =
    match !cell with
    | Some x -> x
    | None ->
      let x = Dominance.ends ~interval e.envelope in
      cell := Some x;
      x
  in
  for oi = 0 to scan_n - 1 do
    let e = arr.(order.(oi)) in
    let pe = Tka_waveform.Envelope.peak e.envelope in
    let e_ends = ref None in
    let dominated = ref false in
    let ki = ref (!kept_n - 1) in
    (* kept is scanned newest-first, matching the prepend-list scan *)
    while (not !dominated) && !ki >= 0 do
      if
        kept_peak.(!ki) >= pe -. eps
        && begin
             stats.checks <- stats.checks + 1;
             let k = kept.(!ki) in
             Dominance.dominates ~interval k.envelope
               (ends_of kept_ends.(!ki) k)
               e.envelope (ends_of e_ends e)
           end
      then dominated := true
      else decr ki
    done;
    if !dominated then stats.dominated <- stats.dominated + 1
    else begin
      kept.(!kept_n) <- e;
      kept_peak.(!kept_n) <- pe;
      kept_ends.(!kept_n) <- e_ends;
      incr kept_n
    end
  done;
  let kn = !kept_n in
  let take =
    if kn > capacity then begin
      stats.capped <- stats.capped + (kn - capacity);
      capacity
    end
    else kn
  in
  let result = Array.to_list (Array.sub kept 0 take) in
  if M.is_enabled () then begin
    M.Counter.add m_candidates (stats.candidates - c0);
    M.Counter.add m_dominated (stats.dominated - d0);
    M.Counter.add m_duplicates (stats.duplicates - u0);
    M.Counter.add m_capped (stats.capped - p0);
    M.Counter.add m_checks (stats.checks - k0)
  end;
  result

let best = function [] -> None | e :: _ -> Some e
