(* Fixed-capacity bitset over [0, n): an int array of 63-bit words.
   The engine uses these for membership and subset tests over the dense
   per-victim primary-aggressor universe, where the old representation
   scanned id lists — every operation below is O(n/63) straight-line
   word arithmetic with no allocation beyond [make]. *)

type t = { words : int array; n : int }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let make n =
  if n < 0 then invalid_arg "Bitset.make: negative capacity";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0, %d)" i t.n)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

(* a ⊆ b *)
let subset a b =
  same_capacity a b;
  let ok = ref true in
  let i = ref 0 in
  let nw = Array.length a.words in
  while !ok && !i < nw do
    if a.words.(!i) land lnot b.words.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let intersects a b =
  same_capacity a b;
  let hit = ref false in
  let i = ref 0 in
  let nw = Array.length a.words in
  while (not !hit) && !i < nw do
    if a.words.(!i) land b.words.(!i) <> 0 then hit := true;
    incr i
  done;
  !hit

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let iter f t =
  for i = 0 to t.n - 1 do
    if t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0 then
      f i
  done
