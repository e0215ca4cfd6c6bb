(* Golden digests of the noise / timing-window fixpoint. Each digest is
   the MD5 of the fixpoint's per-net noise, then each net's final eat,
   lat, slew_early and slew_late, all as little-endian int64 bit
   patterns in net order. The netlist is the benchmark printed and
   parsed back (the path `tka noise` takes), and the fixpoint runs with
   [Iterate.run] defaults. They were recorded before the PWL kernels
   (k-way sum front, sorted-input create, slice-writing sliding max),
   the per-victim arena scopes, the one-pass swept envelopes, the flat
   superposition front and the victim kernel that writes each
   coupling's record into the slice were introduced; none of those may
   move a bit of the fixpoint, at any jobs count. *)

module B = Tka_layout.Benchmarks
module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module TW = Tka_sta.Timing_window
module Iterate = Tka_noise.Iterate

let golden =
  [
    ("i1", "dbafa354ee29c5b09c312ec8eacf2404");
    ("i2", "bd8d836a41fd2427aef099884d22bfda");
    ("i3", "ebdbb7a0864f6fde6fa3c914f20e25c7");
    ("i4", "4f0ad4498d97b98ce80e41f2eec26fbc");
    ("i5", "5ba58699d3e3514aed160fc0a7682f5d");
    ("i6", "9f2c91441d2ca45c1c929cbf581825a3");
    ("i7", "8126fb31d298b09bb0513cb92eba1169");
    ("i8", "9b5f652ceb8705bdce8a16c801c354b2");
    ("i9", "aa77e35ce0424f93dd1c42b41ed9d005");
    ("i10", "c7146a80bcbb887a7709c54c28d3a159");
  ]

let netlist name =
  Tka_circuit.Netlist_format.parse ~lookup:Tka_cell.Default_lib.find
    (Tka_circuit.Netlist_format.print (Option.get (B.by_name name)))

let digest name =
  let nl = netlist name in
  let fix = Iterate.run (Topo.create nl) in
  let b = Buffer.create 4096 in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Array.iter add fix.Iterate.noise;
  let w = Iterate.windows fix in
  for v = 0 to N.num_nets nl - 1 do
    let w = w v in
    add w.TW.eat;
    add w.TW.lat;
    add w.TW.slew_early;
    add w.TW.slew_late
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  Alcotest.run "tka_fixpoint"
    [
      ( "golden",
        List.map
          (fun (name, d) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) name d (digest name)))
          golden );
    ]
