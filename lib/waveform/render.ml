module Interval = Tka_util.Interval

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

let union_span ?range series =
  match range with
  | Some r -> (Interval.lo r, Interval.hi r)
  | None ->
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (_, w) ->
          (Float.min lo (Pwl.first_x w), Float.max hi (Pwl.last_x w)))
        (Float.infinity, Float.neg_infinity)
        series
    in
    if hi > lo then (lo, hi) else (lo -. 0.5, lo +. 0.5)

let width = 72

let ascii ?(height = 16) ?range series =
  match series with
  | [] -> ""
  | _ :: _ ->
    let x0, x1 = union_span ?range series in
    let samples =
      List.map
        (fun (label, w) ->
          ( label,
            Array.init width (fun i ->
                let x = x0 +. ((x1 -. x0) *. float_of_int i /. float_of_int (width - 1)) in
                Pwl.eval w x) ))
        series
    in
    let y0, y1 =
      List.fold_left
        (fun (lo, hi) (_, ys) ->
          Array.fold_left (fun (lo, hi) y -> (Float.min lo y, Float.max hi y)) (lo, hi) ys)
        (Float.infinity, Float.neg_infinity)
        samples
    in
    let y0, y1 = if y1 > y0 then (y0, y1) else (y0 -. 0.5, y0 +. 0.5) in
    let grid = Array.make_matrix height width ' ' in
    (* zero line, if visible *)
    if y0 <= 0. && 0. <= y1 then begin
      let row =
        height - 1 - int_of_float (Float.round ((0. -. y0) /. (y1 -. y0) *. float_of_int (height - 1)))
      in
      if row >= 0 && row < height then
        for i = 0 to width - 1 do
          grid.(row).(i) <- '-'
        done
    end;
    List.iteri
      (fun si (_, ys) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        Array.iteri
          (fun i y ->
            let row =
              height - 1
              - int_of_float (Float.round ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1)))
            in
            if row >= 0 && row < height then grid.(row).(i) <- glyph)
          ys)
      samples;
    let buf = Buffer.create ((width + 12) * (height + 3)) in
    Buffer.add_string buf (Printf.sprintf "%8.4g +" y1);
    Buffer.add_string buf (String.make width ' ');
    Buffer.add_char buf '\n';
    Array.iteri
      (fun r line ->
        Buffer.add_string buf
          (if r = height - 1 then Printf.sprintf "%8.4g |" y0 else "         |");
        Buffer.add_string buf (String.init width (fun i -> line.(i)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf "         +";
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Printf.sprintf "          %-8.4g%*s%8.4g\n" x0 (width - 8) "" x1);
    List.iteri
      (fun si (label, _) ->
        Buffer.add_string buf
          (Printf.sprintf "          %c = %s\n" glyphs.(si mod Array.length glyphs) label))
      series;
    Buffer.contents buf

let csv ?(samples = 128) series =
  match series with
  | [] -> ""
  | _ :: _ ->
    let x0, x1 = union_span series in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "t";
    List.iter (fun (label, _) -> Buffer.add_string buf ("," ^ label)) series;
    Buffer.add_char buf '\n';
    for i = 0 to samples - 1 do
      let x = x0 +. ((x1 -. x0) *. float_of_int i /. float_of_int (samples - 1)) in
      Buffer.add_string buf (Printf.sprintf "%.6g" x);
      List.iter
        (fun (_, w) -> Buffer.add_string buf (Printf.sprintf ",%.6g" (Pwl.eval w x)))
        series;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
