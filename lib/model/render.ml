(* ASCII rendering of schedules: a Gantt-style per-processor timeline and a
   speed heat strip.  Used by the CLI (--gantt) and the examples; handy when
   eyeballing why one schedule beats another.

   Each processor row shows which job occupies each time cell (letters a-z,
   then A-Z, then '#'), with '.' for idle.  The optional speed strip maps
   each cell's speed to 1-9 relative to the maximum. *)

type config = {
  width : int;           (* number of time cells *)
  show_speeds : bool;
}

let default_config = { width = 72; show_speeds = true }

let job_letter i =
  if i < 26 then Char.chr (Char.code 'a' + i)
  else if i < 52 then Char.chr (Char.code 'A' + i - 26)
  else '#'

(* The segment covering the midpoint of a cell on a processor, if any. *)
let segment_at segments proc time =
  Array.fold_left
    (fun acc (s : Schedule.segment) ->
      if s.proc = proc && s.t0 <= time && time < s.t1 then Some s else acc)
    None segments

let render ?(config = default_config) ?(t0 = Float.nan) ?(t1 = Float.nan)
    (sched : Schedule.t) =
  let segments = Schedule.segments sched in
  if Array.length segments = 0 then "(empty schedule)\n"
  else begin
    let lo =
      if Float.is_nan t0 then
        Array.fold_left (fun acc (s : Schedule.segment) -> Float.min acc s.t0) infinity segments
      else t0
    in
    let hi =
      if Float.is_nan t1 then
        Array.fold_left (fun acc (s : Schedule.segment) -> Float.max acc s.t1) neg_infinity segments
      else t1
    in
    let cells = max 8 config.width in
    let dt = (hi -. lo) /. float_of_int cells in
    let max_speed = Schedule.max_speed sched in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "time [%g, %g), cell = %g\n" lo hi dt);
    for proc = 0 to Schedule.machines sched - 1 do
      Buffer.add_string buf (Printf.sprintf "P%-2d |" proc);
      for c = 0 to cells - 1 do
        let mid = lo +. ((float_of_int c +. 0.5) *. dt) in
        match segment_at segments proc mid with
        | Some s -> Buffer.add_char buf (job_letter s.job)
        | None -> Buffer.add_char buf '.'
      done;
      Buffer.add_string buf "|\n";
      if config.show_speeds && max_speed > 0. then begin
        Buffer.add_string buf "    |";
        for c = 0 to cells - 1 do
          let mid = lo +. ((float_of_int c +. 0.5) *. dt) in
          match segment_at segments proc mid with
          | Some s ->
            let level = 1 + int_of_float (8. *. s.speed /. max_speed) in
            Buffer.add_char buf (Char.chr (Char.code '0' + min 9 level))
          | None -> Buffer.add_char buf ' '
        done;
        Buffer.add_string buf "|\n"
      end
    done;
    (* Legend: letters in use. *)
    let used = Hashtbl.create 16 in
    Array.iter (fun (s : Schedule.segment) -> Hashtbl.replace used s.job ()) segments;
    let ids = Hashtbl.fold (fun k () acc -> k :: acc) used [] |> List.sort Int.compare in
    let legend =
      List.map (fun i -> Printf.sprintf "%c=J%d" (job_letter i) i) ids
      |> String.concat " "
    in
    Buffer.add_string buf ("jobs: " ^ legend ^ "\n");
    Buffer.contents buf
  end

let print ?config ?t0 ?t1 sched = print_string (render ?config ?t0 ?t1 sched)

(* --- SVG export ---------------------------------------------------------

   Self-contained SVG (no dependencies): one rectangle per segment, rows
   per processor, rectangle height proportional to segment speed relative
   to the schedule's peak, color keyed to the job id. *)

let job_color i =
  (* Evenly spaced hues, two lightness bands for adjacent ids. *)
  let hue = i * 137 mod 360 in
  let lightness = if i mod 2 = 0 then 45 else 62 in
  Printf.sprintf "hsl(%d,70%%,%d%%)" hue lightness

let to_svg (sched : Schedule.t) =
  (* Canvas width and per-processor row height, in pixels. *)
  let width = 900 and row_height = 48 in
  let segments = Schedule.segments sched in
  let m = Schedule.machines sched in
  let buf = Buffer.create 4096 in
  if Array.length segments = 0 then begin
    Buffer.add_string buf
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\"></svg>\n"
         width row_height)
  end
  else begin
    let lo = Array.fold_left (fun acc (s : Schedule.segment) -> Float.min acc s.t0) infinity segments in
    let hi = Array.fold_left (fun acc (s : Schedule.segment) -> Float.max acc s.t1) neg_infinity segments in
    let peak = Schedule.max_speed sched in
    let margin = 30 in
    let plot_w = float_of_int (width - (2 * margin)) in
    let height = (m * row_height) + (2 * margin) in
    let x t = float_of_int margin +. (plot_w *. (t -. lo) /. (hi -. lo)) in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
          font-family=\"monospace\" font-size=\"10\">\n"
         width height);
    (* Row baselines and labels. *)
    for p = 0 to m - 1 do
      let base = margin + ((p + 1) * row_height) in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#999\"/>\n"
           margin base (width - margin) base);
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"2\" y=\"%d\">P%d</text>\n" (base - 4) p)
    done;
    (* Segments. *)
    Array.iter
      (fun (s : Schedule.segment) ->
        let base = margin + ((s.proc + 1) * row_height) in
        let h = float_of_int (row_height - 6) *. s.speed /. peak in
        let x0 = x s.t0 and x1 = x s.t1 in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" fill=\"%s\">\
              <title>J%d [%g,%g) speed %.4g</title></rect>\n"
             x0
             (float_of_int base -. h)
             (Float.max 0.5 (x1 -. x0))
             h (job_color s.job) s.job s.t0 s.t1 s.speed))
      segments;
    (* Time axis labels. *)
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"%d\" y=\"%d\">t=%g</text>\n" margin (height - 8) lo);
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">t=%g</text>\n"
         (width - margin) (height - 8) hi);
    Buffer.add_string buf "</svg>\n"
  end;
  Buffer.contents buf

let save_svg path sched =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_svg sched))
