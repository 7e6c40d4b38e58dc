(* Plain-text trace format, one job per line:

     # speedscale trace v1
     machines 4
     job <release> <deadline> <work>

   Lines starting with '#' are comments.  The format round-trips floats
   through %h (hex float) so saved instances reload bit-exactly. *)

module Job = Ss_model.Job

let header = "# speedscale trace v1"

let to_string (inst : Job.instance) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "machines %d\n" inst.machines);
  Array.iter
    (fun (j : Job.t) ->
      Buffer.add_string buf (Printf.sprintf "job %h %h %h\n" j.release j.deadline j.work))
    inst.jobs;
  Buffer.contents buf

exception Parse_error of int * string

let parse_line lineno line (machines, jobs) =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then (machines, jobs)
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ "machines"; m ] -> (
      match int_of_string_opt m with
      | Some m when m > 0 -> (Some m, jobs)
      | _ -> raise (Parse_error (lineno, "bad machine count")))
    | [ "job"; r; d; w ] -> (
      match (float_of_string_opt r, float_of_string_opt d, float_of_string_opt w) with
      | Some release, Some deadline, Some work ->
        (machines, Job.make ~release ~deadline ~work :: jobs)
      | _ -> raise (Parse_error (lineno, "bad job fields")))
    | _ -> raise (Parse_error (lineno, "unrecognized line: " ^ line))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let machines, jobs =
    List.fold_left
      (fun acc (lineno, line) -> parse_line lineno line acc)
      (None, [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  match machines with
  | None -> raise (Parse_error (0, "missing 'machines' line"))
  | Some machines -> Job.instance ~machines (List.rev jobs)

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let load path = of_string (read_file path)

(* Multi-instance batches: single-instance trace texts joined by a
   '---' separator line.  A file with no separator parses as a
   one-instance batch, so [load_batch] also accepts plain traces. *)

let batch_to_string insts =
  Array.to_list insts |> List.map to_string |> String.concat "---\n"

let batch_of_string text =
  let rec split chunk chunks = function
    | [] -> List.rev (List.rev chunk :: chunks)
    | line :: rest when String.trim line = "---" ->
      split [] (List.rev chunk :: chunks) rest
    | line :: rest -> split (line :: chunk) chunks rest
  in
  let chunks = split [] [] (String.split_on_char '\n' text) in
  let nonempty lines = List.exists (fun l -> String.trim l <> "") lines in
  let insts =
    List.filter nonempty chunks
    |> List.map (fun lines -> of_string (String.concat "\n" lines))
  in
  if insts = [] then raise (Parse_error (0, "empty batch"));
  Array.of_list insts

let load_batch path = batch_of_string (read_file path)
