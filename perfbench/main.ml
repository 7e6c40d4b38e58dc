(* The repository benchmark: one closed-loop harness for the offline solver,
   the online simulators and the batch dispatcher.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--holdout] [--record]

   Each workload is a fixed list of base instances.  The seed draws a
   disguise of every base instance — an integral time shift and a
   power-of-two work scale, the invariances Ss_model.Canon removes and the
   solvers are bit-exactly equivariant under — so every seed poses the same
   problems in different bits: the cost of a run does not depend on the
   seed, and the reference digests recorded for the base instances check
   every seed's outputs once the disguise is undone.  Seed 0 is the
   identity disguise.  [--holdout] swaps in a second set of base instances
   (every generator seed + 1000) for re-checking a claim.

   A run sets up [setup_reps] times (generate, disguise, trace round trip,
   one warm-up op) and then runs whole cycles over the workload's ops, one
   op after the other, until the next cycle would overrun [--seconds].
   Every op's output is audited by a float-bits digest compared with the
   reference in ref/; the verified ops (all of them, or the first of each
   workload's [repeat] runs) also pay Schedule.check and Schedule.energy,
   which is what `speedscale schedule|simulate` does per trace.  An op
   fails if it raises, if the check finds a violation, or if a digest or
   energy differs from the reference.  End-to-end times are scaled by a
   calibration kernel timed throughout the run (see below).

   With [--trace 0] the last stdout line is a JSON object carrying the
   end-to-end metrics; with [--trace 1] the first half of the time runs
   untraced and the second half records spans around every call into a
   layer, and the JSON carries the per-layer metrics.  [--record] writes the reference file of the
   chosen instance set instead of measuring. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Canon = Ss_model.Canon
module Offline = Ss_core.Offline
module Engine = Ss_online.Engine
module Dispatch = Ss_dispatch.Dispatch
module Generators = Ss_workload.Generators
module Trace = Ss_workload.Trace

let now = Unix.gettimeofday
let cube = Ss_model.Power.alpha 3.

let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- machine-speed calibration ------------------------------------------ *)

(* The machines this runs on are shared, and their speed drifts by up to
   40% over minutes; medians inside one run cannot remove that.  So the
   run also times a fixed stdlib-only kernel (sorting, hashing and
   allocating: the solver's kind of work, none of its code), interleaved
   with the ops so that it takes about 5% of the run, and scales every
   end-to-end time to the machine speed at which the kernel's median is
   [calibration_ref_ms].  The slowdowns come with memory traffic: a kernel
   that does not allocate fresh memory misses them. *)
let calibration_ref_ms = 1.6

let calibration_kernel () =
  let n = 4000 in
  let st = ref 12345 in
  let a =
    Array.init n (fun _ ->
        st := ((!st * 1103515245) + 12345) land 0x3fffffff;
        float_of_int !st)
  in
  Array.sort Float.compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (int_of_float x land 0xffff) i) a;
  ignore (Sys.opaque_identity (List.fold_left ( +. ) 0. (Array.to_list a)))

let calibration_ms = ref []

(* A fixed number of kernel runs after every op: a time-driven schedule
   would shift the GC and make the heap and allocation metrics vary. *)
let calibrate reps =
  for _ = 1 to reps do
    let t0 = now () in
    calibration_kernel ();
    calibration_ms := (1e3 *. (now () -. t0)) :: !calibration_ms
  done

(* --- disguises --------------------------------------------------------- *)

type disguise = { dt : float; wexp : int }

let identity = { dt = 0.; wexp = 0 }

let disguiser seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  fun ~shift ->
    if seed = 0 then identity
    else
      let dt = if shift then float_of_int (Random.State.int rng 1001) else 0. in
      { dt; wexp = Random.State.int rng 7 - 3 }

let disguise d (inst : Job.instance) =
  {
    inst with
    jobs =
      Array.map
        (fun (j : Job.t) ->
          {
            Job.release = j.release +. d.dt;
            deadline = j.deadline +. d.dt;
            work = Float.ldexp j.work d.wexp;
          })
        inst.jobs;
  }

let undisguise_run d (r : Offline.F.run) =
  {
    r with
    breakpoints = Array.map (fun b -> b -. d.dt) r.breakpoints;
    schedule_phases =
      List.map
        (fun (p : Offline.F.phase) -> { p with speed = Float.ldexp p.speed (-d.wexp) })
        r.schedule_phases;
  }

(* --- float-bits digests (never polymorphic [=]) ------------------------ *)

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)
let hex_bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

(* Breakpoints, phase members, speeds and reservations; the [t_kj] split
   ([alloc]) is left out on purpose. *)
let add_run b (r : Offline.F.run) =
  add_int b (Array.length r.breakpoints);
  Array.iter (add_float b) r.breakpoints;
  List.iter
    (fun (p : Offline.F.phase) ->
      add_int b (List.length p.members);
      List.iter (add_int b) p.members;
      add_float b p.speed;
      Array.iter (add_int b) p.procs)
    r.schedule_phases

let add_schedule b d s =
  Array.iter
    (fun (g : Schedule.segment) ->
      add_int b g.job;
      add_int b g.proc;
      add_float b g.t0;
      add_float b g.t1;
      add_float b (Float.ldexp g.speed (-d.wexp)))
    (Schedule.segments s)

let digest_of fill =
  let b = Buffer.create 4096 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- spans and counters ------------------------------------------------ *)

type span = {
  name : string;
  id : int;
  op : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable words : float;
}

let tracing = ref false
let spans = ref []
let n_spans = ref 0
let parent = ref (-1)
let current_op = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      { name; id = !n_spans; op = !current_op; parent = !parent; t0 = now (); t1 = nan; words = 0. }
    in
    incr n_spans;
    spans := s :: !spans;
    let saved = !parent in
    parent := s.id;
    let w0 = allocated_words () in
    let finish () =
      s.words <- allocated_words () -. w0;
      s.t1 <- now ();
      parent := saved
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

(* --- ops --------------------------------------------------------------- *)

(* What an op leaves for the untimed audit: problems found, the fields
   compared bit for bit with the reference, and the counts that should
   repeat exactly (flagged, never failed: a solver change may re-baseline
   them). *)
type outcome = {
  problems : string list;
  fingerprint : (string * string) list;
  counts : (string * int) list;
}

(* [exec] is the timed op; it returns [verify] (Schedule.check and
   Schedule.energy, timed into the verified op) and [audit] (digests,
   untimed). *)
type checked = { verify : unit -> unit; audit : unit -> outcome }
type op = {
  key : string;
  jobs : int;
  exec : unit -> checked;
  side : unit -> unit;  (** traced runs only: the benchmark's own layer timing *)
}

let check_schedule problems inst s =
  match span "check" (fun () -> Schedule.check inst s) with
  | [] -> ()
  | v :: _ ->
    problems := Format.asprintf "infeasible: %a" Schedule.pp_infeasibility v :: !problems

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let offline_op ~key ~components d (inst : Job.instance) =
  let exec () =
    let run = span "offline.run" (fun () -> Offline.run inst) in
    let sched =
      span "wrap_pack" (fun () -> Offline.schedule_of_run ~machines:inst.machines run)
    in
    let st = run.stats in
    List.iter
      (fun (name, v) -> count name (float_of_int v))
      [
        ("offline.phases", st.phases);
        ("offline.rounds", st.rounds);
        ("offline.removals", st.removals);
        ("offline.grouped", st.grouped);
        ("offline.resumes", st.resumes);
        ("offline.phase_resumes", st.phase_resumes);
        ("offline.components", components);
        ("flow.net_edges", st.net_edges);
        ("flow.net_pushes", st.net_pushes);
        ("flow.bfs_waves", st.net_bfs_waves);
        ("wrap_pack.segments", Schedule.num_segments sched);
      ];
    let problems = ref [] and energy = ref nan in
    let verify () =
      check_schedule problems inst sched;
      energy := span "energy" (fun () -> Schedule.energy cube sched)
    in
    let audit () =
      if not (close !energy (Offline.energy_of_run cube run)) then
        problems := "schedule energy differs from the run's" :: !problems;
      let base = undisguise_run d run in
      {
        problems = !problems;
        fingerprint =
          [
            ("digest", digest_of (fun b -> add_run b base));
            ("energy", hex_bits (Offline.energy_of_run cube base));
          ];
        counts = [ ("rounds", st.rounds); ("removals", st.removals); ("phases", st.phases) ];
      }
    in
    { verify; audit }
  in
  { key; jobs = Job.num_jobs inst; exec; side = ignore }

let online_op ~key d (inst : Job.instance) =
  let exec () =
    let stats = Engine.counters () in
    let oa, oi = span "oa" (fun () -> Ss_online.Oa.run ~stats inst) in
    let avr, ai = span "avr" (fun () -> Ss_online.Avr.run ~stats inst) in
    List.iter
      (fun (name, v) -> count name (float_of_int v))
      [
        ("oa.replans", oi.replans);
        ("oa.rounds", oi.total_rounds);
        ("oa.grouped_rounds", oi.grouped_rounds);
        ("avr.intervals", ai.intervals);
        ("avr.peeled", ai.peeled);
        ("engine.events", stats.events);
        ("engine.set_ops", stats.set_ops);
        ("engine.segments", stats.emitted);
        ("engine.arena_high_water", stats.arena_high_water);
      ];
    let problems = ref [] in
    let verify () =
      List.iter
        (fun s ->
          check_schedule problems inst s;
          ignore (span "energy" (fun () -> Schedule.energy cube s)))
        [ oa; avr ]
    in
    let audit () =
      {
        problems = !problems;
        fingerprint =
          [
            ("oa", digest_of (fun b -> add_schedule b d oa));
            ("avr", digest_of (fun b -> add_schedule b d avr));
          ];
        counts =
          [
            ("replans", oi.replans);
            ("oa_rounds", oi.total_rounds);
            ("events", stats.events);
            ("oa_segments", Schedule.num_segments oa);
            ("avr_segments", Schedule.num_segments avr);
          ];
      }
    in
    { verify; audit }
  in
  { key; jobs = Job.num_jobs inst; exec; side = ignore }

(* The batch's distinct canonical forms, which [dispatch.duplicate_solves]
   subtracts from the misses. *)
let canonical_forms insts =
  let seen = Hashtbl.create 256 in
  Array.iter (fun i -> Hashtbl.replace seen (Canon.digest (fst (Canon.canonicalize i))) ()) insts;
  Hashtbl.length seen

let batch_op ~key ds insts =
  let distinct = canonical_forms insts in
  (* The benchmark's own timing of the cache-key layer, outside the op. *)
  let side () =
    span "canon" (fun () ->
        Array.iter (fun i -> ignore (Canon.digest (fst (Canon.canonicalize i)))) insts)
  in
  let exec () =
    (* One domain: on a shared two-core machine a second domain made the
       op time swing 3-4x with the host's load. *)
    let d = span "dispatch.create" (fun () -> Dispatch.create ~domains:1 ()) in
    let answers = span "dispatch.batch" (fun () -> Dispatch.solve_batch d insts) in
    let st = Dispatch.stats d in
    span "dispatch.shutdown" (fun () -> Dispatch.shutdown d);
    List.iter
      (fun (name, v) -> count name (float_of_int v))
      [
        ("dispatch.hits", st.hits);
        ("dispatch.misses", st.misses);
        ("dispatch.duplicate_solves", st.misses - distinct);
        ("dispatch.steals", st.steals);
        ("dispatch.evictions", st.evictions);
        ("dispatch.domains", st.domains);
        ("canon.queries", Array.length insts);
      ];
    let problems = ref [] and energies = ref [||] in
    let verify () =
      let scheds =
        span "wrap_pack" (fun () ->
            Array.mapi
              (fun i (r : Offline.F.run) ->
                Offline.schedule_of_run ~machines:insts.(i).Job.machines r)
              answers)
      in
      count "wrap_pack.segments"
        (float_of_int (Array.fold_left (fun a s -> a + Schedule.num_segments s) 0 scheds));
      span "check" (fun () ->
          Array.iteri
            (fun i s ->
              match Schedule.check insts.(i) s with
              | [] -> ()
              | v :: _ ->
                problems :=
                  Format.asprintf "query %d infeasible: %a" i Schedule.pp_infeasibility v
                  :: !problems)
            scheds);
      energies := span "energy" (fun () -> Array.map (Schedule.energy cube) scheds)
    in
    let audit () =
      Array.iteri
        (fun i e ->
          if not (close e (Offline.energy_of_run cube answers.(i))) then
            problems := Printf.sprintf "query %d: schedule energy differs from the run's" i :: !problems)
        !energies;
      let bases = Array.mapi (fun i r -> undisguise_run ds.(i) r) answers in
      let energy =
        Array.fold_left (fun a r -> a +. Offline.energy_of_run cube r) 0. bases
      in
      {
        problems = !problems;
        fingerprint =
          [
            ("digest", digest_of (fun b -> Array.iter (add_run b) bases));
            ("energy", hex_bits energy);
          ];
        counts = [];
      }
    in
    { verify; audit }
  in
  { key; jobs = Array.fold_left (fun a i -> a + Job.num_jobs i) 0 insts; exec; side }

(* --- workloads ---------------------------------------------------------- *)

(* One op's input: base instances already disguised, with their disguises. *)
type input = { ikey : string; disguises : disguise array; insts : Job.instance array }

type workload = {
  name : string;
  setup_reps : int;
  repeat : int;
      (** each cycle runs every op this many times in a row; only the first
          run is verified with Schedule.check (every run is audited) *)
  calibration_reps : int;  (** kernel runs after each op, ~5% of its time *)
  generate : holdout:bool -> seed:int -> input list;
  make_op : input -> op;
}

let single ikey d inst = { ikey; disguises = [| d |]; insts = [| disguise d inst |] }
let gen_seed ~holdout s = if holdout then s + 1000 else s

let offline_make i =
  let inst = i.insts.(0) in
  offline_op ~key:i.ikey ~components:(Offline.component_count inst) i.disguises.(0) inst

let workloads =
  [
    {
      name = "offline-overlap";
      setup_reps = 3;
      repeat = 1;
      calibration_reps = 50;
      generate =
        (fun ~holdout ~seed ->
          let draw = disguiser seed in
          let s = gen_seed ~holdout in
          [
            single
              (Printf.sprintf "stream-n300-s%d" (s 41))
              (draw ~shift:true)
              (Generators.stream ~seed:(s 41) ~machines:8 ~jobs:300 ~rate:4. ~mean_work:2.
                 ~max_laxity:8. ());
          ]
          @ List.map
              (fun g ->
                single
                  (Printf.sprintf "heavy-n1000-s%d" (s g))
                  (draw ~shift:true)
                  (Generators.heavy ~shape:1.1 ~seed:(s g) ~machines:8 ~jobs:1000
                     ~horizon:500. ()))
              [ 7; 9 ]);
      make_op = offline_make;
    };
    {
      name = "offline-clustered";
      setup_reps = 9;
      repeat = 1;
      calibration_reps = 1;
      generate =
        (fun ~holdout ~seed ->
          let draw = disguiser seed in
          List.init 40 (fun c ->
              let g = gen_seed ~holdout (101 + c) in
              single (Printf.sprintf "clustered-s%d" g) (draw ~shift:true)
                (Generators.clustered ~seed:g ~machines:4 ~clusters:16 ~jobs_per_cluster:40
                   ~cluster_span:12. ~gap:4. ~max_work:5. ())));
      make_op = offline_make;
    };
    {
      name = "online-stream";
      setup_reps = 5;
      repeat = 4;
      calibration_reps = 10;
      generate =
        (fun ~holdout ~seed ->
          let g = gen_seed ~holdout 41 in
          (* Simulated schedules carry interior times the shift would round,
             so the online disguise scales works only. *)
          [
            single (Printf.sprintf "stream-n5000-s%d" g) (disguiser seed ~shift:false)
              (Generators.stream ~seed:g ~machines:8 ~jobs:5000 ~rate:4. ~mean_work:2.
                 ~max_laxity:6. ());
          ]);
      make_op = (fun i -> online_op ~key:i.ikey i.disguises.(0) i.insts.(0));
    };
    {
      name = "batch-dup";
      setup_reps = 9;
      repeat = 1;
      calibration_reps = 1;
      generate =
        (fun ~holdout ~seed ->
          let draw = disguiser seed in
          let g = gen_seed ~holdout 43 in
          let bases =
            Generators.batch ~duplicate_rate:0.75 ~seed:g ~machines:4 ~count:600 ~jobs:16 ()
          in
          let ds = Array.map (fun _ -> draw ~shift:true) bases in
          [
            {
              ikey = Printf.sprintf "batch-q600-s%d" g;
              disguises = ds;
              insts = Array.mapi (fun i b -> disguise ds.(i) b) bases;
            };
          ]);
      make_op = (fun i -> batch_op ~key:i.ikey i.disguises i.insts);
    };
  ]

(* --- references --------------------------------------------------------- *)

let ref_file ~holdout wl =
  Printf.sprintf "perfbench/ref/%s-%s.txt" (if holdout then "holdout" else "main") wl.name

(* One line per op key: [key field=value ...]; count fields carry a [#]. *)
let write_refs file lines =
  let oc = open_out file in
  List.iter
    (fun (key, (o : outcome)) ->
      output_string oc key;
      List.iter (fun (f, v) -> Printf.fprintf oc " %s=%s" f v) o.fingerprint;
      List.iter (fun (f, v) -> Printf.fprintf oc " #%s=%d" f v) o.counts;
      output_char oc '\n')
    lines;
  close_out oc

let read_refs file =
  let ic = open_in file in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | key :: fields ->
         Hashtbl.replace tbl key
           (List.filter_map
              (fun f ->
                match String.index_opt f '=' with
                | Some i -> Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
                | None -> None)
              fields)
       | [] -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* --- setup -------------------------------------------------------------- *)

let roundtrip i =
  let back =
    match i.insts with
    | [| one |] -> [| Trace.of_string (Trace.to_string one) |]
    | many -> Trace.batch_of_string (Trace.batch_to_string many)
  in
  if Array.length back <> Array.length i.insts
     || not (Array.for_all2 (fun a b -> Canon.encode a = Canon.encode b) back i.insts)
  then failwith ("trace round trip changed " ^ i.ikey);
  { i with insts = back }

type setup = { ops : op array; generate_ms : float; roundtrip_ms : float; total_s : float }

let set_up wl ~holdout ~seed =
  let t0 = now () in
  let inputs = wl.generate ~holdout ~seed in
  let t1 = now () in
  let inputs = List.map roundtrip inputs in
  let t2 = now () in
  let ops = Array.of_list (List.map wl.make_op inputs) in
  ignore (ops.(0).exec ());
  let t3 = now () in
  {
    ops;
    generate_ms = 1e3 *. (t1 -. t0);
    roundtrip_ms = 1e3 *. (t2 -. t1);
    total_s = t3 -. t0;
  }

(* --- the closed loop ---------------------------------------------------- *)

type sample = {
  cycle : int;
  op_ms : float;
  verified_ms : float option;  (** [None] for the unverified repeats *)
  words : float;
  jobs : int;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable unsteady : int;
  mutable drift : int;
  seen : (string, (string * int) list) Hashtbl.t;
}

let audit_outcome tally refs (op : op) (o : outcome) =
  let ref_fields = Option.value ~default:[] (Hashtbl.find_opt refs op.key) in
  let bad =
    o.problems
    @ List.filter_map
        (fun (f, v) ->
          match List.assoc_opt f ref_fields with
          | Some r when r = v -> None
          | Some r -> Some (Printf.sprintf "%s %s, reference %s" f v r)
          | None -> Some (Printf.sprintf "no reference for %s" f))
        o.fingerprint
  in
  if bad <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter (fun m -> Printf.eprintf "FAILED %s: %s\n%!" op.key m) bad
  end;
  (match Hashtbl.find_opt tally.seen op.key with
  | None ->
    Hashtbl.replace tally.seen op.key o.counts;
    List.iter
      (fun (f, v) ->
        match List.assoc_opt ("#" ^ f) ref_fields with
        | Some r when r <> string_of_int v ->
          tally.drift <- tally.drift + 1;
          Printf.eprintf "count drift %s: %s=%d, reference %s\n%!" op.key f v r
        | _ -> ())
      o.counts
  | Some first ->
    if first <> o.counts then begin
      tally.unsteady <- tally.unsteady + 1;
      Printf.eprintf "unsteady counts %s\n%!" op.key
    end)

(* One op, timed; [verify] adds Schedule.check and Schedule.energy.  The
   audit that follows is untimed.  [None] when the op raised. *)
let run_op ~traced ~verify ~cycle tally refs op =
  tally.attempted <- tally.attempted + 1;
  incr current_op;
  if traced then op.side ();
  let g0 = Gc.quick_stat () in
  let w0 = allocated_words () in
  let t0 = now () in
  match
    span "op" (fun () ->
        let c = op.exec () in
        let t1 = now () in
        let w1 = allocated_words () in
        if verify then begin
          count "verified_ops" 1.;
          c.verify ()
        end;
        (c, t1, w1))
  with
  | c, t1, w1 ->
    let t2 = now () in
    let g1 = Gc.quick_stat () in
    count "gc.minor_words" (g1.minor_words -. g0.minor_words);
    count "gc.major_words" (g1.major_words -. g0.major_words);
    count "gc.major_collections" (float_of_int (g1.major_collections - g0.major_collections));
    audit_outcome tally refs op (c.audit ());
    Some
      {
        cycle;
        op_ms = 1e3 *. (t1 -. t0);
        verified_ms = (if verify then Some (1e3 *. (t2 -. t0)) else None);
        words = w1 -. w0;
        jobs = op.jobs;
      }
  | exception e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "FAILED %s: %s\n%!" op.key (Printexc.to_string e);
    None

(* Whole cycles until the next one would end past [seconds]; at least one. *)
let run_cycles ~seconds ~traced ~repeat ~calibration_reps tally refs ops =
  tracing := traced;
  let samples = ref [] in
  let start = now () in
  let cycle = ref 0 in
  let continue = ref true in
  while !continue do
    let c0 = now () in
    incr cycle;
    Array.iter
      (fun op ->
        for r = 1 to repeat do
          Option.iter
            (fun s -> samples := s :: !samples)
            (run_op ~traced ~verify:(r = 1) ~cycle:!cycle tally refs op);
          calibrate calibration_reps
        done)
      ops;
    let t = now () in
    continue := t -. start +. (t -. c0) <= seconds
  done;
  tracing := false;
  Array.of_list (List.rev !samples)

(* Jobs of one cycle over the median cycle's summed op time: every cycle
   runs the same ops, so the median discards cycles hit by a stall. *)
let jobs_per_s samples =
  let cycles = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let j, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt cycles s.cycle) in
      Hashtbl.replace cycles s.cycle (j + s.jobs, t +. (s.op_ms /. 1e3)))
    samples;
  let per_cycle = Hashtbl.fold (fun _ (j, _) _ -> j) cycles 0 in
  float_of_int per_cycle
  /. median (Array.of_list (Hashtbl.fold (fun _ (_, t) a -> t :: a) cycles []))

(* --- reporting ---------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit)
       metrics)

let print_result tally metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %14.6g %s\n" name v unit) metrics;
  Printf.printf "failed_frac %.6g (%d of %d ops)\n"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
    tally.failed tally.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed (json_metrics metrics)

let end_to_end setups samples =
  let op_ms = Array.map (fun s -> s.op_ms) samples in
  let verified = Array.of_list (List.filter_map (fun s -> s.verified_ms) (Array.to_list samples)) in
  let n = Array.length op_ms in
  (* p90 when at least ten samples lie beyond it; a run too short for that
     reports p75 instead, since its p90 would be a lone slowest op. *)
  let sorted = Array.copy op_ms in
  Array.sort Float.compare sorted;
  let p = if n >= 100 then 0.9 else 0.75 in
  let tail = sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
  let tail_name = Printf.sprintf "p%.0f" (100. *. p) in
  Printf.printf "ops %d (%d verified); op_ms_tail is the %s; op_ms p25/p50/p75/p90/max %s\n" n
    (Array.length verified) tail_name
    (String.concat "/"
       (List.map
          (fun q -> Printf.sprintf "%.2f" sorted.(min (n - 1) (int_of_float (q *. float_of_int n))))
          [ 0.25; 0.5; 0.75; 0.9; 1. ]));
  let jobs = Array.fold_left (fun a s -> a + s.jobs) 0 samples in
  let words = Array.fold_left (fun a s -> a +. s.words) 0. samples in
  let times =
    [
      ("setup_s", "s", median (Array.map (fun s -> s.total_s) setups));
      ("jobs_per_s", "jobs/s", jobs_per_s samples);
      ("op_ms_p50", "ms", median op_ms);
      ("op_ms_tail", "ms", tail);
      ("verified_op_ms_p50", "ms", median verified);
    ]
  in
  let cal = median (Array.of_list !calibration_ms) in
  let speed = calibration_ref_ms /. cal in
  Printf.printf "calibration kernel median %.4f ms over %d samples; wall-clock values:\n" cal
    (List.length !calibration_ms);
  List.iter (fun (name, unit, v) -> Printf.printf "  %-26s %14.6g %s\n" name v unit) times;
  List.map
    (fun (name, unit, v) -> (name, unit, if name = "jobs_per_s" then v /. speed else v *. speed))
    times
  @ [
    ("alloc_words_per_job", "words", words /. float_of_int jobs);
    ( "peak_heap_mb",
      "MiB",
      float_of_int (Gc.quick_stat ()).top_heap_words *. float_of_int (Sys.word_size / 8)
      /. 1048576. );
  ]

(* Span name -> per-layer self-time metric (ms per op). *)
let span_metrics =
  [
    ("offline.run", "offline.run_ms");
    ("wrap_pack", "wrap_pack.ms");
    ("check", "check.ms");
    ("energy", "energy.ms");
    ("oa", "oa.ms");
    ("avr", "avr.ms");
    ("dispatch.create", "dispatch.create_ms");
    ("dispatch.batch", "dispatch.batch_ms");
    ("dispatch.shutdown", "dispatch.shutdown_ms");
    ("op", "op.self_ms");
  ]

let write_chrome file (spans : span array) =
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let base = match spans with [||] -> 0. | a -> a.(0).t0 in
  Array.iteri
    (fun i (s : span) ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"span\": %d, \"parent\": %d, \"op\": %d, \"words\": %.0f}}\n"
        (if i = 0 then "" else ",")
        s.name
        (1e6 *. (s.t0 -. base))
        (1e6 *. (s.t1 -. s.t0))
        s.id s.parent s.op s.words)
    spans;
  output_string oc "]}\n";
  close_out oc

let per_layer setups ~untraced ~traced ~chrome tally =
  let spans = Array.of_list (List.rev !spans) in
  let ops = float_of_int (Array.length traced) in
  let dur (s : span) = s.t1 -. s.t0 in
  let child = Array.make (Array.length spans) 0. in
  Array.iter (fun (s : span) -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s) spans;
  let self = Hashtbl.create 16 and words = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  Array.iter
    (fun (s : span) ->
      add self s.name (dur s -. child.(s.id));
      add words s.name s.words)
    spans;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  (* Accounting: every op span equals its own self time plus its
     children's self times (the op's layers). *)
  let op_total = Array.fold_left (fun a (s : span) -> if s.name = "op" then a +. dur s else a) 0. spans in
  let layer_self = List.fold_left (fun a (n, _) -> a +. get self n) 0. span_metrics in
  Printf.printf "traced ops %d; op spans %.3f ms, self times of the op and its layers %.3f ms\n"
    (Array.length traced) (1e3 *. op_total) (1e3 *. layer_self);
  List.iter
    (fun (n, _) ->
      if get self n > 0. then
        Printf.printf "  self %-18s %10.3f ms/op %6.1f%%\n" n
          (1e3 *. get self n /. ops)
          (100. *. get self n /. op_total))
    span_metrics;
  write_chrome chrome spans;
  let c k = Option.value ~default:0. (Hashtbl.find_opt counters k) in
  let per_op k = c k /. ops in
  let jobs = float_of_int (Array.fold_left (fun a s -> a + s.jobs) 0 traced) in
  let med f = median (Array.map f setups) in
  [
    ("workload.generate_ms", "ms", med (fun s -> s.generate_ms));
    ("workload.trace_roundtrip_ms", "ms", med (fun s -> s.roundtrip_ms));
  ]
  @ List.map
      (fun (n, m) ->
        let per = if n = "check" || n = "energy" then c "verified_ops" else ops in
        (m, "ms", 1e3 *. get self n /. per))
      span_metrics
  @ List.map
      (fun k -> (k, "count", per_op k))
      [
        "offline.phases"; "offline.rounds"; "offline.removals"; "offline.grouped";
        "offline.resumes"; "offline.phase_resumes"; "offline.components";
        "flow.net_edges"; "flow.net_pushes"; "flow.bfs_waves"; "wrap_pack.segments";
        "oa.replans"; "oa.rounds"; "oa.grouped_rounds"; "avr.intervals"; "avr.peeled";
        "engine.events"; "engine.set_ops"; "engine.segments"; "engine.arena_high_water";
        "dispatch.hits"; "dispatch.misses"; "dispatch.duplicate_solves"; "dispatch.steals";
        "dispatch.evictions"; "dispatch.domains"; "gc.major_collections";
      ]
  @ [
      ("offline.alloc_words", "words", get words "offline.run" /. ops);
      ( "oa.us_per_arrival",
        "us",
        if c "oa.replans" > 0. then 1e6 *. get self "oa" /. c "oa.replans" else 0. );
      ("oa.alloc_words_per_job", "words", if get self "oa" > 0. then get words "oa" /. jobs else 0.);
      ( "canon.us_per_query",
        "us",
        if c "canon.queries" > 0. then 1e6 *. get self "canon" /. c "canon.queries" else 0. );
      ("gc.minor_words", "words", per_op "gc.minor_words");
      ("gc.major_words", "words", per_op "gc.major_words");
      ("trace.overhead_frac", "frac", 1. -. (jobs_per_s traced /. jobs_per_s untraced));
      ("counts.unsteady", "count", float_of_int tally.unsteady);
      ("counts.drift", "count", float_of_int tally.drift);
      ("bench.calibration_ms", "ms", median (Array.of_list !calibration_ms));
    ]

(* --- entry point -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let holdout = ref false and record = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N disguise seed (0 = base instances)");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--holdout", Arg.Set holdout, " use the holdout base instances");
      ("--record", Arg.Set record, " write the reference file instead of measuring");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let holdout = !holdout and seed = !seed in
  if !record then begin
    let s = set_up wl ~holdout ~seed in
    let lines =
      List.map
        (fun op ->
          let c = op.exec () in
          c.verify ();
          (op.key, c.audit ()))
        (Array.to_list s.ops)
    in
    List.iter
      (fun (k, (o : outcome)) ->
        if o.problems <> [] then failwith (k ^ ": " ^ String.concat "; " o.problems))
      lines;
    write_refs (ref_file ~holdout wl) lines;
    Printf.printf "recorded %d references in %s\n" (List.length lines) (ref_file ~holdout wl)
  end
  else begin
    let refs =
      try read_refs (ref_file ~holdout wl)
      with Sys_error e ->
        prerr_endline ("missing reference file: " ^ e);
        exit 2
    in
    let setups = Array.init wl.setup_reps (fun _ -> set_up wl ~holdout ~seed) in
    let ops = setups.(Array.length setups - 1).ops in
    let tally =
      { attempted = 0; failed = 0; unsteady = 0; drift = 0; seen = Hashtbl.create 64 }
    in
    if !trace = 0 then
      print_result tally
        (end_to_end setups
           (run_cycles ~seconds:!seconds ~traced:false ~repeat:wl.repeat
             ~calibration_reps:wl.calibration_reps tally refs ops))
    else begin
      let half = !seconds /. 2. in
      let untraced = run_cycles ~seconds:half ~traced:false ~repeat:wl.repeat
             ~calibration_reps:wl.calibration_reps tally refs ops in
      let traced = run_cycles ~seconds:half ~traced:true ~repeat:wl.repeat
             ~calibration_reps:wl.calibration_reps tally refs ops in
      let chrome = Printf.sprintf "perfbench/out/%s-seed%d.trace.json" wl.name seed in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let metrics = per_layer setups ~untraced ~traced ~chrome tally in
      Printf.printf "chrome trace: %s\n" chrome;
      print_result tally metrics
    end
  end
