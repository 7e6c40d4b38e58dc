(* Synthetic workload generators.

   The paper evaluates nothing empirically (it is a theory paper), and no
   public DVFS scheduling traces ship with this container, so the
   experiment harness drives the algorithms with synthetic families that
   cover the structural regimes the paper's introduction motivates:
   server-farm arrival streams, multi-core interactive mixes, periodic
   media decoding, and the adversarial nested instances behind the AVR
   lower bound of Bansal et al.  All generators are deterministic in the
   seed (see Rng). *)

module Job = Ss_model.Job

(* Round times to integers (AVR's precondition) while keeping windows
   non-empty. *)
let integralize (jobs : Job.t list) =
  List.map
    (fun (j : Job.t) ->
      let release = Float.floor j.release in
      let deadline = Float.max (release +. 1.) (Float.ceil j.deadline) in
      { j with release; deadline })
    jobs

let finalize ~machines ~integral jobs =
  let jobs = if integral then integralize jobs else jobs in
  Job.instance ~machines jobs

(* Independent uniform jobs across a fixed horizon. *)
let uniform ?(integral = true) ~seed ~machines ~jobs:n ~horizon ~max_work () =
  if n <= 0 then invalid_arg "Generators.uniform: jobs <= 0";
  let rng = Rng.create ~seed in
  let mk _ =
    let release = Rng.uniform rng ~lo:0. ~hi:(horizon -. 1.) in
    let span = Rng.uniform rng ~lo:1. ~hi:(Float.max 2. (horizon /. 4.)) in
    let deadline = Float.min horizon (release +. span) in
    let work = Rng.uniform rng ~lo:(max_work /. 10.) ~hi:max_work in
    Job.make ~release ~deadline ~work
  in
  finalize ~machines ~integral (List.init n mk)

(* Poisson arrival stream with exponential works and proportional slack —
   the "server farm" regime of the paper's introduction. *)
let poisson ?(integral = true) ~seed ~machines ~jobs:n ~rate ~mean_work ~slack () =
  if rate <= 0. || slack <= 0. then invalid_arg "Generators.poisson: bad parameters";
  let rng = Rng.create ~seed in
  let now = ref 0. in
  let mk _ =
    now := !now +. Rng.exponential rng ~mean:(1. /. rate);
    let work = Rng.exponential rng ~mean:mean_work in
    let work = Float.max (mean_work /. 20.) work in
    let window = slack *. work in
    Job.make ~release:!now ~deadline:(!now +. Float.max 1. window) ~work
  in
  finalize ~machines ~integral (List.init n mk)

(* Large-trace online stream: Poisson arrivals with bounded laxity, built
   for the streaming simulator's n up to 10^6 regime.  Unlike [poisson]
   (slack proportional to work), the deadline here is release + an
   independent bounded laxity draw, so the active set stays small no
   matter how long the stream runs — the property that makes per-event
   cost O(active + log n) instead of O(n). *)
let stream ?(integral = true) ~seed ~machines ~jobs:n ~rate ~mean_work ~max_laxity () =
  if n <= 0 then invalid_arg "Generators.stream: jobs <= 0";
  if rate <= 0. || mean_work <= 0. || max_laxity < 1. then
    invalid_arg "Generators.stream: bad parameters";
  let rng = Rng.create ~seed in
  let now = ref 0. in
  let mk _ =
    now := !now +. Rng.exponential rng ~mean:(1. /. rate);
    let work = Float.max (mean_work /. 20.) (Rng.exponential rng ~mean:mean_work) in
    let laxity = Rng.uniform rng ~lo:1. ~hi:max_laxity in
    Job.make ~release:!now ~deadline:(!now +. laxity) ~work
  in
  finalize ~machines ~integral (List.init n mk)

(* Bursts of simultaneous arrivals with tight windows, idle gaps between
   bursts. *)
let bursty ?(integral = true) ~seed ~machines ~bursts ~jobs_per_burst ~gap ~max_work () =
  if bursts <= 0 || jobs_per_burst <= 0 then invalid_arg "Generators.bursty: bad parameters";
  let rng = Rng.create ~seed in
  let jobs = ref [] in
  for b = 0 to bursts - 1 do
    let release = float_of_int b *. gap in
    for _ = 1 to jobs_per_burst do
      let span = Rng.uniform rng ~lo:1. ~hi:(gap /. 2.) in
      let work = Rng.uniform rng ~lo:(max_work /. 4.) ~hi:max_work in
      jobs := Job.make ~release ~deadline:(release +. span) ~work :: !jobs
    done
  done;
  finalize ~machines ~integral (List.rev !jobs)

(* Pareto works: a few huge jobs dominate (heavy-tail regime). *)
let heavy_tailed ?(integral = true) ~seed ~machines ~jobs:n ~horizon ~shape () =
  if n <= 0 || shape <= 0. then invalid_arg "Generators.heavy_tailed: bad parameters";
  let rng = Rng.create ~seed in
  let mk _ =
    let release = Rng.uniform rng ~lo:0. ~hi:(horizon -. 2.) in
    let span = Rng.uniform rng ~lo:1. ~hi:(horizon -. release) in
    let work = Rng.pareto rng ~xm:1. ~shape in
    Job.make ~release ~deadline:(release +. span) ~work
  in
  finalize ~machines ~integral (List.init n mk)

(* Large-n stress regime for the offline solver's sweep oracle: every
   window covers at least a third of the horizon, so windows overlap
   heavily, no zero-coverage cut exists (nothing for the decomposition
   layer to split), and the dense Fig. 1 network carries Theta(n k) edges
   — the case the sweep avoids building.  Works are Pareto
   so a few dominant jobs keep the phase structure non-trivial. *)
let heavy ?(integral = true) ?(shape = 1.8) ~seed ~machines:m ~jobs:n ~horizon () =
  if n <= 0 || horizon < 6. then invalid_arg "Generators.heavy: bad parameters";
  let rng = Rng.create ~seed in
  let mk _ =
    let release = Rng.uniform rng ~lo:0. ~hi:(horizon /. 2.) in
    let span = Rng.uniform rng ~lo:(horizon /. 3.) ~hi:(horizon -. release) in
    let deadline = Float.min horizon (release +. Float.max 1. span) in
    let work = Rng.pareto rng ~xm:1. ~shape in
    Job.make ~release ~deadline ~work
  in
  finalize ~machines:m ~integral (List.init n mk)

(* The adversarial family behind the AVR lower bound (Bansal, Bunde, Chan,
   Pruhs): nested windows sharing one deadline with geometric spans and
   equal densities, so the accumulated density ramps up toward the common
   deadline.  [copies] jobs per level load all m processors. *)
let staircase ~machines ~levels ~copies () =
  if levels <= 0 || levels > 28 then invalid_arg "Generators.staircase: levels out of range";
  if copies <= 0 then invalid_arg "Generators.staircase: copies <= 0";
  let horizon = float_of_int (1 lsl levels) in
  let jobs = ref [] in
  for level = 0 to levels - 1 do
    let span = float_of_int (1 lsl (levels - level)) in
    for _ = 1 to copies do
      jobs := Job.make ~release:(horizon -. span) ~deadline:horizon ~work:span :: !jobs
    done
  done;
  Job.instance ~machines (List.rev !jobs)

(* A mix of long background jobs and short latency-critical ones (the
   interactive multi-core regime). *)
let long_short ?(integral = true) ~seed ~machines ~long_jobs ~short_jobs ~horizon () =
  if long_jobs < 0 || short_jobs < 0 || long_jobs + short_jobs = 0 then
    invalid_arg "Generators.long_short: bad parameters";
  let rng = Rng.create ~seed in
  let long _ =
    let release = Rng.uniform rng ~lo:0. ~hi:(horizon /. 4.) in
    let deadline = Rng.uniform rng ~lo:(3. *. horizon /. 4.) ~hi:horizon in
    let work = Rng.uniform rng ~lo:(horizon /. 4.) ~hi:horizon in
    Job.make ~release ~deadline ~work
  in
  let short _ =
    let release = Rng.uniform rng ~lo:0. ~hi:(horizon -. 2.) in
    let span = Rng.uniform rng ~lo:1. ~hi:3. in
    let work = Rng.uniform rng ~lo:0.5 ~hi:4. in
    Job.make ~release ~deadline:(release +. span) ~work
  in
  finalize ~machines ~integral (List.init long_jobs long @ List.init short_jobs short)

(* Periodic media decoding: frame i released at i*period with deadline one
   period later; work follows a repeating I/P/B pattern with jitter. *)
let video ?(integral = true) ~seed ~machines ~frames ~period ~base_work () =
  if frames <= 0 || period <= 0. then invalid_arg "Generators.video: bad parameters";
  let rng = Rng.create ~seed in
  let pattern = [| 3.0; 1.0; 0.6; 1.0; 0.6; 0.6 |] in
  let mk i =
    let release = float_of_int i *. period in
    let factor = pattern.(i mod Array.length pattern) in
    let jitter = Rng.uniform rng ~lo:0.8 ~hi:1.2 in
    Job.make ~release ~deadline:(release +. period) ~work:(base_work *. factor *. jitter)
  in
  finalize ~machines ~integral (List.init frames mk)

(* Diurnal service load: arrival intensity follows a day/night sinusoid
   over [cycles] "days" of length [day]; works are lognormal (a standard
   fit for service times); deadlines give proportional slack.  The most
   trace-like of the generators. *)
let diurnal ?(integral = true) ~seed ~machines ~jobs:n ~days ~day_length ~mean_work ~slack ()
    =
  if n <= 0 || days <= 0 || day_length <= 0. then
    invalid_arg "Generators.diurnal: bad parameters";
  let rng = Rng.create ~seed in
  let horizon = float_of_int days *. day_length in
  (* Rejection-sample arrival times against the sinusoidal intensity
     (peak at mid-day, trough at night). *)
  let intensity t =
    let phase = 2. *. Float.pi *. t /. day_length in
    0.55 +. (0.45 *. Float.sin (phase -. (Float.pi /. 2.)))
  in
  let rec arrival () =
    let t = Rng.uniform rng ~lo:0. ~hi:horizon in
    if Rng.float rng <= intensity t then t else arrival ()
  in
  let mk _ =
    let release = arrival () in
    let work = Float.max (mean_work /. 20.) (Rng.lognormal rng ~mu:(Float.log mean_work -. 0.5) ~sigma:1.) in
    let window = Float.max 1. (slack *. work) in
    Job.make ~release ~deadline:(release +. window) ~work
  in
  finalize ~machines ~integral (List.init n mk)

(* [clusters] well-separated job batches.  Each batch opens with one
   anchor job spanning the whole batch window (so the batch is a single
   connected component of the window-overlap graph) and fills up with
   random jobs inside it; between batches lies a dead gap no window
   crosses, which survives integralization because [gap >= 2].  The
   offline instance therefore decomposes into exactly [clusters]
   independent sub-instances — the first-class workload behind the
   decomposition bench and tests. *)
let clustered ?(integral = true) ~seed ~machines ~clusters ~jobs_per_cluster ~cluster_span
    ~gap ~max_work () =
  if clusters <= 0 || jobs_per_cluster <= 0 then
    invalid_arg "Generators.clustered: bad parameters";
  if cluster_span < 2. || gap < 2. then
    invalid_arg "Generators.clustered: cluster_span and gap must be >= 2";
  let rng = Rng.create ~seed in
  let jobs = ref [] in
  for c = 0 to clusters - 1 do
    let base = float_of_int c *. (cluster_span +. gap) in
    let work () = Rng.uniform rng ~lo:(max_work /. 10.) ~hi:max_work in
    (* Batch anchor: spans the whole batch window. *)
    jobs := Job.make ~release:base ~deadline:(base +. cluster_span) ~work:(work ()) :: !jobs;
    for _ = 2 to jobs_per_cluster do
      let offset = Rng.uniform rng ~lo:0. ~hi:(cluster_span -. 1.) in
      let span = Rng.uniform rng ~lo:1. ~hi:(cluster_span -. offset) in
      jobs :=
        Job.make ~release:(base +. offset) ~deadline:(base +. offset +. span)
          ~work:(work ())
        :: !jobs
    done
  done;
  finalize ~machines ~integral (List.rev !jobs)

(* Scale a generated instance's total density to a target load factor
   (total density / machines); used by the load sweep F3. *)
let with_load_factor target (inst : Job.instance) =
  if target <= 0. then invalid_arg "Generators.with_load_factor: target <= 0";
  let current = Job.load_factor inst in
  let factor = target /. current in
  { inst with jobs = Array.map (Job.scale_work factor) inst.jobs }

(* Batch of instances with a controlled canonical-duplicate rate — the
   workload behind the dispatcher's memo cache (bench throughput, E2g).
   Roughly [1 - duplicate_rate] of the [count] instances are distinct
   bases (clustered and uniform families alternating); the rest are
   disguised duplicates of a random base: an integral time shift plus a
   power-of-two work scale, exactly the invariances Canon normalizes
   away, so each disguise canonicalizes onto its base.  Base jobs are
   pre-sorted by the canonical (release, deadline, work) triple, and both
   disguises preserve that order, so the dispatcher's canonical-route
   answers stay bit-identical to direct scratch solves of every batch
   member.  The batch is shuffled deterministically, making the hit
   pattern steal-order-independent. *)
let batch ?(duplicate_rate = 0.5) ~seed ~machines ~count ~jobs () =
  if count <= 0 then invalid_arg "Generators.batch: count <= 0";
  if duplicate_rate < 0. || duplicate_rate >= 1. then
    invalid_arg "Generators.batch: duplicate_rate must be in [0, 1)";
  let sort_jobs (inst : Job.instance) =
    let a = Array.copy inst.jobs in
    Array.sort
      (fun (a : Job.t) (b : Job.t) ->
        match Float.compare a.release b.release with
        | 0 -> (
          match Float.compare a.deadline b.deadline with
          | 0 -> Float.compare a.work b.work
          | c -> c)
        | c -> c)
      a;
    { inst with jobs = a }
  in
  let bases =
    Float.to_int (Float.ceil (float_of_int count *. (1. -. duplicate_rate)))
    |> max 1
  in
  let rng = Rng.create ~seed in
  let base i =
    let seed = seed + (257 * i) in
    sort_jobs
      (if i mod 2 = 0 then
         clustered ~seed ~machines ~clusters:3
           ~jobs_per_cluster:(max 2 (jobs / 3))
           ~cluster_span:20. ~gap:4. ~max_work:4. ()
       else uniform ~seed ~machines ~jobs ~horizon:40. ~max_work:4. ())
  in
  let pool = Array.init bases base in
  let disguise (inst : Job.instance) =
    let dt = float_of_int (1 + Rng.int rng ~bound:1000) in
    let wexp = Rng.int rng ~bound:7 - 3 in
    let jobs =
      Array.map
        (fun (j : Job.t) ->
          {
            Job.release = j.release +. dt;
            deadline = j.deadline +. dt;
            work = Float.ldexp j.work wexp;
          })
        inst.jobs
    in
    { inst with jobs }
  in
  let all =
    Array.init count (fun i ->
        if i < bases then pool.(i) else disguise (Rng.choice rng pool))
  in
  (* Fisher–Yates, deterministic in [seed]. *)
  for i = count - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- tmp
  done;
  all
