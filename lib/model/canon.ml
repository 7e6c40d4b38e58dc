(* Canonical instance forms under the model's exact invariances: integral
   time shift, power-of-two work scale, job sort.  See canon.mli for the
   bit-exactness discipline; every guard here exists to keep the promise
   that un-transforming an answer computed on the canonical instance
   reproduces the direct answer bit for bit. *)

type transform = {
  dt : float;
  wexp : int;
  perm : int array;
}

(* Integers up to 2^52 in magnitude: differences stay within the exact
   2^53 integer range, so every add/subtract of two such endpoints is
   exact and the float solver cannot observe the shift. *)
let max_exact = 4503599627370496. (* 2^52 *)

let exactly_shiftable x = Float.is_integer x && Float.abs x <= max_exact

(* Smallest scaled work we accept: 2^-970 keeps a full 53-bit mantissa
   with hundreds of binades to spare for intermediate quotients. *)
let min_normalish = Float.ldexp 1.0 (-970)

let shift_of (jobs : Job.t array) =
  let ok =
    Array.for_all
      (fun (j : Job.t) -> exactly_shiftable j.release && exactly_shiftable j.deadline)
      jobs
  in
  if not ok then 0.
  else
    Array.fold_left (fun acc (j : Job.t) -> Float.min acc j.release) Float.infinity jobs
    |> fun dt -> if Float.is_finite dt then dt else 0.

let wexp_of (jobs : Job.t array) =
  let wmax = Array.fold_left (fun acc (j : Job.t) -> Float.max acc j.work) 0. jobs in
  if not (Float.is_finite wmax) || wmax <= 0. then 0
  else
    let _, e = Float.frexp wmax in
    let wexp = 1 - e in
    if
      wexp <> 0
      && Array.for_all
           (fun (j : Job.t) -> Float.ldexp j.work wexp >= min_normalish)
           jobs
    then wexp
    else 0

let apply tf (inst : Job.instance) =
  let jobs =
    Array.map
      (fun j ->
        let (o : Job.t) = inst.jobs.(j) in
        {
          Job.release = o.release -. tf.dt;
          deadline = o.deadline -. tf.dt;
          work = Float.ldexp o.work tf.wexp;
        })
      tf.perm
  in
  { inst with jobs }

let canonicalize ?(shift = true) ?(sort = true) (inst : Job.instance) =
  let n = Array.length inst.jobs in
  let dt = if shift then shift_of inst.jobs else 0. in
  let wexp = wexp_of inst.jobs in
  let perm = Array.init n Fun.id in
  if sort then begin
    (* Sort by the canonical triple; the shift and scale are monotone, so
       comparing original fields gives the same order.  The index
       tiebreak makes the sort a stable, deterministic permutation.  The
       fields are compared in place, with no key built per comparison. *)
    let jobs = inst.jobs in
    let compare_jobs a b =
      let (x : Job.t) = jobs.(a) and (y : Job.t) = jobs.(b) in
      match Float.compare x.release y.release with
      | 0 -> (
        match Float.compare x.deadline y.deadline with
        | 0 -> ( match Float.compare x.work y.work with 0 -> Int.compare a b | c -> c)
        | c -> c)
      | c -> c
    in
    Array.sort compare_jobs perm
  end;
  let tf = { dt; wexp; perm } in
  (apply tf inst, tf)

let encode (inst : Job.instance) =
  let buf = Buffer.create (16 + (24 * Array.length inst.jobs)) in
  Buffer.add_int64_le buf (Int64.of_int inst.machines);
  Array.iter
    (fun (j : Job.t) ->
      Buffer.add_int64_le buf (Int64.bits_of_float j.release);
      Buffer.add_int64_le buf (Int64.bits_of_float j.deadline);
      Buffer.add_int64_le buf (Int64.bits_of_float j.work))
    inst.jobs;
  Buffer.contents buf

let digest inst = Digest.string (encode inst)
