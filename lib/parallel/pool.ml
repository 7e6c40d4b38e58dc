(* Data-parallel map over OCaml 5 domains.

   [Crew] keeps persistent worker domains for batch-solving layers (the
   dispatch throughput engine).  Workers are spawned once and parked on a
   condition variable; each batch partitions the index space into
   per-worker ranges with a private atomic cursor, and a worker that
   drains its own range steals chunks from the other ranges.  This keeps
   domain spawn/join cost out of the per-batch path and keeps work
   balanced when item costs are skewed (e.g. memo-cache hits next to full
   solves).  [map] is one batch on a crew made for the call.

   Exceptions raised by the worker function are captured and re-raised in
   the caller (first one wins); determinism of results is guaranteed
   because outputs land at their input's index. *)

let default_domains () =
  (* Leave one core for the orchestrating domain; stay modest to avoid
     oversubscription inside test runners. *)
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Index claims are amortized over blocks of [chunk] items: one
   fetch-and-add hands out [base, base+chunk).  n/(8*domains) keeps ~8
   claims per domain — enough slack for load balancing, few enough that
   the shared counter stays cold when items are tiny. *)
let chunk_for ~n ~workers = max 1 (n / (8 * workers))

(* --- persistent worker crews ------------------------------------------- *)

module Crew = struct
  (* One batch in flight.  The polymorphic payload ([f], input and output
     arrays) is captured inside [work], a closure indexed by worker id;
     the record itself stays monomorphic so one mutable slot serves every
     batch.  [active] counts the workers currently inside [work] — the
     submitter waits for it to reach 0, which is both the completion
     signal (all cursors drained) and the drain guarantee on error (no
     worker is mid-item when the exception is re-raised).  [live] blocks
     late joiners: a worker waking up after the batch was retired must
     not enter it. *)
  type batch = {
    work : int -> unit;
    mutable active : int;
    mutable live : bool;
  }

  type t = {
    size : int;                       (* workers, including the caller *)
    lock : Mutex.t;
    work_ready : Condition.t;
    batch_done : Condition.t;
    mutable epoch : int;
    mutable batch : batch option;
    mutable stop : bool;
    steals : int Atomic.t;            (* lifetime stolen-chunk count *)
    mutable spawned : unit Domain.t list;
  }

  (* Per-batch work distribution: worker [w] owns the contiguous range
     [lo.(w), hi.(w)) with a private monotonic cursor; claims (own and
     stolen alike) are a fetch-and-add of [chunk] on the range's cursor,
     so every index is claimed exactly once whatever the interleaving.
     This is a monotonic-cursor variant of a work-stealing deque: there
     is no owner/thief end distinction (and so no ABA or resizing), at
     the cost of thieves contending with the owner on the same counter —
     which only happens once a range is nearly drained. *)
  let run_batch t f (arr : 'a array) (results : 'b option array)
      (error : exn option Atomic.t) =
    let n = Array.length arr in
    let workers = t.size in
    let cursors = Array.init workers (fun _ -> Atomic.make 0) in
    let lo = Array.make workers 0 and hi = Array.make workers 0 in
    let per = n / workers and extra = n mod workers in
    let pos = ref 0 in
    for w = 0 to workers - 1 do
      let len = per + if w < extra then 1 else 0 in
      lo.(w) <- !pos;
      hi.(w) <- !pos + len;
      Atomic.set cursors.(w) !pos;
      pos := !pos + len
    done;
    let chunk = chunk_for ~n ~workers in
    (* Claim the next chunk of range [v]; [-1] when the range is dry. *)
    let claim v =
      if Atomic.get cursors.(v) >= hi.(v) then -1
      else
        let base = Atomic.fetch_and_add cursors.(v) chunk in
        if base < hi.(v) then base else -1
    in
    let eval w base stop_ =
      try
        for i = base to stop_ - 1 do
          if Atomic.get error = None then results.(i) <- Some (f w arr.(i))
        done
      with e -> ignore (Atomic.compare_and_set error None (Some e))
    in
    fun w ->
      (* Own range first, then scan the other ranges for leftovers. *)
      let rec own () =
        if Atomic.get error = None then begin
          let base = claim w in
          if base >= 0 then begin
            eval w base (min hi.(w) (base + chunk));
            own ()
          end
        end
      in
      own ();
      let rec steal v remaining =
        if remaining > 0 && Atomic.get error = None then begin
          let v = if v >= workers then 0 else v in
          let base = claim v in
          if base >= 0 then begin
            Atomic.incr t.steals;
            eval w base (min hi.(v) (base + chunk));
            steal v remaining
          end
          else steal (v + 1) (remaining - 1)
        end
      in
      steal ((w + 1) mod workers) (workers - 1)

  let worker_loop t wid () =
    let last_seen = ref 0 in
    Mutex.lock t.lock;
    let rec loop () =
      if t.stop then Mutex.unlock t.lock
      else
        match t.batch with
        | Some b when t.epoch <> !last_seen && b.live ->
          last_seen := t.epoch;
          b.active <- b.active + 1;
          Mutex.unlock t.lock;
          b.work wid;
          Mutex.lock t.lock;
          b.active <- b.active - 1;
          Condition.broadcast t.batch_done;
          loop ()
        | _ ->
          Condition.wait t.work_ready t.lock;
          loop ()
    in
    loop ()

  let create ?domains () =
    let size =
      match domains with
      | Some d when d >= 1 -> d
      | Some _ -> invalid_arg "Pool.Crew.create: domains < 1"
      | None -> default_domains ()
    in
    let t =
      {
        size;
        lock = Mutex.create ();
        work_ready = Condition.create ();
        batch_done = Condition.create ();
        epoch = 0;
        batch = None;
        stop = false;
        steals = Atomic.make 0;
        spawned = [];
      }
    in
    t.spawned <- List.init (size - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
    t

  let size t = t.size
  let steals t = Atomic.get t.steals

  let mapw t f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else if t.size = 1 || n = 1 || t.stop then
      (* Inline fast path (and graceful fallback after [shutdown]): run on
         the calling domain, which is always crew worker 0. *)
      Array.map (f 0) arr
    else begin
      let results = Array.make n None in
      let error = Atomic.make None in
      let work = run_batch t f arr results error in
      let b = { work; active = 0; live = true } in
      Mutex.lock t.lock;
      t.epoch <- t.epoch + 1;
      t.batch <- Some b;
      b.active <- b.active + 1 (* the caller participates as worker 0 *);
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      b.work 0;
      Mutex.lock t.lock;
      b.active <- b.active - 1;
      Condition.broadcast t.batch_done;
      while b.active > 0 do
        Condition.wait t.batch_done t.lock
      done;
      (* Retire the batch before releasing the lock so a late-waking
         worker cannot join it after we have returned. *)
      b.live <- false;
      t.batch <- None;
      Mutex.unlock t.lock;
      (match Atomic.get error with Some e -> raise e | None -> ());
      Array.map
        (function
          | Some v -> v
          | None -> failwith "Pool.Crew.mapw: missing result (worker died)")
        results
    end

  let map t f arr = mapw t (fun _ x -> f x) arr

  let shutdown t =
    Mutex.lock t.lock;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      List.iter Domain.join t.spawned;
      t.spawned <- []
    end
    else Mutex.unlock t.lock
end

let map ?domains f arr =
  let wanted = match domains with Some d -> d | None -> default_domains () in
  let domains = max 1 (min wanted (Array.length arr)) in
  if domains = 1 then Array.map f arr
  else begin
    let crew = Crew.create ~domains () in
    Fun.protect ~finally:(fun () -> Crew.shutdown crew) (fun () -> Crew.map crew f arr)
  end
