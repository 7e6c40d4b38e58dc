(* Data-parallel map over OCaml 5 domains: one fork–join per call.

   [mapw] spawns [workers - 1] domains for the call and runs the caller
   as worker 0.  Every worker claims chunks of consecutive indices from
   one shared atomic cursor until the input runs out or an item raises.
   Results land at their input's index, so outputs do not depend on the
   interleaving.  The first exception is re-raised only after every
   spawned domain has been joined, so no worker outlives the call. *)

let default_domains () =
  (* Leave one core for the orchestrating domain; stay modest to avoid
     oversubscription inside test runners. *)
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Index claims are amortized over blocks of [chunk] items: one
   fetch-and-add hands out [base, base+chunk).  n/(8*workers) keeps ~8
   claims per worker — enough slack for load balancing, few enough that
   the shared counter stays cold when items are tiny. *)
let chunk_for ~n ~workers = max 1 (n / (8 * workers))

let mapw ?(domains = default_domains ()) f arr =
  let n = Array.length arr in
  let workers = max 1 (min domains n) in
  if workers = 1 then Array.map (f 0) arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let fail e = ignore (Atomic.compare_and_set error None (Some e)) in
    let chunk = chunk_for ~n ~workers in
    (* Worker [w] runs one item at a time, so [f] may index per-worker
       state by [w].  Once [error] is set no worker claims another chunk,
       and a chunk in progress skips its remaining items. *)
    let rec work w =
      if Atomic.get error = None then begin
        let base = Atomic.fetch_and_add next chunk in
        if base < n then begin
          (try
             for i = base to min n (base + chunk) - 1 do
               if Atomic.get error = None then results.(i) <- Some (f w arr.(i))
             done
           with e -> fail e);
          work w
        end
      end
    in
    (* If a spawn fails, the workers already running stop at their next
       claim and are joined before the failure is re-raised. *)
    let spawned = ref [] in
    (try
       for w = 1 to workers - 1 do
         spawned := Domain.spawn (fun () -> work w) :: !spawned
       done;
       work 0
     with e -> fail e);
    List.iter Domain.join !spawned;
    Option.iter raise (Atomic.get error);
    Array.map Option.get results
  end

let map ?domains f arr = mapw ?domains (fun _ x -> f x) arr
