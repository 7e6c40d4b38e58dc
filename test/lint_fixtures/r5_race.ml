(* R5 fixture: shared-mutable captures in closures handed to
   Domain.spawn / Pool.  Never compiled. *)

let total = ref 0

let bad_ref xs = Pool.map (fun x -> total := !total + x; x) xs
let bad_incr xs = Pool.map (fun x -> incr total; x) xs
let bad_array out xs = Pool.map (fun i -> out.(i) <- i; i) xs
let bad_field t xs = Pool.mapw (fun _ s -> t.count <- t.count + 1; s) xs

let bad_named xs =
  let worker () = total := List.length xs in
  Domain.spawn worker

let bad_partial t xs =
  let worker_loop t w () = t.count <- w in
  ignore xs;
  Domain.spawn (worker_loop t 1)

let ok_local xs =
  Pool.map
    (fun x ->
      let acc = ref 0 in
      acc := x + !acc;
      !acc)
    xs

let ok_atomic c xs = Pool.map (fun x -> Atomic.incr c; x) xs

let ok_protect m xs =
  Pool.map (fun x -> Mutex.protect m (fun () -> total := !total + x); x) xs

let ok_lock_region m xs =
  Pool.map
    (fun x ->
      Mutex.lock m;
      total := !total + x;
      Mutex.unlock m;
      x)
    xs

let suppressed out xs = Pool.map (fun i -> out.(i) <- i; i) xs (* ss_lint: allow domain-race — fixture: disjoint indices *)
