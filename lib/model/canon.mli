(** Canonical forms of problem instances under the model's exact
    invariances — the cache-key layer of the batch dispatcher.

    The offline optimum is equivariant under three transformations:
    shifting all release/deadline times by a constant, scaling all works
    by a common factor, and permuting the job array.  {!canonicalize}
    normalizes an instance along all three (earliest release moved to 0,
    largest work scaled into [1, 2), jobs sorted by (release, deadline,
    work)) and returns the transform that maps the original onto the
    canonical form, so a solver answer computed on the canonical instance
    can be mapped back.

    Bit-exactness discipline: a transform is only applied when it is
    exactly invertible AND the float solver is exactly equivariant under
    it, so that un-transforming the canonical answer reproduces the
    direct answer bit for bit.

    - The time shift is restricted to instances whose endpoints are all
      integral and comfortably inside the 2^53 exact-integer range:
      integer adds/subtracts are then exact, every solver-visible
      difference of times (window lengths, grid-interval widths) is
      bitwise unchanged by the shift, and adding the shift back to the
      canonical breakpoints is exact.  Otherwise [dt = 0].
    - The work scale is restricted to powers of two with every scaled
      work staying comfortably normal: float rounding commutes with
      powers of two, so every solver-visible quantity either is bitwise
      unchanged (durations, processor counts) or scales by exactly the
      same power of two (speeds, flows).  Otherwise [wexp = 0].
    - The permutation is the stable sort by (release, deadline, work);
      callers whose answers are order-sensitive (the online simulators)
      can request [~sort:false]. *)

type transform = {
  dt : float;  (** canonical time = original time - [dt] (exact) *)
  wexp : int;  (** canonical work = [ldexp] work [wexp] (exact) *)
  perm : int array;
      (** canonical job [j] is original job [perm.(j)]; length = jobs *)
}

val canonicalize :
  ?shift:bool -> ?sort:bool -> Job.instance -> Job.instance * transform
(** Canonical instance plus the transform that produced it (both flags
    default to [true]).  The canonical instance is always a valid
    instance with the same machine count.

    [~shift:false] skips the time shift: callers whose answers carry
    absolute times that are not endpoint-derived (the online simulators'
    schedules contain wrap-packing offsets at arbitrary non-integral
    positions, where adding the shift back is no longer exact) must keep
    the original time origin.  [~sort:false] skips the permutation for
    answers sensitive to job numbering order. *)

val encode : Job.instance -> string
(** Bit-exact byte encoding of an instance (machine count plus the IEEE
    bits of every job field): equal strings iff bitwise-equal instances.
    Used both as the digest pre-image and as the collision guard stored
    in cache entries. *)

val digest : Job.instance -> string
(** MD5 of {!encode} — the memo-cache key.  Canonicalize first to make
    shift/scale/permutation variants collide. *)
