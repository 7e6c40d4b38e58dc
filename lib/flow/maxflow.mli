(** Maximum-flow substrate on an ordered field, so the offline scheduler
    can run both on floats and on exact rationals.  Both instances are
    compiled from one source (lib/flow/flow_body.ml and its interface
    flow_body.mli, where every operation is documented); [dinic] answers
    every dense round of the solver, [edmonds_karp] and [push_relabel]
    are independent references the tests compare it against. *)

module Float : module type of Flow_float
(** On floats, with {!Ss_numeric.Field.Float}'s tolerances
    ([num = float]). *)

module Exact : module type of Flow_exact
(** On exact rationals ([num = Ss_numeric.Rational.t]). *)
