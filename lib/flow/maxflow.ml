(* Maximum-flow substrate: the two compiled instances of the one Dinic,
   Edmonds–Karp and push-relabel source in flow_body.ml, on floats and on
   exact rationals (see lib/flow/dune). *)

module Float = Flow_float
module Exact = Flow_exact
