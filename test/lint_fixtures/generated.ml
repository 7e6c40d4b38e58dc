module F = Ss_numeric.Field.Float
# 1 "lib/flow/flow_body.ml"
(* A template instance as dune writes it: ss_lint skips the file, so the
   finding below is neither reported nor the file counted. *)

let bad xs = List.sort compare xs
