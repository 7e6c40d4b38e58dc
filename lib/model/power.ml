(* Power functions P(s): convex and non-decreasing on s >= 0.

   The offline algorithm of the paper never evaluates P — its schedule is
   optimal for every convex non-decreasing P simultaneously (it minimizes
   speeds pointwise in the majorization order).  P enters only when
   accounting energy and in the online competitive bounds, which are stated
   for P(s) = s^alpha. *)

type t =
  | Alpha of float                       (* s^alpha, alpha > 1 *)
  | Poly of (float * float) list         (* sum_i c_i * s^e_i *)
  | Custom of {
      name : string;
      eval : float -> float;
      deriv : float -> float;
    }

let alpha a =
  if a <= 1. then invalid_arg "Power.alpha: requires alpha > 1";
  Alpha a

let poly terms =
  List.iter
    (fun (c, e) ->
      if c < 0. then invalid_arg "Power.poly: negative coefficient breaks convexity";
      if e < 1. && not (Float.equal e 0.) then
        invalid_arg "Power.poly: exponent in (0,1) breaks convexity")
    terms;
  Poly terms

let custom ~name ~eval ~deriv = Custom { name; eval; deriv }

let cube = Alpha 3.  (* the CMOS cube-root rule *)

let eval p s =
  if s < 0. then invalid_arg "Power.eval: negative speed";
  match p with
  | Alpha a -> s ** a
  | Poly terms -> Ss_numeric.Kahan.sum_list (List.map (fun (c, e) -> c *. (s ** e)) terms)
  | Custom { eval; _ } -> eval s

let deriv p s =
  if s < 0. then invalid_arg "Power.deriv: negative speed";
  match p with
  | Alpha a -> a *. (s ** (a -. 1.))
  | Poly terms ->
    Ss_numeric.Kahan.sum_list
      (List.map (fun (c, e) -> if Float.equal e 0. then 0. else c *. e *. (s ** (e -. 1.))) terms)
  | Custom { deriv; _ } -> deriv s

(* g(s) = s P'(s) - P(s): the marginal water-filling level.  It is
   non-decreasing for convex P and drives the per-interval optimum
   (equalize g across uncapped jobs; see Ss_convex.Oracle). *)
let waterfill_level p s = (s *. deriv p s) -. eval p s

let energy p ~speed ~duration =
  if duration < 0. then invalid_arg "Power.energy: negative duration";
  eval p speed *. duration

let name = function
  | Alpha a -> Printf.sprintf "s^%g" a
  | Poly terms ->
    String.concat " + "
      (List.map
         (fun (c, e) ->
           if Float.equal e 0. then Printf.sprintf "%g" c else Printf.sprintf "%g*s^%g" c e)
         terms)
  | Custom { name; _ } -> name

let exponent = function Alpha a -> Some a | Poly _ | Custom _ -> None

(* Convexity / monotonicity spot-check at 64 samples over [0, 16]; used to
   validate [Custom] functions supplied by callers. *)
let plausible_convex p =
  let samples = 64 in
  let h = 16. /. float_of_int samples in
  let ok = ref true in
  for i = 0 to samples - 2 do
    let s0 = h *. float_of_int i in
    let s1 = s0 +. h and s2 = s0 +. (2. *. h) in
    let f0 = eval p s0 and f1 = eval p s1 and f2 = eval p s2 in
    if f1 > f2 +. 1e-9 *. (1. +. Float.abs f2) then ok := false;
    if (2. *. f1) -. f0 -. f2 > 1e-9 *. (1. +. Float.abs f2) then ok := false
  done;
  !ok

let pp ppf p = Format.pp_print_string ppf (name p)
