(* Exact rationals over Bigint, kept in lowest terms with positive
   denominator.  The [Field] submodule satisfies {!Field.S}, making the flow
   substrate and the offline scheduler runnable exactly. *)

type t = { num : Bigint.t; den : Bigint.t }
(* Invariants: den > 0; gcd(|num|, den) = 1; zero is 0/1. *)

let make_raw num den = { num; den }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then make_raw Bigint.zero Bigint.one
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then make_raw num den
    else make_raw (Bigint.div num g) (Bigint.div den g)
  end

let zero = make_raw Bigint.zero Bigint.one
let one = make_raw Bigint.one Bigint.one
let of_int n = make_raw (Bigint.of_int n) Bigint.one
let of_ints num den = make (Bigint.of_int num) (Bigint.of_int den)
let of_bigint n = make_raw n Bigint.one
let num t = t.num
let den t = t.den
let is_zero t = Bigint.is_zero t.num
let sign t = Bigint.sign t.num

let neg t = { t with num = Bigint.neg t.num }

let add a b =
  (* a.num/a.den + b.num/b.den; normalize once at the end. *)
  let num = Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den) in
  make num (Bigint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    (* Cross-reduce before multiplying to keep intermediate sizes small. *)
    let g1 = Bigint.gcd a.num b.den and g2 = Bigint.gcd b.num a.den in
    let num = Bigint.mul (Bigint.div a.num g1) (Bigint.div b.num g2) in
    let den = Bigint.mul (Bigint.div a.den g2) (Bigint.div b.den g1) in
    make_raw num den
  end

let inv t =
  if is_zero t then raise Division_by_zero;
  if Bigint.sign t.num < 0 then make_raw (Bigint.neg t.den) (Bigint.neg t.num)
  else make_raw t.den t.num

let div a b = mul a (inv b)

let compare a b =
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let abs t = if sign t < 0 then neg t else t

let to_float t = Bigint.to_float t.num /. Bigint.to_float t.den

(* Exact embedding of an IEEE-754 double: decompose into mantissa * 2^e. *)
let of_float x =
  if not (Float.is_finite x) then invalid_arg "Rational.of_float: not finite";
  if Float.equal x 0. then zero
  else begin
    let m, e = Float.frexp x in
    (* m in [0.5, 1); m * 2^53 is integral. *)
    let mant = Int64.of_float (Float.ldexp m 53) in
    let mant_b = Bigint.of_string (Int64.to_string mant) in
    let e = e - 53 in
    if e >= 0 then make_raw (Bigint.mul mant_b (Bigint.pow2 e)) Bigint.one
    else make mant_b (Bigint.pow2 (-e))
  end

let to_string t =
  if Bigint.equal t.den Bigint.one then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
    let num = Bigint.of_string (String.sub s 0 i) in
    let den = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make num den

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Field : Field.S with type t = t = struct
  type nonrec t = t

  let zero = zero
  let one = one
  let of_int = of_int
  let of_float = of_float
  let to_float = to_float
  let add = add
  let sub = sub
  let mul = mul
  let div = div
  let neg = neg
  let abs = abs
  let compare = compare
  let equal = equal
  let leq_approx a b = compare a b <= 0
  let equal_approx = equal
  let slack _ = zero
  let min = min
  let max = max
  let is_zero = is_zero
  let sign = sign
  let pp = pp
  let to_string = to_string
end
