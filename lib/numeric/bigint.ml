(* Arbitrary-precision signed integers, pure OCaml.

   Representation: sign/magnitude with little-endian limbs in base 2^20.
   The base is chosen so that a limb product (2^40) plus carries stays far
   below the 63-bit native-int range, keeping multiplication a plain
   schoolbook loop without any Int64 boxing.

   Division uses a limb-wise fast path for divisors below 2^40 (which covers
   the denominators produced by gcd-normalized rational arithmetic on the
   instance sizes we certify exactly) and bit-wise long division otherwise.
   Gcd is binary (shift/subtract), so rational normalization never divides
   by a large number. *)

let limb_bits = 20
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: [mag] has no trailing (most-significant) zero limb;
   [sign = 0] iff [mag] is empty; each limb is in [0, base). *)

let zero = { sign = 0; mag = [||] }
let is_zero a = a.sign = 0

(* Strip most-significant zero limbs; fix the sign of a zero magnitude. *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then zero
  else if hi = n - 1 then { sign; mag }
  else { sign; mag = Array.sub mag 0 (hi + 1) }

let of_int n =
  if n = 0 then zero
  else if n = min_int then begin
    (* [abs min_int] overflows: build the magnitude of 2^62 directly. *)
    let m = Array.make 4 0 in
    m.(3) <- 1 lsl (62 - (3 * limb_bits));
    { sign = -1; mag = m }
  end
  else begin
    let sign = if n > 0 then 1 else -1 in
    let v = abs n in
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let m = Array.make (count 0 v) 0 in
    let rec fill i v =
      if v <> 0 then begin
        m.(i) <- v land mask;
        fill (i + 1) (v lsr limb_bits)
      end
    in
    fill 0 v;
    { sign; mag = m }
  end

let to_int_opt a =
  if a.sign = 0 then Some 0
  else begin
    let n = Array.length a.mag in
    if n > 4 then None
    else begin
      let rec go i acc =
        if i < 0 then Some acc
        else
          let acc' = (acc lsl limb_bits) lor a.mag.(i) in
          if acc' < acc || acc' < 0 then None else go (i - 1) acc'
      in
      match go (n - 1) 0 with
      | None -> None
      | Some v -> Some (if a.sign < 0 then -v else v)
    end
  end

let to_float a =
  let n = Array.length a.mag in
  let rec go i acc = if i < 0 then acc else go (i - 1) ((acc *. float_of_int base) +. float_of_int a.mag.(i)) in
  let v = go (n - 1) 0. in
  if a.sign < 0 then -.v else v

let compare_mag x y =
  let nx = Array.length x and ny = Array.length y in
  if nx <> ny then Int.compare nx ny
  else begin
    let rec go i = if i < 0 then 0 else if x.(i) <> y.(i) then Int.compare x.(i) y.(i) else go (i - 1) in
    go (nx - 1)
  end

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0

(* Magnitude addition. *)
let add_mag x y =
  let nx = Array.length x and ny = Array.length y in
  let n = max nx ny in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let xv = if i < nx then x.(i) else 0 in
    let yv = if i < ny then y.(i) else 0 in
    let s = xv + yv + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  r

(* Magnitude subtraction; requires [x >= y]. *)
let sub_mag x y =
  let nx = Array.length x and ny = Array.length y in
  let r = Array.make nx 0 in
  let borrow = ref 0 in
  for i = 0 to nx - 1 do
    let yv = if i < ny then y.(i) else 0 in
    let d = x.(i) - yv - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let neg a = if a.sign = 0 then a else { a with sign = -a.sign }

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match compare_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let x = a.mag and y = b.mag in
    let nx = Array.length x and ny = Array.length y in
    let r = Array.make (nx + ny) 0 in
    for i = 0 to nx - 1 do
      let carry = ref 0 in
      let xi = x.(i) in
      for j = 0 to ny - 1 do
        let acc = r.(i + j) + (xi * y.(j)) + !carry in
        r.(i + j) <- acc land mask;
        carry := acc lsr limb_bits
      done;
      (* Propagate the remaining carry (it fits in one limb plus overflow). *)
      let k = ref (i + ny) in
      while !carry <> 0 do
        let acc = r.(!k) + !carry in
        r.(!k) <- acc land mask;
        carry := acc lsr limb_bits;
        incr k
      done
    done;
    normalize (a.sign * b.sign) r
  end

let nbits_mag mag =
  let n = Array.length mag in
  if n = 0 then 0
  else begin
    let top = mag.(n - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + width 0 top
  end

let nbits a = nbits_mag a.mag

let bit_mag mag i =
  let limb = i / limb_bits and off = i mod limb_bits in
  if limb >= Array.length mag then 0 else (mag.(limb) lsr off) land 1

let shift_left a k =
  if a.sign = 0 || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length a.mag in
    let r = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = a.mag.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize a.sign r
  end

let shift_right a k =
  if a.sign = 0 || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length a.mag in
    if limbs >= n then zero
    else begin
      let r = Array.make (n - limbs) 0 in
      for i = 0 to n - limbs - 1 do
        let lo = a.mag.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < n && bits > 0 then (a.mag.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      normalize a.sign r
    end
  end

(* Divisor fits below 2^40: limb-wise division with a rolling remainder.
   [rem * base + limb] stays below 2^60, inside native-int range. *)
let divmod_small_mag x d =
  let n = Array.length x in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor x.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* General magnitude division, bit-wise long division.  O(bits * limbs) —
   only reached for divisors of three limbs or more, which rational
   normalization keeps rare. *)
let divmod_mag x y =
  match compare_mag x y with
  | c when c < 0 -> ([||], Array.copy x)
  | 0 -> ([| 1 |], [||])
  | _ ->
    let bx = nbits_mag x in
    let q = Array.make (Array.length x) 0 in
    let rem = ref zero in
    let ypos = { sign = 1; mag = y } in
    for i = bx - 1 downto 0 do
      rem := shift_left !rem 1;
      if bit_mag x i = 1 then rem := add !rem { sign = 1; mag = [| 1 |] };
      if compare_mag !rem.mag y >= 0 then begin
        rem := sub !rem ypos;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (q, if !rem.sign = 0 then [||] else !rem.mag)

(* Truncated division (quotient rounded toward zero, OCaml convention). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qmag, rmag =
      if Array.length b.mag <= 2 then begin
        let d =
          if Array.length b.mag = 1 then b.mag.(0)
          else (b.mag.(1) lsl limb_bits) lor b.mag.(0)
        in
        let q, r = divmod_small_mag a.mag d in
        let rm = if r = 0 then [||] else if r < base then [| r |] else [| r land mask; r lsr limb_bits |] in
        (q, rm)
      end
      else divmod_mag a.mag b.mag
    in
    let q = normalize (a.sign * b.sign) qmag in
    let r = normalize a.sign rmag in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Binary gcd on magnitudes: no division, only shifts and subtractions. *)
let gcd a b =
  let a = { sign = (if a.sign = 0 then 0 else 1); mag = a.mag } in
  let b = { sign = (if b.sign = 0 then 0 else 1); mag = b.mag } in
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else begin
    let trailing_zeros x =
      let rec limb i = if x.mag.(i) = 0 then limb (i + 1) else i in
      let li = limb 0 in
      let v = x.mag.(li) in
      let rec bit k v = if v land 1 = 1 then k else bit (k + 1) (v lsr 1) in
      (li * limb_bits) + bit 0 v
    in
    let za = trailing_zeros a and zb = trailing_zeros b in
    let shift = min za zb in
    let rec go u v =
      (* u odd; v arbitrary non-zero. *)
      let v = shift_right v (trailing_zeros v) in
      match compare_mag u.mag v.mag with
      | 0 -> u
      | c when c > 0 -> go v (sub u v)
      | _ -> go u (sub v u)
    in
    let u = shift_right a za and v = shift_right b zb in
    shift_left (go u v) shift
  end

let one = of_int 1
let two = of_int 2
let ten = of_int 10

let sign a = a.sign
let abs a = if a.sign < 0 then neg a else a

let to_string a =
  if a.sign = 0 then "0"
  else begin
    (* Peel 12 decimal digits at a time: 10^12 < 2^40 hits the fast path. *)
    let chunk = 1_000_000_000_000 in
    let rec go acc x =
      if x.sign = 0 then acc
      else begin
        let q, r = divmod_small_mag x.mag chunk in
        let x' = normalize 1 q in
        if x'.sign = 0 then string_of_int r :: acc
        else go (Printf.sprintf "%012d" r :: acc) x'
      end
    in
    let body = String.concat "" (go [] (abs a)) in
    if a.sign < 0 then "-" ^ body else body
  end

let of_string s =
  let neg_p = String.length s > 0 && s.[0] = '-' in
  let start = if neg_p || (String.length s > 0 && s.[0] = '+') then 1 else 0 in
  if String.length s <= start then invalid_arg "Bigint.of_string: empty";
  let acc = ref zero in
  for i = start to String.length s - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_p then neg !acc else !acc

let pp ppf a = Format.pp_print_string ppf (to_string a)

(* 2^k as a bigint; used to embed IEEE-754 floats into rationals. *)
let pow2 k = shift_left one k

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
