(* Sign-magnitude arbitrary-precision integers in base 10^9.

   Invariants: [mag] is little-endian with no most-significant zero
   digit; [sign = 0] iff [mag] is empty; every digit is in [0, base). *)

let base = 1_000_000_000
let base_digits = 9

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let t = top (n - 1) in
  if t < 0 then zero
  else if t = n - 1 then { sign; mag }
  else { sign; mag = Array.sub mag 0 (t + 1) }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int negation is safe digit-by-digit via arithmetic on the
       absolute value computed with care: use Int64-free trick by
       peeling the low digit before negating. *)
    let rec digits acc n =
      if n = 0 then acc else digits ((n mod base) :: acc) (n / base)
    in
    let ds =
      if n <> min_int then digits [] (abs n)
      else
        (* |min_int| overflows; peel one digit first. *)
        let low = -(n mod base) and high = -(n / base) in
        List.rev (low :: List.rev (digits [] high))
    in
    let ds = List.rev ds in
    { sign; mag = Array.of_list ds }
  end

let one = of_int 1
let two = of_int 2
let sign t = t.sign
let is_zero t = t.sign = 0

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t =
  Array.fold_left (fun acc d -> (acc * 31) + d) t.sign t.mag land max_int

(* Magnitude addition: no sign involved. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    if s >= base then begin
      r.(i) <- s - base;
      carry := 1
    end
    else begin
      r.(i) <- s;
      carry := 0
    end
  done;
  r

(* Magnitude subtraction; requires [a >= b]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  assert (cmp_mag a b >= 0);
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let da = a.(i) in
    let db = if i < lb then b.(i) else 0 in
    let s = da - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then normalize a.sign (sub_mag a.mag b.mag)
    else normalize b.sign (sub_mag b.mag a.mag)

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t
let sub a b = add a (neg b)
let succ t = add t one
let pred t = sub t one

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    for j = 0 to lb - 1 do
      let cur = r.(i + j) + (ai * b.(j)) + !carry in
      r.(i + j) <- cur mod base;
      carry := cur / base
    done;
    let k = ref (i + lb) in
    while !carry > 0 do
      let cur = r.(!k) + !carry in
      r.(!k) <- cur mod base;
      carry := cur / base;
      incr k
    done
  done;
  r

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else normalize (a.sign * b.sign) (mul_mag a.mag b.mag)

(* Multiply a magnitude by a small non-negative int (< base). *)
let mul_mag_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur mod base;
      carry := cur / base
    done;
    let k = ref la in
    while !carry > 0 do
      r.(!k) <- !carry mod base;
      carry := !carry / base;
      incr k
    done;
    r
  end

(* Long division of magnitudes: processes dividend digits from the most
   significant end, keeping the running remainder as a magnitude and
   finding each quotient digit by binary search. Quadratic, but our
   operands are tiny. *)
let divmod_mag a b =
  assert (Array.length b > 0);
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref [||] in
  for i = la - 1 downto 0 do
    (* rem := rem * base + a.(i) *)
    let shifted =
      let lr = Array.length !rem in
      let r' = Array.make (lr + 1) 0 in
      Array.blit !rem 0 r' 1 lr;
      r'.(0) <- a.(i);
      r'
    in
    let cur = (normalize 1 shifted).mag in
    (* find the largest d in [0, base) with d*b <= cur *)
    let lo = ref 0 and hi = ref (base - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if cmp_mag (normalize 1 (mul_mag_small b mid)).mag cur <= 0 then
        lo := mid
      else hi := mid - 1
    done;
    q.(i) <- !lo;
    let prod = (normalize 1 (mul_mag_small b !lo)).mag in
    rem := sub_mag cur prod;
    rem := (normalize 1 !rem).mag
  done;
  (normalize 1 q, normalize 1 !rem)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else
    let q, r = divmod_mag a.mag b.mag in
    let q = if q.sign = 0 then zero else { q with sign = a.sign * b.sign } in
    let r = if r.sign = 0 then zero else { r with sign = a.sign } in
    (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc b n =
      if n = 0 then acc
      else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
      else go acc (mul b b) (n lsr 1)
    in
    go one b n
  end

let rec gcd a b = if is_zero b then abs a else gcd b (rem a b)
let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let to_int_opt =
  (* Range check against precomputed bounds, then accumulate; inside the
     bounds no intermediate step can overflow. *)
  let max_int_b = lazy (of_int Stdlib.max_int) in
  let min_int_b = lazy (of_int Stdlib.min_int) in
  fun t ->
    if compare t (Lazy.force max_int_b) > 0 then None
    else if compare t (Lazy.force min_int_b) < 0 then None
    else begin
      let n = Array.length t.mag in
      let acc = ref 0 in
      for i = n - 1 downto 0 do
        acc := (!acc * base) + (t.sign * t.mag.(i))
      done;
      Some !acc
    end

exception Overflow of t

let to_int_exn t =
  match to_int_opt t with
  | Some n -> n
  | None -> raise (Overflow t)

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let b = Buffer.create 16 in
    if t.sign < 0 then Buffer.add_char b '-';
    let n = Array.length t.mag in
    Buffer.add_string b (string_of_int t.mag.(n - 1));
    for i = n - 2 downto 0 do
      Buffer.add_string b (Printf.sprintf "%09d" t.mag.(i))
    done;
    Buffer.contents b
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign_given, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  String.iter
    (fun c ->
      if not (c >= '0' && c <= '9') && c <> '-' && c <> '+' then
        invalid_arg "Bigint.of_string: invalid character")
    s;
  let ndigits = len - start in
  let nlimbs = (ndigits + base_digits - 1) / base_digits in
  let mag = Array.make nlimbs 0 in
  (* Fill limbs from the least-significant end of the string. *)
  let pos = ref len in
  for i = 0 to nlimbs - 1 do
    let lo = Stdlib.max start (!pos - base_digits) in
    mag.(i) <- int_of_string (String.sub s lo (!pos - lo));
    pos := lo
  done;
  normalize sign_given mag

let to_float t =
  let f = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !f

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ~- ) = neg
end

let pp fmt t = Format.pp_print_string fmt (to_string t)

let () =
  Printexc.register_printer (function
    | Overflow t ->
        Some
          (Printf.sprintf "Bigint.Overflow: %s does not fit in a native int"
             (to_string t))
    | _ -> None)
