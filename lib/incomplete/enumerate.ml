module B = Arith.Bigint

let fold_valuations ~nulls ~k f acc =
  let rec go acc assigned = function
    | [] -> f acc (Valuation.of_list assigned)
    | n :: rest ->
        let acc = ref acc in
        for c = 1 to k do
          acc := go !acc ((n, c) :: assigned) rest
        done;
        !acc
  in
  if k < 0 then invalid_arg "Enumerate.fold_valuations: negative k"
  else go acc [] nulls

let all_valuations ~nulls ~k =
  List.rev (fold_valuations ~nulls ~k (fun acc v -> v :: acc) [])

let count ~nulls ~k = Arith.Combinat.power k (List.length nulls)

(* Both versions defer to the exact [count]: the Bigint is tiny (a few
   digits) and this keeps the overflow boundary in exactly one place,
   [Bigint.to_int_opt]/[to_int_exn]. *)
let space_size ~nulls ~k =
  if k < 0 then invalid_arg "Enumerate.space_size: negative k"
  else B.to_int_opt (count ~nulls ~k)

let space_size_exn ~nulls ~k =
  if k < 0 then invalid_arg "Enumerate.space_size_exn: negative k"
  else B.to_int_exn (count ~nulls ~k)

let valuation_of_rank ~nulls ~k rank =
  if k < 1 then invalid_arg "Enumerate.valuation_of_rank: k < 1"
  else if rank < 0 then invalid_arg "Enumerate.valuation_of_rank: negative rank"
  else begin
    (* Mixed-radix decoding, last null least significant, so rank order
       coincides with the visit order of [fold_valuations]. *)
    let rec go r acc = function
      | [] ->
          if r <> 0 then
            invalid_arg "Enumerate.valuation_of_rank: rank out of range"
          else acc
      | n :: rest -> go (r / k) ((n, (r mod k) + 1) :: acc) rest
    in
    Valuation.of_list (go rank [] (List.rev nulls))
  end

(* In-place mixed-radix odometer over [V^k(D)]. Seeding decodes a rank
   once; every subsequent valuation is an O(1)-amortized [step] on the
   shared digit array — the allocation per valuation that
   [valuation_of_rank] pays (list + IMap) disappears from the sweep
   hot path. Digit order matches [valuation_of_rank]: position [i]
   holds the code of the [i]-th null of [nulls], the last null being
   the least significant digit. *)
type odometer = { od_nulls : int array; od_digits : int array; od_k : int }

let odometer ~nulls ~k ~rank =
  (* V^0 of no nulls still holds the empty valuation (0^0 = 1). *)
  if k < 0 || (k = 0 && nulls <> []) then
    invalid_arg "Enumerate.odometer: k < 1"
  else if rank < 0 then invalid_arg "Enumerate.odometer: negative rank"
  else begin
    let od_nulls = Array.of_list nulls in
    let m = Array.length od_nulls in
    let od_digits = Array.make m 1 in
    let r = ref rank in
    for i = m - 1 downto 0 do
      od_digits.(i) <- (!r mod k) + 1;
      r := !r / k
    done;
    if !r <> 0 then invalid_arg "Enumerate.odometer: rank out of range";
    { od_nulls; od_digits; od_k = k }
  end

let digits od = od.od_digits

let step od =
  let d = od.od_digits in
  let i = ref (Array.length d - 1) in
  while !i >= 0 && Array.unsafe_get d !i = od.od_k do
    Array.unsafe_set d !i 1;
    decr i
  done;
  if !i >= 0 then Array.unsafe_set d !i (Array.unsafe_get d !i + 1)

let valuation od =
  Valuation.of_list
    (Array.to_list (Array.mapi (fun i n -> (n, od.od_digits.(i))) od.od_nulls))

let fold_digits_range ~nulls ~k ~lo ~hi f acc =
  if hi <= lo then acc
  else begin
    let od = odometer ~nulls ~k ~rank:lo in
    let acc = ref acc in
    for _ = lo to hi - 1 do
      acc := f !acc od.od_digits;
      step od
    done;
    !acc
  end

let fold_valuations_range ~nulls ~k ~lo ~hi f acc =
  if hi <= lo then acc
  else begin
    let od = odometer ~nulls ~k ~rank:lo in
    let acc = ref acc in
    for _ = lo to hi - 1 do
      acc := f !acc (valuation od);
      step od
    done;
    !acc
  end

let fold_bijective ~nulls ~avoid ~k f acc =
  (* [free.(c)] ⟺ code [c] is neither in [avoid] nor taken by an
     earlier null — one O(1) flag probe per candidate code instead of
     the former [List.mem] scans over both lists. *)
  let free = Array.make (k + 1) true in
  List.iter (fun c -> if c >= 1 && c <= k then free.(c) <- false) avoid;
  let rec go acc assigned = function
    | [] -> f acc (Valuation.of_list assigned)
    | n :: rest ->
        let acc = ref acc in
        for c = 1 to k do
          if free.(c) then begin
            free.(c) <- false;
            acc := go !acc ((n, c) :: assigned) rest;
            free.(c) <- true
          end
        done;
        !acc
  in
  go acc [] nulls

let count_bijective ~nulls ~avoid ~k =
  let a = List.length (List.filter (fun c -> c <= k && c >= 1) avoid) in
  Arith.Combinat.falling_factorial (k - a) (List.length nulls)

let fresh_bijective ~nulls ~avoid =
  let base = List.fold_left max 0 avoid in
  Valuation.of_list (List.mapi (fun i n -> (n, base + i + 1)) nulls)
