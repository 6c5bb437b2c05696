(* splitmix64 (Steele, Lea & Flood, OOPSLA 2014) — the same finalizer
   Java's SplittableRandom uses. Chosen over Stdlib.Random because the
   output must be identical across compiler versions, and over a
   heavier generator because each sample needs only a handful of
   draws from its own stream. *)

(* The state is the 8 bytes of one int64, read and written in place:
   a mutable int64 record field would box every new state, so each
   draw would allocate. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let of_seed seed = of_state (mix64 (Int64.of_int seed))

let stream ~seed ~index =
  (* Hash the pair, not just the sum: mixing the seed first keeps
     nearby (seed, index) pairs from colliding into nearby states. *)
  of_state
    (mix64
       (Int64.add
          (mix64 (Int64.of_int seed))
          (Int64.mul golden (Int64.of_int index))))

(* Top 62 bits of the next splitmix64 output: the widest draw that
   fits a nonnegative OCaml int. *)
let next62 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 state;
  Int64.to_int (Int64.shift_right_logical (mix64 state) 2)

(* Rejection sampling: accept u iff its block [u - u mod bound,
   ... + bound) lies inside [0, 2^62), which makes every residue
   exactly equally likely. max_int - bound + 1 = 2^62 - bound. *)
let rec reject t bound =
  let u = next62 t in
  let r = u mod bound in
  if u - r <= max_int - bound + 1 then r else reject t bound

let uniform t bound =
  if bound < 1 then invalid_arg "Srng.uniform: bound must be positive";
  if bound = 1 then 0 else reject t bound
