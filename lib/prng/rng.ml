(* The four xoshiro words s0..s3 live unboxed in one 32-byte buffer,
   at byte offsets 0, 8, 16 and 24: a record of mutable [int64] fields
   would allocate a fresh box on every update of every word. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

(* splitmix64: used only to expand a seed into the four xoshiro words,
   as recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create seed

(* Stream derivation: whiten the master seed through one splitmix64
   step, then offset the whitened state by [index] times an odd 64-bit
   constant (odd multipliers are injective mod 2^64, so distinct
   indices give distinct splitmix states) and expand through four more
   splitmix64 steps, exactly as [create] expands a raw seed.  Stream
   [index] therefore depends only on [(seed, index)], never on how many
   other streams were derived — the property the parallel sampling
   engine relies on for jobs-count-invariant reproducibility. *)
let of_stream ~seed index =
  if index < 0 then invalid_arg "Rng.of_stream: negative stream index";
  let state = ref (Int64.of_int seed) in
  let whitened = splitmix64 state in
  let state =
    ref (Int64.add whitened (Int64.mul (Int64.of_int index) 0xD1B54A32D192ED03L))
  in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let copy = Bytes.copy

let bool t = Int64.compare (bits64 t) 0L < 0

(* Non-negative integer in [0, max_int]. *)
let positive t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] that fits;
     note 1 lsl 62 would overflow the 63-bit OCaml int. *)
  let limit = max_int / bound * bound in
  let rec draw () =
    let v = positive t in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa *. 0x1p-53)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let self_test () =
  (* Reference behaviour: xoshiro256** seeded via splitmix64(0) must be
     deterministic and must not repeat within a short window. *)
  let g = create 0 in
  let a = bits64 g and b = bits64 g and c = bits64 g in
  let g' = create 0 in
  let a' = bits64 g' in
  a = a' && a <> b && b <> c && a <> c
