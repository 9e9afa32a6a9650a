(* Tests for the xoshiro256** PRNG substrate. *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "nearby seeds diverge" true !differs

let test_self_test () =
  Alcotest.(check bool) "self test" true (Rng.self_test ())

let test_int_bounds () =
  let rng = Rng.create 7 in
  for bound = 1 to 50 do
    for _ = 1 to 200 do
      let v = Rng.int rng bound in
      if v < 0 || v >= bound then
        Alcotest.failf "Rng.int %d returned %d" bound v
    done
  done

let test_int_invalid () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_covers_range () =
  let rng = Rng.create 3 in
  let bound = 8 in
  let seen = Array.make bound false in
  for _ = 1 to 2000 do
    seen.(Rng.int rng bound) <- true
  done;
  Alcotest.(check bool) "all values reachable" true (Array.for_all Fun.id seen)

let test_int_roughly_uniform () =
  let rng = Rng.create 11 in
  let bound = 10 and trials = 50_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to trials do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.1 then Alcotest.failf "bucket %d deviates by %.2f" i dev)
    counts

let test_bool_balance () =
  let rng = Rng.create 13 in
  let trues = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int trials in
  Alcotest.(check bool) "balanced" true (ratio > 0.48 && ratio < 0.52)

let test_float_bounds () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_split_independence () =
  let parent = Rng.create 23 in
  let child = Rng.split parent in
  (* child and parent streams should not coincide *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_of_stream_determinism () =
  (* (seed, index) fully determines the stream: reconstructing the
     generator replays it exactly. *)
  let a = Rng.of_stream ~seed:42 17 and b = Rng.of_stream ~seed:42 17 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_of_stream_index_sensitivity () =
  (* distinct indices from one seed yield pairwise distinct streams
     (first word already differs) *)
  let firsts =
    Array.init 21 (fun i -> Rng.bits64 (Rng.of_stream ~seed:7 i))
  in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y ->
          if i < j && Int64.equal x y then
            Alcotest.failf "streams %d and %d share their first word" i j)
        firsts)
    firsts

let test_of_stream_negative_index () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.of_stream: negative stream index") (fun () ->
      ignore (Rng.of_stream ~seed:1 (-1)))

let popcount64 x =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.(logand (shift_right_logical x i) 1L) = 1L then incr c
  done;
  !c

let test_of_stream_avalanche () =
  (* Adjacent stream indices should flip about half the 64 output bits
     on average — the splitmix64 finalizer destroys the +1 structure of
     the index. Mean Hamming distance over 100 adjacent pairs must sit
     near 32. *)
  let pairs = 100 in
  let total = ref 0 in
  for i = 0 to pairs - 1 do
    let x = Rng.bits64 (Rng.of_stream ~seed:123 i)
    and y = Rng.bits64 (Rng.of_stream ~seed:123 (i + 1)) in
    total := !total + popcount64 (Int64.logxor x y)
  done;
  let mean = float_of_int !total /. float_of_int pairs in
  if mean < 28.0 || mean > 36.0 then
    Alcotest.failf "avalanche mean %.2f outside [28, 36]" mean

let test_of_stream_equidistribution () =
  (* A derived stream must pass the same marginal checks as a root
     generator: 10-bucket frequencies within 10% and balanced bools. *)
  let rng = Rng.of_stream ~seed:2024 5 in
  let bound = 10 and trials = 50_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to trials do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.1 then Alcotest.failf "bucket %d deviates by %.2f" i dev)
    counts;
  let rng = Rng.of_stream ~seed:2024 6 in
  let trues = ref 0 in
  for _ = 1 to trials do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int trials in
  Alcotest.(check bool) "bool balance" true (ratio > 0.48 && ratio < 0.52)

let test_split_equidistribution () =
  (* A split child must also look marginally uniform. *)
  let child = Rng.split (Rng.create 77) in
  let bound = 10 and trials = 50_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to trials do
    let v = Rng.int child bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.1 then Alcotest.failf "bucket %d deviates by %.2f" i dev)
    counts

let test_copy () =
  let a = Rng.create 29 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 31 in
  for n = 0 to 20 do
    let a = Array.init n (fun i -> i) in
    Rng.shuffle rng a;
    let sorted = Array.copy a in
    Array.sort Int.compare sorted;
    Alcotest.(check (array int)) "permutation" (Array.init n Fun.id) sorted
  done

let test_shuffle_moves_elements () =
  let rng = Rng.create 37 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  Alcotest.(check bool) "not identity" true (a <> Array.init 100 (fun i -> i))

let test_choose () =
  let rng = Rng.create 41 in
  let a = [| "x"; "y"; "z" |] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Rng.choose rng a) ()
  done;
  Alcotest.(check int) "all elements chosen" 3 (Hashtbl.length seen)

let test_choose_empty () =
  let rng = Rng.create 43 in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let test_choose_list () =
  let rng = Rng.create 47 in
  let l = [ 1; 2; 3; 4 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (List.mem (Rng.choose_list rng l) l)
  done

(* The generator as it was written with a record of four boxed int64
   fields, kept as the oracle for the unboxed state: seeded the same
   way, it must produce the same stream. *)
module Boxed = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let expand state =
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let create seed = expand (ref (Int64.of_int seed))

  let of_stream ~seed index =
    let whitened = splitmix64 (ref (Int64.of_int seed)) in
    expand (ref (Int64.add whitened (Int64.mul (Int64.of_int index) 0xD1B54A32D192ED03L)))

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result
end

let prop_unboxed_matches_boxed =
  QCheck2.Test.make ~count:200 ~name:"unboxed state = boxed oracle"
    QCheck2.Gen.(tup3 int (int_bound 1_000_000) (int_range 1 300))
    (fun (seed, index, n) ->
      let same a b = List.init n (fun _ -> Rng.bits64 a) = List.init n (fun _ -> Boxed.bits64 b) in
      same (Rng.create seed) (Boxed.create seed)
      && same (Rng.of_stream ~seed:(abs seed) index) (Boxed.of_stream ~seed:(abs seed) index))

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "self test" `Quick test_self_test;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int roughly uniform" `Quick test_int_roughly_uniform;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "split equidistribution" `Quick
            test_split_equidistribution;
          Alcotest.test_case "of_stream determinism" `Quick
            test_of_stream_determinism;
          Alcotest.test_case "of_stream index sensitivity" `Quick
            test_of_stream_index_sensitivity;
          Alcotest.test_case "of_stream negative index" `Quick
            test_of_stream_negative_index;
          Alcotest.test_case "of_stream avalanche" `Quick
            test_of_stream_avalanche;
          Alcotest.test_case "of_stream equidistribution" `Quick
            test_of_stream_equidistribution;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_elements;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "choose empty" `Quick test_choose_empty;
          Alcotest.test_case "choose list" `Quick test_choose_list;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_unboxed_matches_boxed ]);
    ]
