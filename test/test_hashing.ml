(* Tests for the Hxor(n, m, 3) hash family. *)

let vars n = Array.init n (fun i -> i + 1)

let test_dimensions () =
  let rng = Rng.create 1 in
  let h = Hashing.Hxor.sample rng ~vars:(vars 10) ~m:4 in
  Alcotest.(check int) "m" 4 (Hashing.Hxor.m h);
  Alcotest.(check int) "alpha length" 4 (Array.length (Hashing.Hxor.alpha h));
  Alcotest.(check int) "constraint count" 4 (List.length (Hashing.Hxor.constraints h))

let test_m_zero () =
  let rng = Rng.create 2 in
  let h = Hashing.Hxor.sample rng ~vars:(vars 5) ~m:0 in
  Alcotest.(check int) "no rows" 0 (Hashing.Hxor.m h);
  Alcotest.(check bool) "everything in cell" true
    (Hashing.Hxor.in_cell h (fun _ -> true))

let test_invalid_args () =
  let rng = Rng.create 3 in
  Alcotest.(check bool) "negative m" true
    (try
       ignore (Hashing.Hxor.sample rng ~vars:(vars 3) ~m:(-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty vars" true
    (try
       ignore (Hashing.Hxor.sample rng ~vars:[||] ~m:1);
       false
     with Invalid_argument _ -> true)

(* The constraint encoding h(y) = α must agree with direct application. *)
let test_constraints_match_apply () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 8 in
    let m = Rng.int rng 5 in
    let h = Hashing.Hxor.sample rng ~vars:(vars n) ~m in
    let cs = Hashing.Hxor.constraints h in
    for mask = 0 to (1 lsl n) - 1 do
      let value v = mask land (1 lsl (v - 1)) <> 0 in
      let by_constraints = List.for_all (Cnf.Xor_clause.eval value) cs in
      Alcotest.(check bool) "agree" (Hashing.Hxor.in_cell h value) by_constraints
    done
  done

(* Cell sizes: a random hash with m bits splits {0,1}^n into cells of
   expected size 2^(n-m); check the average over many draws. *)
let test_expected_cell_size () =
  let rng = Rng.create 5 in
  let n = 8 and m = 3 in
  let draws = 200 in
  let total_in_cell = ref 0 in
  for _ = 1 to draws do
    let h = Hashing.Hxor.sample rng ~vars:(vars n) ~m in
    for mask = 0 to (1 lsl n) - 1 do
      let value v = mask land (1 lsl (v - 1)) <> 0 in
      if Hashing.Hxor.in_cell h value then incr total_in_cell
    done
  done;
  let avg = float_of_int !total_in_cell /. float_of_int draws in
  let expected = 2.0 ** float_of_int (n - m) in
  Alcotest.(check bool)
    (Printf.sprintf "avg cell size %.1f near %.1f" avg expected)
    true
    (Float.abs (avg -. expected) /. expected < 0.15)

(* Pairwise independence: for fixed distinct y1, y2 the probability of
   h(y1) = h(y2) (collision in one output bit) is 1/2. *)
let test_pairwise_collision_rate () =
  let rng = Rng.create 6 in
  let n = 6 in
  let y1 v = v mod 2 = 0 in
  let y2 v = v mod 3 = 0 in
  let draws = 4000 in
  let collisions = ref 0 in
  for _ = 1 to draws do
    let h = Hashing.Hxor.sample rng ~vars:(vars n) ~m:1 in
    let h1 = Hashing.Hxor.apply h y1 and h2 = Hashing.Hxor.apply h y2 in
    if h1.(0) = h2.(0) then incr collisions
  done;
  let rate = float_of_int !collisions /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "collision rate %.3f near 0.5" rate)
    true
    (rate > 0.46 && rate < 0.54)

(* 3-wise independence on a single output bit: for three distinct
   points, all 8 sign patterns of (h(y1), h(y2), h(y3)) are equally
   likely. *)
let test_three_wise_balance () =
  let rng = Rng.create 7 in
  let n = 6 in
  let points = [| (fun v -> v = 1); (fun v -> v = 2); (fun v -> v >= 3) |] in
  let counts = Array.make 8 0 in
  let draws = 8000 in
  for _ = 1 to draws do
    let h = Hashing.Hxor.sample rng ~vars:(vars n) ~m:1 in
    let idx =
      Array.fold_left
        (fun acc y -> (acc lsl 1) lor (if (Hashing.Hxor.apply h y).(0) then 1 else 0))
        0 points
    in
    counts.(idx) <- counts.(idx) + 1
  done;
  let expected = float_of_int draws /. 8.0 in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.15 then
        Alcotest.failf "pattern %d has count %d (expected %.0f)" i c expected)
    counts

let test_average_length_dense () =
  let rng = Rng.create 8 in
  let n = 40 in
  let lens =
    List.init 100 (fun _ ->
        Hashing.Hxor.average_xor_length
          (Hashing.Hxor.sample rng ~vars:(vars n) ~m:6))
  in
  let avg = List.fold_left ( +. ) 0.0 lens /. 100.0 in
  (* dense rows include each variable with probability 1/2 *)
  Alcotest.(check bool)
    (Printf.sprintf "avg %.1f near %d" avg (n / 2))
    true
    (Float.abs (avg -. float_of_int (n / 2)) < 2.0)

let test_total_length_consistent () =
  let rng = Rng.create 10 in
  let h = Hashing.Hxor.sample rng ~vars:(vars 12) ~m:5 in
  let total = Hashing.Hxor.total_xor_length h in
  let avg = Hashing.Hxor.average_xor_length h in
  Alcotest.(check bool) "total = avg * m" true
    (Float.abs (float_of_int total -. (avg *. 5.0)) < 1e-9)

(* A formula restricted to a random cell has, in expectation, its
   witness count divided by 2^m — the partitioning property UniGen
   relies on. *)
let test_partitioning_shrinks_solution_set () =
  let rng = Rng.create 11 in
  let n = 8 in
  let f = Cnf.Formula.create ~num_vars:n [] in
  (* 256 witnesses; a 3-bit hash should leave ~32 *)
  let sizes =
    List.init 60 (fun _ ->
        let h = Hashing.Hxor.sample rng ~vars:(vars n) ~m:3 in
        let g = Cnf.Formula.add_xors f (Hashing.Hxor.constraints h) in
        Sat.Brute.count g)
  in
  let avg =
    float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int (List.length sizes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "avg cell %.1f near 32" avg)
    true
    (avg > 27.0 && avg < 37.0)

(* [Hxor.sample] as it was written, building each row through a list,
   kept as the oracle for the one-pass builder: the same generator
   state must give the same rows, offsets and target cell, and leave
   the generator in the same state. *)
type drawn = { rows : int array array; offsets : bool array; alpha : bool array }

let sample_by_lists rng ~vars ~m =
  let row () =
    Array.to_list vars |> List.filter (fun _ -> Rng.bool rng) |> Array.of_list
  in
  (* a record literal, as the builder was written: the streams depend
     on the order ocamlopt evaluates its fields in *)
  {
    rows = Array.init m (fun _ -> row ());
    offsets = Array.init m (fun _ -> Rng.bool rng);
    alpha = Array.init m (fun _ -> Rng.bool rng);
  }

let prop_sample_matches_list_builder =
  QCheck2.Test.make ~count:300 ~name:"sample = list-based builder"
    QCheck2.Gen.(tup3 (int_bound 1_000_000) (int_range 1 140) (int_range 0 12))
    (fun (seed, n, m) ->
      let vars = Array.init n (fun i -> 2 * i + 1) in
      let a = Rng.create seed and b = Rng.create seed in
      let h = Hashing.Hxor.sample a ~vars ~m in
      let { rows; offsets; alpha } = sample_by_lists b ~vars ~m in
      Hashing.Hxor.constraints h
      = List.init m (fun i ->
            Cnf.Xor_clause.make (Array.to_list rows.(i)) (alpha.(i) <> offsets.(i)))
      && Hashing.Hxor.alpha h = alpha
      && Rng.bits64 a = Rng.bits64 b)

let () =
  Alcotest.run "hashing"
    [
      ( "hxor",
        [
          Alcotest.test_case "dimensions" `Quick test_dimensions;
          Alcotest.test_case "m zero" `Quick test_m_zero;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "constraints match apply" `Quick test_constraints_match_apply;
          Alcotest.test_case "expected cell size" `Quick test_expected_cell_size;
          Alcotest.test_case "pairwise collisions" `Quick test_pairwise_collision_rate;
          Alcotest.test_case "3-wise balance" `Quick test_three_wise_balance;
          Alcotest.test_case "average length dense" `Quick test_average_length_dense;
          Alcotest.test_case "total length" `Quick test_total_length_consistent;
          Alcotest.test_case "partitioning" `Quick test_partitioning_shrinks_solution_set;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_sample_matches_list_builder ]);
    ]
