(* Tests for the exact counter and ApproxMC, cross-checked against the
   brute-force counter. *)

let clause = Cnf.Clause.of_dimacs

(* ------------------------------------------------------------------ *)
(* Exact counter *)

let test_exact_free_vars () =
  let f = Cnf.Formula.create ~num_vars:10 [] in
  Alcotest.(check int) "2^10" 1024 (Counting.Exact_counter.count f)

let test_exact_simple () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1; 2 ] ] in
  (* (v1 ∨ v2) over 3 vars: 3/4 * 8 = 6 *)
  Alcotest.(check int) "count" 6 (Counting.Exact_counter.count f)

let test_exact_unsat () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ]; clause [ -1 ] ] in
  Alcotest.(check int) "zero" 0 (Counting.Exact_counter.count f)

let test_exact_unit_chain () =
  let chain = List.init 9 (fun i -> clause [ -(i + 1); i + 2 ]) in
  let f = Cnf.Formula.create ~num_vars:10 (clause [ 1 ] :: chain) in
  Alcotest.(check int) "unique model" 1 (Counting.Exact_counter.count f)

let test_exact_components_multiply () =
  (* (v1 ∨ v2) and (v3 ∨ v4) are disjoint: 3 * 3 = 9 *)
  let f = Cnf.Formula.create ~num_vars:4 [ clause [ 1; 2 ]; clause [ 3; 4 ] ] in
  Alcotest.(check int) "9" 9 (Counting.Exact_counter.count f)

let test_exact_with_xors () =
  (* one xor over 4 variables halves the space *)
  let f =
    Cnf.Formula.create_with_xors ~num_vars:4 []
      [ Cnf.Xor_clause.make [ 1; 2; 3; 4 ] true ]
  in
  Alcotest.(check int) "8" 8 (Counting.Exact_counter.count f)

let test_exact_restricted () =
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ 1; 2 ] ] in
  Alcotest.(check int) "v1=T" 4
    (Counting.Exact_counter.count_restricted f [ Cnf.Lit.pos 1 ]);
  Alcotest.(check int) "v1=F" 2
    (Counting.Exact_counter.count_restricted f [ Cnf.Lit.neg 1 ])

let test_exact_budget () =
  (* ten disjoint ternary clauses force at least one branching step per
     component, so a budget of 2 must be exhausted *)
  let clauses =
    List.init 10 (fun i ->
        let base = 3 * i in
        clause [ base + 1; base + 2; base + 3 ])
  in
  let f = Cnf.Formula.create ~num_vars:30 clauses in
  Alcotest.(check bool) "budget exhausts" true
    (try
       ignore (Counting.Exact_counter.count ~max_decisions:2 f);
       false
     with Failure _ -> true)

let prop_exact_matches_brute =
  QCheck2.Test.make ~count:300 ~name:"exact counter = brute count"
    Test_util.Gen.formula_spec
    (fun spec ->
      let f = Test_util.Gen.build_spec spec in
      Counting.Exact_counter.count f = Sat.Brute.count f)

(* ------------------------------------------------------------------ *)
(* Counting projections: BSAT on the sampling set, the count ApproxMC's
   cells are measured by *)

let projected_count ?(limit = 1 lsl 20) f vars =
  Sat.Bsat.count_upto ~limit (Cnf.Formula.with_sampling_set f (Array.to_list vars))

let test_projected_exact () =
  (* v3 = v1: projecting onto {1,2} gives 4, onto {2} gives 2 *)
  let f = Cnf.Formula.create ~num_vars:3 [ clause [ -1; 3 ]; clause [ 1; -3 ] ] in
  Alcotest.(check int) "onto {1,2}" 4 (projected_count f [| 1; 2 |]);
  Alcotest.(check int) "onto {2}" 2 (projected_count f [| 2 |])

let test_projected_limit () =
  let f = Cnf.Formula.create ~num_vars:12 [] in
  Alcotest.(check int) "2^8 > 100: limit must hit" 100
    (projected_count ~limit:100 f [| 1; 2; 3; 4; 5; 6; 7; 8 |])

let test_projected_sampling_set () =
  let f =
    Cnf.Formula.create ~sampling_set:[ 1; 2 ] ~num_vars:4 [ clause [ 1; 2 ] ]
  in
  Alcotest.(check int) "3 projections" 3 (Sat.Bsat.count_upto ~limit:100 f)

let prop_projected_matches_brute =
  QCheck2.Test.make ~count:150 ~name:"projected count = brute projected count"
    QCheck2.Gen.(pair Test_util.Gen.formula_spec (int_bound 100000))
    (fun (spec, pseed) ->
      let f = Test_util.Gen.build_spec spec in
      let nv = f.Cnf.Formula.num_vars in
      let rng = Rng.create pseed in
      let proj =
        List.filter (fun _ -> Rng.bool rng) (List.init nv (fun i -> i + 1))
      in
      let proj = Array.of_list (if proj = [] then [ 1 ] else proj) in
      projected_count f proj = Sat.Brute.count_projected f proj)

(* ------------------------------------------------------------------ *)
(* ApproxMC parameters *)

let test_pivot_formula () =
  (* pivot(0.8) = ⌈2 e^1.5 (1 + 1/0.8)²⌉ = ⌈45.38⌉ = 46 *)
  Alcotest.(check int) "pivot(0.8)" 46 (Counting.Approxmc.pivot_of_epsilon 0.8)

let test_iterations_formula () =
  (* t(0.2) = ⌈35 log2 15⌉ = 137 *)
  Alcotest.(check int) "t(0.2)" 137 (Counting.Approxmc.iterations_of_delta 0.2)

let test_params_invalid () =
  Alcotest.(check bool) "bad epsilon" true
    (try
       ignore (Counting.Approxmc.pivot_of_epsilon 0.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad delta" true
    (try
       ignore (Counting.Approxmc.iterations_of_delta 1.5);
       false
     with Invalid_argument _ -> true);
  (* a non-positive iteration count is a caller error, not a timeout,
     on the calling domain and on a pool alike *)
  let f = Cnf.Formula.create ~num_vars:10 [] in
  Parallel.Domain_pool.with_pool ~jobs:2 @@ fun p ->
  List.iter
    (fun (iterations, pool) ->
      let name =
        Printf.sprintf "iterations %d%s" iterations
          (if pool = None then "" else " pooled")
      in
      Alcotest.(check bool) name true
        (try
           ignore
             (Counting.Approxmc.count ~iterations ?pool ~rng:(Rng.create 1)
                ~epsilon:0.8 ~delta:0.8 f);
           false
         with Invalid_argument _ -> true))
    [ (0, None); (-2, None); (0, Some p); (-2, Some p) ]

(* ------------------------------------------------------------------ *)
(* ApproxMC behaviour *)

let approx ?iterations f =
  let rng = Rng.create 1234 in
  Counting.Approxmc.count ?iterations ~rng ~epsilon:0.8 ~delta:0.8 f

let test_approx_unsat () =
  let f = Cnf.Formula.create ~num_vars:2 [ clause [ 1 ]; clause [ -1 ] ] in
  match approx f with
  | Error Counting.Approxmc.Unsat -> ()
  | _ -> Alcotest.fail "expected Unsat"

let test_approx_exact_below_pivot () =
  let f = Cnf.Formula.create ~num_vars:5 [ clause [ 1 ] ] in
  (* 16 witnesses < pivot 46: must be exact *)
  match approx f with
  | Ok r ->
      Alcotest.(check bool) "exact" true r.Counting.Approxmc.exact;
      Alcotest.(check (float 0.01)) "16" 16.0 r.Counting.Approxmc.estimate
  | Error _ -> Alcotest.fail "unexpected error"

let test_approx_within_tolerance () =
  (* 2^10 witnesses; the (0.8, 0.8) estimate should fall within a
     factor 1.8 of 1024 with good probability; with 9 iterations and a
     fixed seed this is deterministic *)
  let f = Cnf.Formula.create ~num_vars:10 [] in
  match approx ~iterations:9 f with
  | Ok r ->
      let e = r.Counting.Approxmc.estimate in
      Alcotest.(check bool)
        (Printf.sprintf "estimate %.0f within [569, 1844]" e)
        true
        (e >= 1024.0 /. 1.8 && e <= 1024.0 *. 1.8)
  | Error _ -> Alcotest.fail "unexpected error"

let test_approx_respects_sampling_set () =
  (* v2..v5 duplicate v1: projected on {1}, count = 2 *)
  let eq a b = [ clause [ -a; b ]; clause [ a; -b ] ] in
  let f =
    Cnf.Formula.create ~sampling_set:[ 1 ] ~num_vars:5
      (List.concat_map (fun v -> eq 1 v) [ 2; 3; 4; 5 ])
  in
  match approx f with
  | Ok r -> Alcotest.(check (float 0.01)) "2 cells" 2.0 r.Counting.Approxmc.estimate
  | Error _ -> Alcotest.fail "unexpected error"

let prop_approx_envelope =
  (* Statistical envelope check: the estimate should usually fall
     within the tolerance; we allow a conservative error margin since
     delta = 0.8 only promises 20%... but the median construction does
     much better in practice. We tolerate up to 15% envelope misses. *)
  QCheck2.Test.make ~count:40 ~name:"approxmc envelope (statistical)"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 7 11))
    (fun (seed, nv) ->
      let rng = Rng.create seed in
      let f =
        Test_util.Gen.random_cnf rng ~num_vars:nv ~num_clauses:(nv / 2) ~width:3
      in
      let truth = Sat.Brute.count f in
      match
        Counting.Approxmc.count ~iterations:9 ~rng ~epsilon:0.8 ~delta:0.8 f
      with
      | Error Counting.Approxmc.Unsat -> truth = 0
      | Error Counting.Approxmc.Timed_out -> false
      | Ok r ->
          let e = r.Counting.Approxmc.estimate in
          let t = float_of_int truth in
          (* generous envelope: factor 4 covers the randomness of a
             9-iteration median at these sizes *)
          e >= t /. 4.0 && e <= t *. 4.0)

(* ApproxMC replayed by brute force: the same hash draws from the same
   streams, each cell counted over the formula's projected solutions.
   The count decides most cells of these formulas (over pivot + 1 = 47
   projected solutions) from its cache of found projections, so the
   property pins that the cache changes no estimate. *)
let replay_count ~iterations ~rng f =
  let pivot = Counting.Approxmc.pivot_of_epsilon 0.8 in
  let sampling = Cnf.Formula.sampling_vars f in
  let projections =
    List.sort_uniq Cnf.Model.compare
      (List.map (fun m -> Cnf.Model.restrict m sampling) (Sat.Brute.solutions f))
  in
  let core rng =
    let rec try_size i =
      if i > Array.length sampling then None
      else begin
        let h = Hashing.Hxor.sample rng ~vars:sampling ~m:i in
        let c =
          List.length
            (List.filter (fun p -> Hashing.Hxor.in_cell h (Cnf.Model.value p)) projections)
        in
        if c >= 1 && c <= pivot then Some (float_of_int c *. (2.0 ** float_of_int i))
        else try_size (i + 1)
      end
    in
    try_size 1
  in
  let master = Int64.to_int (Rng.bits64 rng) land max_int in
  let estimates = ref [] and failures = ref 0 in
  for i = 0 to iterations - 1 do
    match core (Rng.of_stream ~seed:master i) with
    | Some e -> estimates := e :: !estimates
    | None -> incr failures
  done;
  (List.length projections, !estimates, !failures)

let median l =
  let sorted = List.sort Float.compare l in
  List.nth sorted (List.length sorted / 2)

let prop_approx_replays_hash_draws =
  QCheck2.Test.make ~count:30 ~name:"approxmc = brute replay of hash draws"
    QCheck2.Gen.(tup3 (int_bound 100_000) (int_range 9 12) bool)
    (fun (seed, nv, project) ->
      let rng = Rng.create seed in
      let f = Test_util.Gen.random_cnf rng ~num_vars:nv ~num_clauses:(nv / 3) ~width:3 in
      let f =
        if project then
          Cnf.Formula.with_sampling_set f
            (List.filter (fun v -> v <= 7 || Rng.bool rng) (List.init nv (fun i -> i + 1)))
        else f
      in
      let iterations = 9 in
      let run_seed = seed + 1 in
      let total, estimates, failures =
        replay_count ~iterations ~rng:(Rng.create run_seed) f
      in
      QCheck2.assume (total > 47);
      (* on the calling domain and across a 2-worker pool *)
      let agrees pool =
        match
          Counting.Approxmc.count ~iterations ?pool ~rng:(Rng.create run_seed)
            ~epsilon:0.8 ~delta:0.8 f
        with
        | Ok r ->
            (not r.Counting.Approxmc.exact)
            && estimates <> []
            && r.Counting.Approxmc.estimate = median estimates
            && r.Counting.Approxmc.core_iterations = List.length estimates
            && r.Counting.Approxmc.failed_iterations = failures
        | Error Counting.Approxmc.Timed_out -> estimates = []
        | Error Counting.Approxmc.Unsat -> false
      in
      agrees None
      && Parallel.Domain_pool.with_pool ~jobs:2 (fun p -> agrees (Some p)))

(* ------------------------------------------------------------------ *)
(* Known: the bit-sliced cache of found projections, against brute
   force over its members *)

(* A formula over [extra + width] variables whose sampling set is
   [width] of them, scattered, so cache positions differ from variable
   names. *)
let sampling_formula rng ~width ~extra =
  let n = width + extra in
  let vars = Array.init n (fun i -> i + 1) in
  Rng.shuffle rng vars;
  let s = List.sort compare (Array.to_list (Array.sub vars 0 width)) in
  Cnf.Formula.create ~sampling_set:s ~num_vars:n []

(* A projection onto S as a model: [bits.(j)] is the value of S's
   [j]-th variable, other variables are random. *)
let model_of rng f bits =
  let sampling = Cnf.Formula.sampling_vars f in
  let tab = Array.make (f.Cnf.Formula.num_vars + 1) false in
  Array.iteri (fun v _ -> tab.(v) <- Rng.bool rng) tab;
  Array.iteri (fun j v -> tab.(v) <- bits.(j)) sampling;
  Cnf.Model.make f.Cnf.Formula.num_vars (fun v -> tab.(v))

let random_rows rng f m =
  let sampling = Cnf.Formula.sampling_vars f in
  List.init m (fun _ ->
      Cnf.Xor_clause.make
        (List.filter (fun _ -> Rng.bool rng) (Array.to_list sampling))
        (Rng.bool rng))

let in_rows f xors bits =
  let sampling = Cnf.Formula.sampling_vars f in
  let value v =
    let rec find j = if sampling.(j) = v then bits.(j) else find (j + 1) in
    find 0
  in
  List.for_all (Cnf.Xor_clause.eval value) xors

(* [n] distinct random projections onto [width] variables, or all
   2^width of them when there are fewer, in random order. *)
let distinct_projections rng ~width n =
  let n = if width < 20 then min n (1 lsl width) else n in
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else begin
      let b = Array.init width (fun _ -> Rng.bool rng) in
      if Hashtbl.mem seen b then go acc k
      else begin
        Hashtbl.add seen b ();
        go (b :: acc) (k + 1)
      end
    end
  in
  go [] 0

(* member counts around the word boundaries, and |S| = 1 *)
let known_gen =
  QCheck2.Gen.(
    tup4 (int_bound 100_000)
      (oneof [ pure 1; int_range 2 8; int_range 10 70; int_range 120 130 ])
      (oneof [ oneofl [ 0; 1; 62; 63; 64; 126; 127; 128 ]; int_range 0 300 ])
      (int_range 0 6))

let prop_known_in_cell =
  QCheck2.Test.make ~count:300 ~name:"known in_cell = brute filter of its members"
    known_gen (fun (seed, width, n, m) ->
      let rng = Rng.create seed in
      let f = sampling_formula rng ~width ~extra:(Rng.int rng 4) in
      let members = distinct_projections rng ~width n in
      let n = Array.length members in
      let k = Counting.Known.create f in
      Array.iter (fun b -> Counting.Known.add k (model_of rng f b)) members;
      let xors = random_rows rng f m in
      let inside =
        List.filter (fun r -> in_rows f xors members.(r)) (List.init n Fun.id)
      in
      let limit = 1 + Rng.int rng (n + 2) in
      let found, count = Counting.Known.in_cell k ~limit xors in
      let all, all_count = Counting.Known.in_cell k ~limit:max_int xors in
      Counting.Known.size k = n
      && count = min limit (List.length inside)
      && List.length found = count
      && List.sort compare found = List.filteri (fun i _ -> i < count) inside
      && all_count = List.length inside
      && List.sort compare all = inside
      && List.for_all (fun r -> Counting.Known.values k r = members.(r)) inside)

(* Known members plus a solver's enumeration of one cell, which may
   re-find members: [add_new] against the cell's member list keeps the
   members distinct and adds exactly the new projections. *)
let prop_known_add_new_distinct =
  QCheck2.Test.make ~count:200 ~name:"known add_new keeps members distinct"
    QCheck2.Gen.(tup3 (int_bound 100_000) (int_range 1 70) (int_range 0 4))
    (fun (seed, width, m) ->
      let rng = Rng.create seed in
      let f = sampling_formula rng ~width ~extra:2 in
      let k = Counting.Known.create f in
      let pool = Array.to_list (distinct_projections rng ~width 250) in
      let start = List.filter (fun _ -> Rng.bool rng) pool in
      List.iter (fun b -> Counting.Known.add k (model_of rng f b)) start;
      let xors = random_rows rng f m in
      let among, _ = Counting.Known.in_cell k ~limit:max_int xors in
      let found = List.filter (fun b -> in_rows f xors b && Rng.bool rng) pool in
      Counting.Known.add_new k ~among (List.map (model_of rng f) found);
      let held = List.init (Counting.Known.size k) (Counting.Known.values k) in
      List.length (List.sort_uniq compare held) = List.length held
      && List.sort compare held
         = List.sort_uniq compare (start @ found))

(* A sampling set wide enough that the bound is a few thousand
   members. *)
let test_known_bound () =
  let rng = Rng.create 5 in
  let width = 4096 in
  let f = sampling_formula rng ~width ~extra:0 in
  let k = Counting.Known.create f in
  let cap = Counting.Known.capacity k in
  Alcotest.(check bool) "width x capacity within 2^24 bits" true
    (cap > 0 && width * cap <= 1 lsl 24);
  let fill n =
    for _ = 1 to n do
      Counting.Known.add k (model_of rng f (Array.init width (fun _ -> Rng.bool rng)))
    done
  in
  fill cap;
  Alcotest.(check int) "holds the capacity" cap (Counting.Known.size k);
  let cells = List.init 20 (fun i -> random_rows rng f (i mod 8)) in
  let decide () = List.map (Counting.Known.in_cell k ~limit:63) cells in
  let before = decide () in
  let values = List.init 5 (Counting.Known.values k) in
  fill 100;
  Counting.Known.add_new k ~among:[]
    [ model_of rng f (Array.init width (fun _ -> Rng.bool rng)) ];
  Alcotest.(check int) "stops growing at the bound" cap (Counting.Known.size k);
  Alcotest.(check bool) "no decision changes" true (decide () = before);
  Alcotest.(check bool) "members unchanged" true
    (List.init 5 (Counting.Known.values k) = values)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_exact_matches_brute;
      prop_projected_matches_brute;
      prop_approx_envelope;
      prop_approx_replays_hash_draws;
      prop_known_in_cell;
      prop_known_add_new_distinct;
    ]

let () =
  Alcotest.run "counting"
    [
      ( "exact",
        [
          Alcotest.test_case "free vars" `Quick test_exact_free_vars;
          Alcotest.test_case "simple" `Quick test_exact_simple;
          Alcotest.test_case "unsat" `Quick test_exact_unsat;
          Alcotest.test_case "unit chain" `Quick test_exact_unit_chain;
          Alcotest.test_case "components multiply" `Quick test_exact_components_multiply;
          Alcotest.test_case "with xors" `Quick test_exact_with_xors;
          Alcotest.test_case "restricted" `Quick test_exact_restricted;
          Alcotest.test_case "budget" `Quick test_exact_budget;
        ] );
      ( "projected",
        [
          Alcotest.test_case "exact" `Quick test_projected_exact;
          Alcotest.test_case "limit" `Quick test_projected_limit;
          Alcotest.test_case "sampling set" `Quick test_projected_sampling_set;
        ] );
      ( "approxmc",
        [
          Alcotest.test_case "pivot formula" `Quick test_pivot_formula;
          Alcotest.test_case "iterations formula" `Quick test_iterations_formula;
          Alcotest.test_case "invalid params" `Quick test_params_invalid;
          Alcotest.test_case "unsat" `Quick test_approx_unsat;
          Alcotest.test_case "exact below pivot" `Quick test_approx_exact_below_pivot;
          Alcotest.test_case "within tolerance" `Quick test_approx_within_tolerance;
          Alcotest.test_case "sampling set" `Quick test_approx_respects_sampling_set;
        ] );
      ("known", [ Alcotest.test_case "bound" `Quick test_known_bound ]);
      ("properties", qcheck_cases);
    ]
