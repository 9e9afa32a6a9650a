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

(* The clause excluding the projection [bits] onto S: for each
   variable of S, the literal [bits] makes false. *)
let blocking_of f bits =
  Array.mapi (fun j v -> Cnf.Lit.make v (not bits.(j))) (Cnf.Formula.sampling_vars f)

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

(* [m] rows over S: random ones, rows that are the sum of two earlier
   rows (dependent, or contradictory when their rhs differs from the
   sum's), and copies of an earlier row with its rhs flipped. *)
let mixed_rows rng f m =
  let rows = Array.make m (Cnf.Xor_clause.make [] false) in
  for i = 0 to m - 1 do
    rows.(i) <-
      (match if i = 0 then 0 else Rng.int rng 4 with
      | 1 ->
          let a = rows.(Rng.int rng i) and b = rows.(Rng.int rng i) in
          Cnf.Xor_clause.make
            (Array.to_list a.Cnf.Xor_clause.vars @ Array.to_list b.Cnf.Xor_clause.vars)
            (if Rng.int rng 4 = 0 then Rng.bool rng
             else a.Cnf.Xor_clause.rhs <> b.Cnf.Xor_clause.rhs)
      | 2 when Rng.int rng 4 = 0 ->
          let a = rows.(Rng.int rng i) in
          Cnf.Xor_clause.make (Array.to_list a.Cnf.Xor_clause.vars) (not a.Cnf.Xor_clause.rhs)
      | _ -> List.hd (random_rows rng f 1))
  done;
  Array.to_list rows

(* Sparse caches: member counts around the word boundaries, |S| = 1
   and S wider than a projection's int. Dense ones: |S| 2-12 with up
   to every point of {0,1}^S a member, and up to |S| + 2 rows. *)
let known_gen =
  QCheck2.Gen.(
    int_bound 100_000 >>= fun seed ->
    oneof
      [
        tup3 (oneof [ pure 1; int_range 2 8; int_range 10 70; int_range 120 130 ])
          (oneof [ oneofl [ 0; 1; 62; 63; 64; 126; 127; 128 ]; int_range 0 300 ])
          (int_range 0 6);
        ( int_range 2 12 >>= fun width ->
          let all = 1 lsl width in
          tup3 (pure width)
            (oneof [ int_range 0 all; int_range (all * 3 / 4) all; pure all ])
            (int_range 0 (width + 2)) );
      ]
    >|= fun (width, n, m) -> (seed, width, n, m))

(* The members in the cell of [xors], lowest first, by brute force:
   as ints (bit j the value of S's [j]-th variable) where S
   fits one, else row by row. *)
let brute_cell f members xors =
  let sampling = Cnf.Formula.sampling_vars f in
  let n = Array.length members in
  if Array.length sampling >= Sys.int_size then
    List.filter (fun r -> in_rows f xors members.(r)) (List.init n Fun.id)
  else begin
    let pos = Hashtbl.create 16 in
    Array.iteri (fun j v -> Hashtbl.replace pos v j) sampling;
    let key b = Array.fold_right (fun x k -> (k lsl 1) lor Bool.to_int x) b 0 in
    let rows =
      List.map
        (fun (x : Cnf.Xor_clause.t) ->
          (Array.fold_left (fun a v -> a lxor (1 lsl Hashtbl.find pos v)) 0 x.vars, x.rhs))
        xors
    in
    let parity x =
      let rec go x p = if x = 0 then p else go (x land (x - 1)) (not p) in
      go x false
    in
    List.filter
      (fun r ->
        let k = key members.(r) in
        List.for_all (fun (mask, rhs) -> parity (k land mask) = rhs) rows)
      (List.init n Fun.id)
  end

(* [in_cell] of [xors] at [limit] and at [max_int] against the brute
   force: the [limit] lowest members of the cell, highest first. *)
let cell_matches k f members xors limit =
  let inside = brute_cell f members xors in
  let found, count = Counting.Known.in_cell k ~limit xors in
  let all, all_count = Counting.Known.in_cell k ~limit:max_int xors in
  count = min limit (List.length inside)
  && found = List.rev (List.filteri (fun i _ -> i < count) inside)
  && all_count = List.length inside
  && all = List.rev inside

(* One case of the property: the case's cell, then, on a cache of at
   least 504 members, a lookup at every hash size 0..|S| + 2 and 48
   more at |S| - 3..|S| + 2: an index is built only once lookups that
   would have walked have forgone what building it costs, a few dozen
   lookups of small cells. Limits are random, often past the count. *)
let known_in_cell_case (seed, width, n, m) =
  let rng = Rng.create seed in
  let f = sampling_formula rng ~width ~extra:(Rng.int rng 4) in
  let members = distinct_projections rng ~width n in
  let n = Array.length members in
  let k = Counting.Known.create f in
  Array.iter (fun b -> Counting.Known.add k (model_of rng f b)) members;
  let check m = cell_matches k f members (mixed_rows rng f m) (1 + Rng.int rng (n + 2)) in
  Counting.Known.size k = n
  && check m
  && (n < 504
     || List.for_all check (List.init (width + 3) Fun.id)
        && List.for_all check (List.init 48 (fun i -> max 0 (width - 3) + (i mod 6))))
  && List.for_all
       (fun r -> Counting.Known.blocking_clause k r = blocking_of f members.(r))
       (List.init n Fun.id)

let prop_known_in_cell =
  QCheck2.Test.make ~count:300 ~name:"known in_cell = brute filter of its members"
    known_gen known_in_cell_case

(* Runs [f] with metrics on; the lookups that scanned, and the points
   that walks visited. *)
let lookups f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.disable (fun () ->
      f ();
      let counter name =
        Option.value ~default:0
          (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
      in
      (counter "known.scan_lookups", counter "known.walk_points"))

(* The property's generator makes caches that scan and caches that
   walk through their index. *)
let test_known_both_paths () =
  let rand = Random.State.make [| 36 |] in
  let scans, points =
    lookups (fun () ->
        List.iter
          (fun case ->
            if not (known_in_cell_case case) then Alcotest.fail "in_cell differs from brute force")
          (QCheck2.Gen.generate ~rand ~n:300 known_gen))
  in
  Alcotest.(check bool) "some lookups scanned" true (scans > 0);
  Alcotest.(check bool) "some lookups walked" true (points > 0)

(* [count] lookups in a cache over [f] that holds [members], at hash
   sizes [lo]..|S| + 2, each equal to the brute force with no limit
   and at limit 1; the lookups by path. *)
let check_lookups rng f k members ~lo ~count =
  let width = Array.length (Cnf.Formula.sampling_vars f) in
  lookups (fun () ->
      for i = 0 to count - 1 do
        let m = lo + (i mod (width + 3 - lo)) in
        let xors = random_rows rng f m in
        let inside = brute_cell f members xors in
        let found, count = Counting.Known.in_cell k ~limit:max_int xors in
        Alcotest.(check int) (Printf.sprintf "count at m = %d" m) (List.length inside) count;
        Alcotest.(check (list int)) (Printf.sprintf "members at m = %d" m) (List.rev inside) found;
        let lowest, c = Counting.Known.in_cell k ~limit:1 xors in
        Alcotest.(check (list int)) (Printf.sprintf "lowest at m = %d" m)
          (List.filteri (fun i _ -> i < c) inside) lowest
      done)

(* The index's budget holds 98 304 members at |S| = 17: a cache of
   that many walks, and one more member past it makes it scan. *)
let test_known_past_index_budget () =
  let width = 17 and n = 110_000 and indexed = 98_304 in
  let rng = Rng.create 17 in
  let points = Array.init (1 lsl width) Fun.id in
  Rng.shuffle rng points;
  let f = sampling_formula rng ~width ~extra:0 in
  let members =
    Array.init n (fun i -> Array.init width (fun j -> (points.(i) lsr j) land 1 = 1))
  in
  let k = Counting.Known.create f in
  let add = Array.iter (fun b -> Counting.Known.add k (model_of rng f b)) in
  add (Array.sub members 0 indexed);
  let _, walked = check_lookups rng f k (Array.sub members 0 indexed) ~lo:12 ~count:40 in
  Alcotest.(check bool) "some lookups walked" true (walked > 0);
  add (Array.sub members indexed (n - indexed));
  let _, walked = check_lookups rng f k members ~lo:12 ~count:40 in
  Alcotest.(check int) "no lookup walked" 0 walked

(* The index ends at the bitmap's width, |S| = 20 on a 64-bit host:
   past it, and past an int, the scan serves every lookup. *)
let test_known_no_index () =
  let points width =
    let rng = Rng.create width in
    let f = sampling_formula rng ~width ~extra:3 in
    let members = distinct_projections rng ~width 3000 in
    let k = Counting.Known.create f in
    Array.iter (fun b -> Counting.Known.add k (model_of rng f b)) members;
    snd (check_lookups rng f k members ~lo:(width - 6) ~count:60)
  in
  Alcotest.(check bool) "some lookups walked at |S| = 20" true (points 20 > 0);
  List.iter
    (fun width ->
      Alcotest.(check int) (Printf.sprintf "points walked at |S| = %d" width) 0 (points width))
    [ 21; 30; Sys.int_size + 1 ]

(* A random formula whose sampling set S = 1..width is an independent
   support: its clauses range over S, and each extra variable is
   defined from earlier ones (and, or, xor), so every projection onto
   S extends to exactly one witness. *)
let independent_formula rng ~width ~extra =
  let on_s =
    List.init (Rng.int rng (width + 1)) (fun _ ->
        Cnf.Clause.to_dimacs
          (Test_util.Gen.random_clause rng ~num_vars:width ~width:3))
  in
  let defs =
    List.concat
      (List.init extra (fun e ->
           let x = width + e + 1 in
           let lit () = (1 + Rng.int rng (x - 1)) * if Rng.bool rng then 1 else -1 in
           let a = lit () and b = lit () in
           match Rng.int rng 3 with
           | 0 -> [ [ -x; a ]; [ -x; b ]; [ x; -a; -b ] ] (* x = a and b *)
           | 1 -> [ [ x; -a ]; [ x; -b ]; [ -x; a; b ] ] (* x = a or b *)
           | _ -> [ [ -x; a; b ]; [ -x; -a; -b ]; [ x; -a; b ]; [ x; a; -b ] ]))
  in
  Cnf.Formula.create
    ~sampling_set:(List.init width (fun i -> i + 1))
    ~num_vars:(width + extra)
    (List.map Cnf.Clause.of_dimacs (on_s @ defs))

(* The production draw step's cell equals a fresh enumeration's: same
   count and exhausted flag, and the same full models in canonical
   order when the cell is exhausted (every exhausted cell is accepted
   here). A cell cut from the cache makes no solver call, and an
   exhausted cell adds exactly the members the cache lacked. *)
let draw_matches_fresh (w : Counting.Warm.t) f xors limit =
  let k = w.Counting.Warm.known in
  let _, n = Counting.Known.in_cell k ~limit xors in
  let fresh = Sat.Bsat.enumerate ~limit (Cnf.Formula.add_xors f xors) in
  let size = Counting.Known.size k in
  let c = Counting.Warm.draw_cell ~accept:(fun _ -> true) ~limit w xors in
  c.Counting.Warm.exhausted = fresh.Sat.Bsat.exhausted
  && c.Counting.Warm.count = List.length fresh.Sat.Bsat.models
  && (n < limit || Option.is_none c.Counting.Warm.solved)
  &&
  match c.Counting.Warm.witnesses with
  | None -> not c.Counting.Warm.exhausted
  | Some cell ->
      c.Counting.Warm.exhausted
      && List.equal Cnf.Model.equal (Array.to_list cell) fresh.Sat.Bsat.models
      && (Counting.Known.size k - size = c.Counting.Warm.count - n
         || Counting.Known.size k = Counting.Known.capacity k)

let prop_known_completes_fresh_cell =
  QCheck2.Test.make ~count:150 ~name:"known members + enumerate ~known = fresh cell"
    QCheck2.Gen.(
      tup4 (int_bound 100_000) (int_range 1 9)
        (oneof [ int_range 0 4; int_range 55 70; int_range 118 135 ])
        (int_range 0 4))
    (fun (seed, width, extra, m) ->
      let rng = Rng.create seed in
      let f = independent_formula rng ~width ~extra in
      let k = Counting.Known.create f in
      List.iter
        (fun w -> if Rng.bool rng then Counting.Known.add k w)
        (Sat.Bsat.enumerate ~limit:max_int f).Sat.Bsat.models;
      let w = { Counting.Warm.session = Sat.Bsat.Session.create f; known = k } in
      draw_matches_fresh w f (random_rows rng f m) (1 + Rng.int rng 24))

(* A formula so wide that the cache keeps the witnesses of only its
   first members: S = 1..11 is free and every other variable copies
   one of S, so each of the 2^11 projections has one witness, and
   2^11 witnesses of 17 000 variables overrun the witnesses' bound.
   Draws block the members with a witness, re-find the others, and
   still return the cell a fresh enumeration does. *)
let test_known_past_witness_budget () =
  let rng = Rng.create 11 in
  let width = 11 and num_vars = 17_000 in
  let source v = if v <= width then v else 1 + ((v - width - 1) mod width) in
  let f =
    Cnf.Formula.create
      ~sampling_set:(List.init width (fun i -> i + 1))
      ~num_vars
      (List.concat
         (List.init (num_vars - width) (fun e ->
              let x = width + e + 1 in
              [ Cnf.Clause.of_dimacs [ -x; source x ]; Cnf.Clause.of_dimacs [ x; -source x ] ])))
  in
  let k = Counting.Known.create f in
  let n = 1 lsl width in
  for p = 0 to n - 1 do
    Counting.Known.add k (Cnf.Model.make num_vars (fun v -> (p lsr (source v - 1)) land 1 = 1))
  done;
  let kept = List.length (List.filter (Counting.Known.has_model k) (List.init n Fun.id)) in
  Alcotest.(check bool) "some members keep no witness" true
    (kept > 0 && kept < n && Counting.Known.size k = n);
  (* one warm worker serves every cell, as in a draw *)
  let w = { Counting.Warm.session = Sat.Bsat.Session.create f; known = k } in
  for c = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "cell %d = fresh enumeration" c)
      true
      (draw_matches_fresh w f (random_rows rng f 6) 48)
  done;
  Alcotest.(check int) "every member was known already" n
    (Counting.Known.size w.Counting.Warm.known)

(* [model] returns each member's witness as added, across the
   512-member chunk boundaries and the byte boundaries of |X|. *)
let prop_known_model_roundtrip =
  QCheck2.Test.make ~count:60 ~name:"known model round-trips"
    QCheck2.Gen.(
      tup4 (int_bound 100_000)
        (oneof [ pure 1; int_range 11 70; int_range 120 130 ])
        (oneof [ pure 0; int_range 1 70; int_range 115 135 ])
        (oneof [ int_range 0 20; int_range 500 530; int_range 1000 1100 ]))
    (fun (seed, width, extra, n) ->
      let rng = Rng.create seed in
      let f = sampling_formula rng ~width ~extra in
      let members = distinct_projections rng ~width n in
      let n = Array.length members in
      let models = Array.map (model_of rng f) members in
      let k = Counting.Known.create f in
      Array.iter (Counting.Known.add k) models;
      Counting.Known.size k = n
      && List.for_all
           (fun r ->
             Cnf.Model.equal (Counting.Known.model k r) models.(r)
             && Counting.Known.blocking_clause k r = blocking_of f members.(r))
           (List.init n Fun.id))

(* A sampling set wide enough that the columns' bound is a few
   thousand members, over a formula wide enough that the witnesses'
   bound keeps fewer. *)
let test_known_bound () =
  let rng = Rng.create 5 in
  let width = 4096 in
  let f = sampling_formula rng ~width ~extra:12_288 in
  let k = Counting.Known.create f in
  let cap = Counting.Known.capacity k in
  Alcotest.(check bool) "|S| x capacity within 2^24 bits" true
    (cap > 0 && width * cap <= 1 lsl 24);
  let fill n =
    for _ = 1 to n do
      Counting.Known.add k (model_of rng f (Array.init width (fun _ -> Rng.bool rng)))
    done
  in
  fill cap;
  Alcotest.(check int) "holds the capacity" cap (Counting.Known.size k);
  let kept = List.length (List.filter (Counting.Known.has_model k) (List.init cap Fun.id)) in
  Alcotest.(check bool) "the kept witnesses fit 2^24 bits" true
    (kept > 0 && kept < cap
    && kept * 8 * ((f.Cnf.Formula.num_vars + 7) / 8) <= 1 lsl 24);
  Alcotest.(check bool) "the first members keep theirs" true
    (List.for_all (fun r -> Counting.Known.has_model k r = (r < kept)) (List.init cap Fun.id));
  Alcotest.check_raises "no witness past the bound"
    (Invalid_argument "Known.model: no witness kept for this member") (fun () ->
      ignore (Counting.Known.model k kept));
  let cells = List.init 20 (fun i -> random_rows rng f (i mod 8)) in
  let decide () = List.map (Counting.Known.in_cell k ~limit:63) cells in
  let before = decide () in
  let clauses () =
    List.init 5 (Counting.Known.blocking_clause k) @ [ Counting.Known.blocking_clause k (cap - 1) ]
  in
  let blocks = clauses () in
  let models = List.init 5 (Counting.Known.model k) @ [ Counting.Known.model k (kept - 1) ] in
  fill 100;
  Alcotest.(check int) "stops growing at the bound" cap (Counting.Known.size k);
  Alcotest.(check bool) "no decision changes" true (decide () = before);
  Alcotest.(check bool) "members unchanged" true
    (clauses () = blocks
    && List.equal Cnf.Model.equal models
         (List.init 5 (Counting.Known.model k) @ [ Counting.Known.model k (kept - 1) ]))

(* ------------------------------------------------------------------ *)
(* Warm workers *)

(* Without a pool every core iteration of a count runs on the calling
   domain's one warm session: every session call after the first is a
   reuse. Each cell the cache does not decide is one session call (the
   audit's fresh enumerations are not). *)
let test_warm_count_one_session () =
  let f = Cnf.Formula.create ~num_vars:12 [ Cnf.Clause.of_dimacs [ 1; 2; 3 ] ] in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let r =
    Fun.protect ~finally:Obs.Metrics.disable (fun () ->
        match
          Counting.Approxmc.count ~iterations:9 ~rng:(Rng.create 5) ~epsilon:0.8
            ~delta:0.8 f
        with
        | Ok r -> r
        | Error _ -> Alcotest.fail "count failed")
  in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  let calls = counter "approxmc.hash_draws" - counter "approxmc.cells_from_known" in
  Alcotest.(check bool) "hashed count" false r.Counting.Approxmc.exact;
  Alcotest.(check bool) "several session calls" true (calls > 9);
  Alcotest.(check int) "every session call after the first is a reuse" (calls - 1)
    r.Counting.Approxmc.reuse_hits

(* Prepared without a pool, a state draws on the worker it counted
   with: its first draw's session call is already a reuse, and so is
   every later one, so the draws' reuse hits equal their session calls
   (one per cell, except the oversized cells the cache decides). *)
let test_warm_count_then_draw () =
  let f = Cnf.Formula.create ~num_vars:12 [ Cnf.Clause.of_dimacs [ 1; 2; 3 ] ] in
  match
    Sampling.Unigen.prepare ~count_iterations:9 ~rng:(Rng.create 5) ~epsilon:6.0 f
  with
  | Error _ -> Alcotest.fail "prepare failed"
  | Ok p ->
      Alcotest.(check bool) "hashed phase" false (Sampling.Unigen.is_easy p);
      let draw i =
        let _, st = Sampling.Unigen.sample_index ~max_attempts:20 ~seed:3 p i in
        let open Sampling.Sampler in
        ( st.reuse_hits,
          st.cells_oversized + st.cells_undersized + st.cells_accepted - st.cells_from_known )
      in
      let first_reused, first_calls = draw 0 in
      Alcotest.(check bool) "the first draw calls the session" true (first_calls > 0);
      Alcotest.(check int) "the first draw's session calls are reuses" first_calls
        first_reused;
      let later = List.init 20 (fun i -> draw (i + 1)) in
      Alcotest.(check int) "every draw's session calls are reuses"
        (List.fold_left (fun n (_, c) -> n + c) 0 later)
        (List.fold_left (fun n (r, _) -> n + r) 0 later)

(* [mine] hands a domain the same worker on every call, and each domain
   of a pool its own. The two items of the pooled batch wait for each
   other, so they run on two domains at once. *)
let test_warm_one_worker_per_domain () =
  let f = Cnf.Formula.create ~num_vars:6 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let tbl = Counting.Warm.table f in
  let here = Counting.Warm.mine tbl in
  Alcotest.(check bool) "same worker on a second call" true (Counting.Warm.mine tbl == here);
  let tbl = Counting.Warm.table f in
  let arrived = Atomic.make 0 in
  let both =
    Parallel.Domain_pool.with_pool ~jobs:2 @@ fun pool ->
    Parallel.Domain_pool.map pool
      (fun () ->
        let w = Counting.Warm.mine tbl in
        Atomic.incr arrived;
        let give_up = Unix.gettimeofday () +. 30.0 in
        while Atomic.get arrived < 2 && Unix.gettimeofday () < give_up do
          Domain.cpu_relax ()
        done;
        (w, Counting.Warm.mine tbl))
      [| (); () |]
  in
  Alcotest.(check int) "both items ran at once" 2 (Atomic.get arrived);
  let (a, a'), (b, b') = (both.(0), both.(1)) in
  Alcotest.(check bool) "each domain keeps its worker" true (a == a' && b == b');
  Alcotest.(check bool) "distinct workers on two domains" true
    (a != b && a.Counting.Warm.session != b.Counting.Warm.session
    && a.Counting.Warm.known != b.Counting.Warm.known)

(* Draws one worker on each domain of a pool of 2 (the two items wait
   for each other, so one runs on the caller and one on the pool's
   domain) and shuts the pool down; the workers, held weakly. *)
let pool_workers tbl =
  let arrived = Atomic.make 0 in
  let workers =
    Parallel.Domain_pool.with_pool ~jobs:2 @@ fun pool ->
    Parallel.Domain_pool.map pool
      (fun () ->
        let w = Counting.Warm.mine tbl in
        Atomic.incr arrived;
        let give_up = Unix.gettimeofday () +. 30.0 in
        while Atomic.get arrived < 2 && Unix.gettimeofday () < give_up do
          Domain.cpu_relax ()
        done;
        w)
      [| (); () |]
  in
  let weak = Weak.create 2 in
  Array.iteri (fun i w -> Weak.set weak i (Some w)) workers;
  weak

(* A pool domain's exit takes its worker out of every live table, so
   nothing holds it once the pool has shut down; the caller's worker
   stays. *)
let test_warm_pool_workers_freed () =
  let f = Cnf.Formula.create ~num_vars:6 [ Cnf.Clause.of_dimacs [ 1; 2 ] ] in
  let tbl = Counting.Warm.table f in
  let here = Counting.Warm.mine tbl in
  let weak = pool_workers tbl in
  Gc.full_major ();
  let kept = List.filter_map (Weak.get weak) [ 0; 1 ] in
  Alcotest.(check int) "the pool domain's worker is freed" 1 (List.length kept);
  Alcotest.(check bool) "the caller's worker stays" true
    (List.for_all (fun w -> w == here) kept && Counting.Warm.mine tbl == here)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_exact_matches_brute;
      prop_projected_matches_brute;
      prop_approx_envelope;
      prop_approx_replays_hash_draws;
      prop_known_in_cell;
      prop_known_completes_fresh_cell;
      prop_known_model_roundtrip;
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
      ( "known",
        [
          Alcotest.test_case "bound" `Quick test_known_bound;
          Alcotest.test_case "lookups scan and walk" `Quick test_known_both_paths;
          Alcotest.test_case "no index past the bitmap" `Quick test_known_no_index;
          Alcotest.test_case "members past the index's budget" `Quick
            test_known_past_index_budget;
          Alcotest.test_case "past the witnesses' bound" `Quick
            test_known_past_witness_budget;
        ] );
      ( "warm",
        [
          Alcotest.test_case "count on one session" `Quick test_warm_count_one_session;
          Alcotest.test_case "count and draws on one worker" `Quick
            test_warm_count_then_draw;
          Alcotest.test_case "one worker per domain" `Quick
            test_warm_one_worker_per_domain;
          Alcotest.test_case "a shut-down pool's workers are freed" `Quick
            test_warm_pool_workers_freed;
        ] );
      ("properties", qcheck_cases);
    ]
