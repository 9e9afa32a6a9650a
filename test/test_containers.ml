(* Tests for the solver's internal containers: Vec and Order_heap. *)

(* ------------------------------------------------------------------ *)
(* Vec *)

module Vec_exposed = struct
  let create () = Sat.Vec.create ~dummy:(-1) ()
end

let test_vec_push_get () =
  let v = Vec_exposed.create () in
  for i = 0 to 99 do
    Sat.Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Sat.Vec.size v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" i (Sat.Vec.get v i)
  done

let test_vec_pop_last () =
  let v = Vec_exposed.create () in
  Sat.Vec.push v 1;
  Sat.Vec.push v 2;
  Alcotest.(check int) "last" 2 (Sat.Vec.last v);
  Alcotest.(check int) "pop" 2 (Sat.Vec.pop v);
  Alcotest.(check int) "size" 1 (Sat.Vec.size v);
  Alcotest.(check int) "pop again" 1 (Sat.Vec.pop v);
  Alcotest.(check bool) "empty" true (Sat.Vec.is_empty v);
  Alcotest.(check bool) "pop empty raises" true
    (try
       ignore (Sat.Vec.pop v);
       false
     with Invalid_argument _ -> true)

let test_vec_bounds () =
  let v = Vec_exposed.create () in
  Sat.Vec.push v 5;
  Alcotest.(check bool) "get oob" true
    (try
       ignore (Sat.Vec.get v 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "set oob" true
    (try
       Sat.Vec.set v (-1) 0;
       false
     with Invalid_argument _ -> true)

let test_vec_shrink_clear () =
  let v = Vec_exposed.create () in
  for i = 0 to 9 do
    Sat.Vec.push v i
  done;
  Sat.Vec.shrink v 4;
  Alcotest.(check int) "shrunk" 4 (Sat.Vec.size v);
  Alcotest.(check (list int)) "contents" [ 0; 1; 2; 3 ] (Sat.Vec.to_list v);
  Sat.Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Sat.Vec.size v)

let test_vec_filter_in_place () =
  let v = Vec_exposed.create () in
  for i = 0 to 9 do
    Sat.Vec.push v i
  done;
  Sat.Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens kept in order" [ 0; 2; 4; 6; 8 ]
    (Sat.Vec.to_list v)

let test_vec_iter_fold_exists () =
  let v = Vec_exposed.create () in
  List.iter (Sat.Vec.push v) [ 3; 1; 4; 1; 5 ];
  Alcotest.(check int) "fold sum" 14 (Sat.Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Sat.Vec.exists (fun x -> x = 4) v);
  Alcotest.(check bool) "not exists" false (Sat.Vec.exists (fun x -> x = 9) v);
  let acc = ref [] in
  Sat.Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 5; 1; 4; 1; 3 ] !acc

let test_vec_sort () =
  let v = Vec_exposed.create () in
  List.iter (Sat.Vec.push v) [ 3; 1; 4; 1; 5 ];
  Sat.Vec.sort Int.compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 1; 3; 4; 5 ] (Sat.Vec.to_list v)

let test_vec_growth () =
  let v = Sat.Vec.create ~capacity:1 ~dummy:0 () in
  for i = 0 to 9999 do
    Sat.Vec.push v i
  done;
  Alcotest.(check int) "grew" 10000 (Sat.Vec.size v);
  Alcotest.(check int) "tail intact" 9999 (Sat.Vec.get v 9999)

(* ------------------------------------------------------------------ *)
(* Order_heap *)

let test_heap_pop_order () =
  let n = 10 in
  let activity = Array.make (n + 1) 0.0 in
  for v = 1 to n do
    activity.(v) <- float_of_int (v * v mod 7)
  done;
  let h = Sat.Order_heap.create n activity in
  for v = 1 to n do
    Sat.Order_heap.insert h v
  done;
  Alcotest.(check int) "size" n (Sat.Order_heap.size h);
  let rec drain acc =
    match Sat.Order_heap.pop_max h with
    | -1 -> List.rev acc
    | v -> drain (activity.(v) :: acc)
  in
  let scores = drain [] in
  let sorted = List.sort (fun a b -> Float.compare b a) scores in
  Alcotest.(check (list (float 0.0))) "descending activity" sorted scores;
  Alcotest.(check int) "empty heap pops -1" (-1) (Sat.Order_heap.pop_max h)

let test_heap_insert_idempotent () =
  let activity = Array.make 4 0.0 in
  let h = Sat.Order_heap.create 3 activity in
  Sat.Order_heap.insert h 2;
  Sat.Order_heap.insert h 2;
  Alcotest.(check int) "no duplicate" 1 (Sat.Order_heap.size h);
  Alcotest.(check bool) "in heap" true (Sat.Order_heap.in_heap h 2);
  Alcotest.(check bool) "not in heap" false (Sat.Order_heap.in_heap h 1)

let test_heap_update_after_bump () =
  let activity = Array.make 4 0.0 in
  let h = Sat.Order_heap.create 3 activity in
  List.iter (Sat.Order_heap.insert h) [ 1; 2; 3 ];
  activity.(3) <- 100.0;
  Sat.Order_heap.update h 3;
  Alcotest.(check int) "bumped var first" 3 (Sat.Order_heap.pop_max h)

let test_heap_rebuild () =
  let activity = Array.make 6 0.0 in
  activity.(4) <- 9.0;
  let h = Sat.Order_heap.create 5 activity in
  List.iter (Sat.Order_heap.insert h) [ 1; 2; 3 ];
  Sat.Order_heap.rebuild h [ 4; 5 ];
  Alcotest.(check int) "rebuilt size" 2 (Sat.Order_heap.size h);
  Alcotest.(check int) "max of new set" 4 (Sat.Order_heap.pop_max h)

let prop_heap_is_priority_queue =
  QCheck2.Test.make ~count:200 ~name:"heap pops in activity order"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let activity = Array.make (n + 1) 0.0 in
      for v = 1 to n do
        activity.(v) <- Rng.float rng 100.0
      done;
      let h = Sat.Order_heap.create n activity in
      (* random interleaving of inserts and pops *)
      let inserted = Array.make (n + 1) false in
      let popped = ref [] in
      let ok = ref true in
      for _ = 1 to 3 * n do
        if Rng.bool rng then begin
          let v = 1 + Rng.int rng n in
          Sat.Order_heap.insert h v;
          inserted.(v) <- true
        end
        else
          match Sat.Order_heap.pop_max h with
          | -1 -> ()
          | v ->
              inserted.(v) <- false;
              popped := v :: !popped;
              (* must be >= everything still in the heap *)
              for u = 1 to n do
                if Sat.Order_heap.in_heap h u && activity.(u) > activity.(v) then
                  ok := false
              done
      done;
      !ok)

let () =
  Alcotest.run "containers"
    [
      ( "vec",
        [
          Alcotest.test_case "push get" `Quick test_vec_push_get;
          Alcotest.test_case "pop last" `Quick test_vec_pop_last;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "shrink clear" `Quick test_vec_shrink_clear;
          Alcotest.test_case "filter in place" `Quick test_vec_filter_in_place;
          Alcotest.test_case "iter fold exists" `Quick test_vec_iter_fold_exists;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          Alcotest.test_case "growth" `Quick test_vec_growth;
        ] );
      ( "order_heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "insert idempotent" `Quick test_heap_insert_idempotent;
          Alcotest.test_case "update" `Quick test_heap_update_after_bump;
          Alcotest.test_case "rebuild" `Quick test_heap_rebuild;
          QCheck_alcotest.to_alcotest prop_heap_is_priority_queue;
        ] );
    ]
