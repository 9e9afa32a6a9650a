type weight = { num : int; log_denom : int }

let validate_weight w =
  if w.log_denom < 1 || w.log_denom > 10 then
    invalid_arg "Weighted: log_denom must be in 1..10";
  if w.num <= 0 || w.num >= 1 lsl w.log_denom then
    invalid_arg "Weighted: weight must lie strictly between 0 and 1"

let weight_of_float ?(log_denom = 6) p =
  let denom = 1 lsl log_denom in
  let num = int_of_float (Float.round (p *. float_of_int denom)) in
  let w = { num; log_denom } in
  validate_weight w;
  w

let probability w = float_of_int w.num /. float_of_int (1 lsl w.log_denom)

type lifted = {
  formula : Cnf.Formula.t;
  original_vars : int;
  coins : (int * int list) list;
}

let lift (f : Cnf.Formula.t) weights =
  let n = f.Cnf.Formula.num_vars in
  let sampling = Cnf.Formula.sampling_vars f in
  let in_sampling = Array.make (n + 1) false in
  Array.iter (fun v -> in_sampling.(v) <- true) sampling;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (v, w) ->
      validate_weight w;
      if v < 1 || v > n then invalid_arg "Weighted.lift: variable out of range";
      if Hashtbl.mem seen v then invalid_arg "Weighted.lift: repeated variable";
      if not in_sampling.(v) then
        invalid_arg "Weighted.lift: weights must target sampling-set variables";
      Hashtbl.add seen v ())
    weights;
  let next = ref (n + 1) in
  let clauses = ref [] in
  let coins =
    List.map
      (fun (v, w) ->
        let m = w.log_denom in
        let coin_vars = List.init m (fun _ ->
            let c = !next in
            incr next;
            c)
        in
        (* v ↔ ([coins]₂ < num): one clause per coin pattern, forcing
           v to the comparison outcome under that pattern *)
        for pattern = 0 to (1 lsl m) - 1 do
          let pattern_lits =
            List.mapi
              (fun i c ->
                (* coin i is bit i of the pattern; the clause negates
                   the pattern so it only bites when it matches *)
                if pattern land (1 lsl i) <> 0 then Cnf.Lit.neg c else Cnf.Lit.pos c)
              coin_vars
          in
          let forced = Cnf.Lit.make v (pattern < w.num) in
          clauses := Cnf.Clause.of_list (forced :: pattern_lits) :: !clauses
        done;
        (v, coin_vars))
      weights
  in
  let total_vars = !next - 1 in
  (* sampling set: original minus weighted vars, plus all coins *)
  let weighted = Hashtbl.create 16 in
  List.iter (fun (v, _) -> Hashtbl.replace weighted v ()) coins;
  let new_sampling =
    (Array.to_list sampling |> List.filter (fun v -> not (Hashtbl.mem weighted v)))
    @ List.concat_map snd coins
  in
  let base =
    Cnf.Formula.create_with_xors ~num_vars:total_vars
      (Array.to_list f.Cnf.Formula.clauses @ !clauses)
      (Array.to_list f.Cnf.Formula.xors)
  in
  let formula = Cnf.Formula.with_sampling_set base new_sampling in
  { formula; original_vars = n; coins }

let project lifted m = Cnf.Model.prefix m lifted.original_vars

let expected_probability _lifted weights m =
  List.fold_left
    (fun acc (v, w) ->
      let p = probability w in
      acc *. (if Cnf.Model.value m v then p else 1.0 -. p))
    1.0 weights
