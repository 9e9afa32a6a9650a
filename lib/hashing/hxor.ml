type t = {
  rows : int array array; (* row i: variables with coefficient 1 *)
  offsets : bool array; (* a(i,0) *)
  alpha : bool array; (* target cell *)
}

let sample rng ~vars ~m =
  if m < 0 then invalid_arg "Hxor.sample: m < 0";
  if m > 0 && Array.length vars = 0 then
    invalid_arg "Hxor.sample: empty variable set";
  (* one draw per variable, in order; the chosen ones go to [picked] *)
  let picked = Array.make (Array.length vars) 0 in
  let row () =
    let k = ref 0 in
    Array.iter
      (fun v ->
        if Rng.bool rng then begin
          picked.(!k) <- v;
          incr k
        end)
      vars;
    Array.sub picked 0 !k
  in
  (* the draw order fixes every hash stream, and with it every
     witness: the target cell, then the offsets, then the rows *)
  let alpha = Array.init m (fun _ -> Rng.bool rng) in
  let offsets = Array.init m (fun _ -> Rng.bool rng) in
  let rows = Array.init m (fun _ -> row ()) in
  { rows; offsets; alpha }

let m t = Array.length t.rows
let alpha t = Array.copy t.alpha

let constraints t =
  (* h(y)[i] = a(i,0) ⊕ ⊕ y[k]  must equal α[i], i.e.
     ⊕ y[k] = α[i] ⊕ a(i,0). *)
  Array.to_list
    (Array.mapi
       (fun i row ->
         let rhs = t.alpha.(i) <> t.offsets.(i) in
         Cnf.Xor_clause.make (Array.to_list row) rhs)
       t.rows)

let apply t value =
  Array.mapi
    (fun i row ->
      Array.fold_left (fun p v -> if value v then not p else p) t.offsets.(i) row)
    t.rows

let in_cell t value =
  let h = apply t value in
  let ok = ref true in
  Array.iteri (fun i b -> if b <> t.alpha.(i) then ok := false) h;
  !ok

let total_xor_length t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.rows

let average_xor_length t =
  if Array.length t.rows = 0 then 0.0
  else float_of_int (total_xor_length t) /. float_of_int (Array.length t.rows)
