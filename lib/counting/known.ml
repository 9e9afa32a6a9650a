(* The projections onto the sampling set S found so far, stored
   bit-sliced: [cols.(j)] is a bitset over the members, bit [r mod bits]
   of word [r / bits] holding member [r]'s value of [sampling.(j)]. An
   XOR row over S then evaluates on [bits] members at once, one word
   XOR per variable of the row. A cache belongs to one domain. *)

let bits = Sys.int_size

(* The columns never exceed this many words in total: 2 MiB on a
   64-bit host. *)
let max_words = 1 lsl 18

type t = {
  sampling : int array;
  index : int array; (* variable -> position in [sampling], or -1 *)
  max_col_words : int; (* the bound, in words per column *)
  mutable cols : int array array;
  mutable size : int;
}

let create f =
  let sampling = Cnf.Formula.sampling_vars f in
  let index = Array.make (f.Cnf.Formula.num_vars + 1) (-1) in
  Array.iteri (fun j v -> index.(v) <- j) sampling;
  let max_col_words = max_words / max 1 (Array.length sampling) in
  {
    sampling;
    index;
    max_col_words;
    cols = Array.map (fun _ -> Array.make (min 4 max_col_words) 0) sampling;
    size = 0;
  }

let size t = t.size
let capacity t = t.max_col_words * bits

let add t m =
  let r = t.size in
  let w = r / bits in
  if w < t.max_col_words then begin
    if Array.length t.sampling > 0 && w >= Array.length t.cols.(0) then
      t.cols <-
        Array.map
          (fun col ->
            let c = Array.make (min t.max_col_words (2 * Array.length col)) 0 in
            Array.blit col 0 c 0 (Array.length col);
            c)
          t.cols;
    Array.iteri
      (fun j v ->
        if Cnf.Model.value m v then
          t.cols.(j).(w) <- t.cols.(j).(w) lor (1 lsl (r mod bits)))
      t.sampling;
    t.size <- r + 1
  end

let bit words r = (words.(r / bits) lsr (r mod bits)) land 1 = 1
let values t r = Array.map (fun col -> bit col r) t.cols

(* A projection packed [bits] values to a word, in S's order. *)
let pack t value =
  let key = Array.make ((Array.length t.sampling + bits - 1) / bits) 0 in
  for j = 0 to Array.length t.sampling - 1 do
    if value j then key.(j / bits) <- key.(j / bits) lor (1 lsl (j mod bits))
  done;
  key

let same a b =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do incr i done;
  !i = Array.length a

let add_new t ~among models =
  match among with
  | [] -> List.iter (add t) models
  | _ ->
      let known = List.map (fun r -> pack t (fun j -> bit t.cols.(j) r)) among in
      List.iter
        (fun m ->
          let key = pack t (fun j -> Cnf.Model.value m t.sampling.(j)) in
          if not (List.exists (same key) known) then add t m)
        models

let in_cell t ~limit (xors : Cnf.Xor_clause.t list) =
  let rows =
    Array.of_list
      (List.map
         (fun (x : Cnf.Xor_clause.t) ->
           (Array.map (fun v -> t.cols.(t.index.(v))) x.vars, x.rhs))
         xors)
  in
  let m = Array.length rows in
  let words = (t.size + bits - 1) / bits in
  let rec scan w acc k =
    if k >= limit || w >= words then (acc, k)
    else begin
      let tail = t.size - (w * bits) in
      let cell = ref (if tail >= bits then -1 else (1 lsl tail) - 1) in
      let i = ref 0 in
      while !cell <> 0 && !i < m do
        let cols, rhs = rows.(!i) in
        (* bit set where the member's parity differs from [rhs] *)
        let miss = ref (if rhs then -1 else 0) in
        for c = 0 to Array.length cols - 1 do
          miss := !miss lxor cols.(c).(w)
        done;
        cell := !cell land lnot !miss;
        incr i
      done;
      let rec collect b acc k =
        if k >= limit || !cell lsr b = 0 then (acc, k)
        else if (!cell lsr b) land 1 = 1 then collect (b + 1) (((w * bits) + b) :: acc) (k + 1)
        else collect (b + 1) acc k
      in
      let acc, k = collect 0 acc k in
      scan (w + 1) acc k
    end
  in
  scan 0 [] 0

let audit_cell ?deadline ~who ~limit ~known f xors (count, exhausted) =
  let fresh = Sat.Bsat.enumerate ?deadline ~limit (Cnf.Formula.add_xors f xors) in
  let fresh_count = List.length fresh.Sat.Bsat.models in
  if (not fresh.Sat.Bsat.timed_out)
     && (fresh_count <> count || fresh.Sat.Bsat.exhausted <> exhausted)
  then
    Audit.fail ~invariant:"known-cell"
      ~detail:(who ^ ": a cell decided from cached projections differs from a fresh enumeration")
      [ ("hash_size", string_of_int (List.length xors));
        ("known", string_of_int known);
        ("count", string_of_int count);
        ("exhausted", string_of_bool exhausted);
        ("fresh_count", string_of_int fresh_count);
        ("fresh_exhausted", string_of_bool fresh.Sat.Bsat.exhausted) ]
