(* Values are one byte per variable, '\000' or '\001', aligned with the
   variable list. A contiguous model (variables 1..n) stores no
   variable list at all: [vars = [||]] and variable [v] sits at byte
   [v - 1]. Any other model keeps its sorted variable list, which is
   never of the form [|1; ...; n|] (see [of_sorted_vars]). *)
type t = {
  vars : int array; (* sorted ascending; [||] when contiguous *)
  values : Bytes.t; (* aligned with the variables *)
}

let byte_of_bool b = if b then '\001' else '\000'
let is_contiguous t = Array.length t.vars = 0

let make n value =
  { vars = [||]; values = Bytes.init n (fun i -> byte_of_bool (value (i + 1))) }

let of_bool_array a =
  { vars = [||]; values = Bytes.init (Array.length a) (fun i -> byte_of_bool a.(i)) }

let num_vars t = Bytes.length t.values
let var_at t i = if is_contiguous t then i + 1 else t.vars.(i)
let bit t i = Bytes.unsafe_get t.values i = '\001'

let absent v = invalid_arg (Printf.sprintf "Model.value: variable %d absent" v)

let find_slot t v =
  let rec search lo hi =
    if lo > hi then absent v
    else
      let mid = (lo + hi) / 2 in
      if t.vars.(mid) = v then mid
      else if t.vars.(mid) < v then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length t.vars - 1)

let value t v =
  if is_contiguous t then begin
    if v < 1 || v > Bytes.length t.values then absent v;
    bit t (v - 1)
  end
  else bit t (find_slot t v)

(* [vars] sorted ascending; a list that is exactly 1..n is dropped *)
let of_sorted_vars vars values =
  let n = Array.length vars in
  let rec ascending i = i >= n || (vars.(i) = i + 1 && ascending (i + 1)) in
  { vars = (if ascending 0 then [||] else vars); values }

let restrict t vars =
  let vars = Array.copy vars in
  Array.sort Int.compare vars;
  let values = Bytes.init (Array.length vars) (fun i -> byte_of_bool (value t vars.(i))) in
  of_sorted_vars vars values

let prefix t n =
  if is_contiguous t && n <= Bytes.length t.values then
    if n = Bytes.length t.values then t
    else { vars = [||]; values = Bytes.sub t.values 0 n }
  else restrict t (Array.init n (fun i -> i + 1))

let key t =
  (* One bit per variable, packed; prefixed by the variable list so
     models over different supports never collide. *)
  let n = num_vars t in
  let buf = Buffer.create (n / 8 + 16) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (string_of_int (var_at t i));
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '|';
  let byte = ref 0 and used = ref 0 in
  for i = 0 to n - 1 do
    byte := (!byte lsl 1) lor Char.code (Bytes.unsafe_get t.values i);
    incr used;
    if !used = 8 then begin
      Buffer.add_char buf (Char.chr !byte);
      byte := 0;
      used := 0
    end
  done;
  if !used > 0 then Buffer.add_char buf (Char.chr !byte);
  Buffer.contents buf

(* Over one variable list the keys share their prefix and the packed
   bits compare most-significant first, so [key] order is the
   lexicographic order of the value bytes. *)
let compare a b =
  if Bytes.length a.values = Bytes.length b.values
     && (a.vars == b.vars || a.vars = b.vars)
  then Bytes.compare a.values b.values
  else String.compare (key a) (key b)

let packed_bytes t = (num_vars t + 7) / 8

(* Eight value bytes, each 0 or 1, read as one little-endian int64
   [x]: the product [x * 0x0102040810204080] collects value byte [j]
   at bit [56 + j] (every other partial product lands below bit 56 or
   past bit 63, and those below sum to less than 2^56). *)
let pack t set =
  let n = num_vars t in
  for i = 0 to (n / 8) - 1 do
    let x = Bytes.get_int64_le t.values (8 * i) in
    set i (Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0102040810204080L) 56))
  done;
  if n mod 8 > 0 then begin
    let base = n - (n mod 8) in
    let byte = ref 0 in
    for b = (n mod 8) - 1 downto 0 do
      byte := (!byte lsl 1) lor Char.code (Bytes.unsafe_get t.values (base + b))
    done;
    set (n / 8) !byte
  end

let unpack n byte =
  let values = Bytes.create n in
  for i = 0 to ((n + 7) / 8) - 1 do
    let base = 8 * i in
    let x = byte i in
    for b = 0 to min 8 (n - base) - 1 do
      Bytes.unsafe_set values (base + b) (Char.unsafe_chr ((x lsr b) land 1))
    done
  done;
  { vars = [||]; values }

let to_dimacs t =
  List.init (num_vars t) (fun i -> if bit t i then var_at t i else -var_at t i)

(* A contiguous model wide enough for the formula is the byte buffer
   [Formula.eval_bytes] reads; any other goes through [value], which
   names the first variable it lacks. *)
let satisfies (f : Formula.t) t =
  if is_contiguous t && Bytes.length t.values >= f.num_vars then
    Formula.eval_bytes f t.values
  else Formula.eval f (value t)

(* Occurrence lists in CSR form: the clauses holding variable [v] are
   [clause_occ.(clause_start.(v)) .. clause_occ.(clause_start.(v + 1) - 1)],
   and the same for XORs. A variable repeated in a clause is listed
   once per appearance, which only re-reads that clause. *)
type occurrences = {
  formula : Formula.t;
  clause_start : int array;
  clause_occ : int array;
  xor_start : int array;
  xor_occ : int array;
}

let csr n items vars_of =
  let start = Array.make (n + 2) 0 in
  Array.iter (fun it -> Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) (vars_of it)) items;
  for v = 1 to n + 1 do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let occ = Array.make start.(n + 1) 0 in
  let next = Array.sub start 0 (n + 1) in
  Array.iteri
    (fun i it ->
      Array.iter
        (fun v ->
          occ.(next.(v)) <- i;
          next.(v) <- next.(v) + 1)
        (vars_of it))
    items;
  (start, occ)

let occurrences (f : Formula.t) =
  let clause_start, clause_occ =
    csr f.num_vars f.clauses (Array.map Lit.var)
  in
  let xor_start, xor_occ =
    csr f.num_vars f.xors (fun (x : Xor_clause.t) -> x.vars)
  in
  { formula = f; clause_start; clause_occ; xor_start; xor_occ }

let indexed o = o.formula

let rec clauses_of_hold o b v k =
  k = o.clause_start.(v + 1)
  || (Clause.eval_bytes b o.formula.clauses.(o.clause_occ.(k))
      && clauses_of_hold o b v (k + 1))

let rec xors_of_hold o b v k =
  k = o.xor_start.(v + 1)
  || (Xor_clause.eval_bytes b o.formula.xors.(o.xor_occ.(k))
      && xors_of_hold o b v (k + 1))

let rec layer_holds b = function
  | [] -> true
  | x :: rest -> Xor_clause.eval_bytes b x && layer_holds b rest

(* Variables [v .. hi], where [b] and [p] may differ: the clauses and
   XORs of each one that does differ still hold. *)
let rec changed_hold o b p v hi =
  v > hi
  || (Bytes.unsafe_get b (v - 1) = Bytes.unsafe_get p (v - 1)
      || (clauses_of_hold o b v o.clause_start.(v) && xors_of_hold o b v o.xor_start.(v)))
     && changed_hold o b p (v + 1) hi

(* Eight value bytes at a time; a word that differs is re-read byte by
   byte. Every clause and XOR not touching a changed variable reads as
   it did under [prev], which satisfied it. *)
let rec words_hold o b p i n =
  i >= n
  || ((i + 8 <= n && Bytes.get_int64_ne b i = Bytes.get_int64_ne p i)
      || changed_hold o b p (i + 1) (min n (i + 8)))
     && words_hold o b p (i + 8) n

let satisfies_after o ~layer ~prev t =
  let f = o.formula in
  let n = f.num_vars in
  if is_contiguous t && is_contiguous prev
     && Bytes.length t.values >= n && Bytes.length prev.values >= n
  then words_hold o t.values prev.values 0 n && layer_holds t.values layer
  else satisfies f t && List.for_all (Xor_clause.eval (value t)) layer

let equal a b = a.vars = b.vars && Bytes.equal a.values b.values

let pp fmt t =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Format.pp_print_int)
    (to_dimacs t)
