(* The witnesses found so far, in two layouts:
   - their projections onto the sampling set S, bit-sliced: [cols.(j)]
     is a bitset over the members, bit [r mod bits] of word [r / bits]
     holding member [r]'s value of [sampling.(j)]. An XOR row over S
     then evaluates on [bits] members at once, one word XOR per
     variable of the row.
   - the full witnesses of the first [max_models] members,
     [model_bytes] bytes each (see [Cnf.Model.pack]), in chunks of
     [chunk_members] members. A chunk is a Bigarray: it never moves and
     the GC does not scan it.
   A cache belongs to one domain. *)

open Bigarray

let bits = Sys.int_size

(* The columns never exceed this many words in total, and neither do
   the stored witnesses: 2 MiB each on a 64-bit host. The columns'
   bound fixes how many members the cache holds, the witnesses' bound
   how many of them keep their witness, so a wide formula keeps fewer
   witnesses but as many projections as a narrow one with the same S. *)
let max_words = 1 lsl 18

let chunk_members = 512

type chunk = (int, int8_unsigned_elt, c_layout) Array1.t

type t = {
  sampling : int array;
  index : int array; (* variable -> position in [sampling], or -1 *)
  num_vars : int;
  model_bytes : int; (* bytes per packed witness *)
  max_col_words : int; (* the columns' bound, in words per column *)
  max_models : int; (* the witnesses' bound, in members *)
  mutable cols : int array array;
  mutable chunks : chunk array; (* chunk [c] holds members [c * chunk_members ..] *)
  mutable size : int;
  mutable row_cols : int array array;
      (* [in_cell]'s scratch, refilled by every call: the column of
         each variable of its XOR rows, row after row *)
}

let create f =
  let sampling = Cnf.Formula.sampling_vars f in
  let num_vars = f.Cnf.Formula.num_vars in
  let index = Array.make (num_vars + 1) (-1) in
  Array.iteri (fun j v -> index.(v) <- j) sampling;
  let model_bytes = (num_vars + 7) / 8 in
  let max_col_words = max_words / max 1 (Array.length sampling) in
  {
    sampling;
    index;
    num_vars;
    model_bytes;
    max_col_words;
    max_models =
      min (max_col_words * bits) (max_words * (Sys.word_size / 8) / max 1 model_bytes);
    cols = Array.map (fun _ -> Array.make (min 4 max_col_words) 0) sampling;
    chunks = [||];
    size = 0;
    row_cols = [||];
  }

let size t = t.size
let capacity t = t.max_col_words * bits
let has_model t r = r >= 0 && r < t.size && r < t.max_models

let add t m =
  if Cnf.Model.num_vars m <> t.num_vars then
    invalid_arg "Known.add: model width differs from the formula's";
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
    if r < t.max_models then begin
      let c = r / chunk_members in
      if c >= Array.length t.chunks then begin
        (* the last chunk ends at the bound *)
        let members = min chunk_members (t.max_models - (c * chunk_members)) in
        t.chunks <-
          Array.append t.chunks
            [| Array1.create int8_unsigned c_layout (members * t.model_bytes) |]
      end;
      let chunk = t.chunks.(c) in
      let base = r mod chunk_members * t.model_bytes in
      Cnf.Model.pack m (fun i byte -> Array1.unsafe_set chunk (base + i) byte)
    end;
    t.size <- r + 1
  end

let bit words r = (words.(r / bits) lsr (r mod bits)) land 1 = 1
let blocking_clause t r =
  Array.mapi (fun j v -> Cnf.Lit.make v (not (bit t.cols.(j) r))) t.sampling

let holds t r m =
  let rec go j =
    j >= Array.length t.sampling
    || (bit t.cols.(j) r = Cnf.Model.value m t.sampling.(j) && go (j + 1))
  in
  go 0

let model t r =
  if not (has_model t r) then invalid_arg "Known.model: no witness kept for this member";
  let chunk = t.chunks.(r / chunk_members) in
  let base = r mod chunk_members * t.model_bytes in
  Cnf.Model.unpack t.num_vars (fun i -> Array1.unsafe_get chunk (base + i))

(* Writes the column of each variable of [xors]' rows into [row_cols],
   row after row from [base] on. *)
let rec fill_row_cols cols index row_cols base = function
  | [] -> ()
  | (x : Cnf.Xor_clause.t) :: rest ->
      let vars = x.vars in
      for c = 0 to Array.length vars - 1 do
        row_cols.(base + c) <- cols.(index.(vars.(c)))
      done;
      fill_row_cols cols index row_cols (base + Array.length vars) rest

(* [cell], a bitset over the members of word [w] of the columns, with
   every member cleared whose projection's parity over a row of [xors]
   differs from the row's rhs; the rows' columns start at [base] in
   [row_cols]. *)
let rec filter_word row_cols w cell base = function
  | [] -> cell
  | (x : Cnf.Xor_clause.t) :: rest ->
      if cell = 0 then 0
      else begin
        let stop = base + Array.length x.vars in
        let miss = ref (if x.rhs then -1 else 0) in
        for c = base to stop - 1 do
          miss := !miss lxor row_cols.(c).(w)
        done;
        filter_word row_cols w (cell land lnot !miss) stop rest
      end

let in_cell t ~limit (xors : Cnf.Xor_clause.t list) =
  let n = List.fold_left (fun n (x : Cnf.Xor_clause.t) -> n + Array.length x.vars) 0 xors in
  if Array.length t.row_cols < n then t.row_cols <- Array.make (2 * n) [||];
  let row_cols = t.row_cols in
  fill_row_cols t.cols t.index row_cols 0 xors;
  let words = (t.size + bits - 1) / bits in
  let rec scan w acc k =
    if k >= limit || w >= words then (acc, k)
    else begin
      let tail = t.size - (w * bits) in
      let all = if tail >= bits then -1 else (1 lsl tail) - 1 in
      collect w (filter_word row_cols w all 0 xors) 0 acc k
    end
  and collect w cell b acc k =
    if k >= limit || cell lsr b = 0 then scan (w + 1) acc k
    else if (cell lsr b) land 1 = 1 then
      collect w cell (b + 1) (((w * bits) + b) :: acc) (k + 1)
    else collect w cell (b + 1) acc k
  in
  scan 0 [] 0

let audit_cell ?deadline ?models ~who ~limit ~known f xors (count, exhausted) =
  let cell = Cnf.Formula.add_xors f xors in
  let fresh = Sat.Bsat.enumerate ?deadline ~limit cell in
  let fresh_count = List.length fresh.Sat.Bsat.models in
  let sampling = Cnf.Formula.sampling_vars f in
  let projections ms =
    List.sort String.compare
      (List.map (fun m -> Cnf.Model.key (Cnf.Model.restrict m sampling)) ms)
  in
  let fail detail extra =
    Audit.fail ~invariant:"known-cell" ~detail:(who ^ ": " ^ detail)
      ([ ("hash_size", string_of_int (List.length xors));
         ("known", string_of_int known);
         ("count", string_of_int count);
         ("exhausted", string_of_bool exhausted);
         ("fresh_count", string_of_int fresh_count);
         ("fresh_exhausted", string_of_bool fresh.Sat.Bsat.exhausted) ]
      @ extra)
  in
  if not fresh.Sat.Bsat.timed_out then begin
    if fresh_count <> count || fresh.Sat.Bsat.exhausted <> exhausted then
      fail "a cell decided from cached projections differs from a fresh enumeration" [];
    match models with
    | None -> ()
    | Some ms ->
        (match List.find_opt (fun m -> not (Cnf.Model.satisfies cell m)) ms with
        | Some m ->
            fail "a witness of a cell assembled from the cache falsifies the cell"
              [ ("witness",
                 String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m))) ]
        | None -> ());
        if projections ms <> projections fresh.Sat.Bsat.models then
          fail "a cell assembled from the cache holds other projections than a fresh enumeration"
            []
  end
