type word = int list

module B = Netlist.Builder

let constant b ~width v =
  List.init width (fun i -> B.const b (v land (1 lsl i) <> 0))

let input_word b ~width = List.init width (fun _ -> B.input b)

let full_adder b x y c =
  let xy = B.xor_ b x y in
  let sum = B.xor_ b xy c in
  let carry = B.or_ b (B.and_ b x y) (B.and_ b xy c) in
  (sum, carry)

let ripple_adder b x y =
  if List.length x <> List.length y then
    invalid_arg "Arith.ripple_adder: width mismatch";
  let c0 = B.const b false in
  let rec go acc c = function
    | [], [] -> List.rev (c :: acc)
    | xb :: xs, yb :: ys ->
        let sum, carry = full_adder b xb yb c in
        go (sum :: acc) carry (xs, ys)
    | _ -> assert false
  in
  go [] c0 (x, y)

(* Classic array multiplier: sum shifted partial products. *)
let multiplier b x y =
  let nx = List.length x and ny = List.length y in
  let width = nx + ny in
  let pad w = w @ List.init (width - List.length w) (fun _ -> B.const b false) in
  let shifted_product i yb =
    let row = List.map (fun xb -> B.and_ b xb yb) x in
    pad (List.init i (fun _ -> B.const b false) @ row)
  in
  let partials = List.mapi shifted_product y in
  match partials with
  | [] -> constant b ~width 0
  | first :: rest ->
      List.fold_left
        (fun acc p ->
          (* drop the adder's carry-out to stay at [width] bits; the
             true product always fits in nx + ny bits, so nothing is
             lost *)
          let s = ripple_adder b acc p in
          List.filteri (fun i _ -> i < width) s)
        first rest

let squarer b x = multiplier b x x

let equal b x y =
  if List.length x <> List.length y then invalid_arg "Arith.equal: width mismatch";
  B.and_list b (List.map2 (fun xb yb -> B.xnor_ b xb yb) x y)

let less_than b x y =
  if List.length x <> List.length y then
    invalid_arg "Arith.less_than: width mismatch";
  (* scan from least to most significant:
     lt_i = (¬x_i ∧ y_i) ∨ (x_i = y_i ∧ lt_{i-1}) *)
  List.fold_left2
    (fun lt xb yb ->
      let here = B.and_ b (B.not_ b xb) yb in
      let same = B.xnor_ b xb yb in
      B.or_ b here (B.and_ b same lt))
    (B.const b false) x y

let parity b x = B.xor_list b x

let to_int bits =
  Array.to_list bits
  |> List.mapi (fun i v -> if v then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let of_int ~width v = Array.init width (fun i -> v land (1 lsl i) <> 0)
