type t = Lit.t array

let of_list lits = Array.of_list lits
let of_dimacs ints = Array.of_list (List.map Lit.of_dimacs ints)
let to_dimacs c = Array.to_list (Array.map Lit.to_dimacs c)

let normalize c =
  let sorted = Array.copy c in
  Array.sort Lit.compare sorted;
  let n = Array.length sorted in
  let rec scan i acc =
    if i >= n then Some (Array.of_list (List.rev acc))
    else
      let l = sorted.(i) in
      match acc with
      | prev :: _ when Lit.equal prev l -> scan (i + 1) acc
      | prev :: _ when Lit.equal prev (Lit.negate l) -> None
      | _ -> scan (i + 1) (l :: acc)
  in
  scan 0 []

let is_tautology c = normalize c = None

let eval value c =
  Array.exists (fun l -> Bool.equal (value (Lit.var l)) (Lit.sign l)) c

(* Byte [v - 1] holds variable [v] as 0 or 1. The positive literal of
   [v] is [2v] and the negative one [2v + 1] (see {!Lit}), so a literal
   holds exactly when its byte xor its low bit is 1. [Bytes.get] is
   bounds-checked: a variable past the buffer raises. *)
let rec exists_true b (c : t) i =
  i < Array.length c
  && (let l = (c.(i) :> int) in
      Char.code (Bytes.get b ((l lsr 1) - 1)) lxor (l land 1) = 1
      || exists_true b c (i + 1))

let eval_bytes b c = exists_true b c 0

let vars c =
  Array.to_list c
  |> List.map Lit.var
  |> List.sort_uniq Int.compare

let max_var c = Array.fold_left (fun acc l -> max acc (Lit.var l)) 0 c

let equal a b = Array.length a = Array.length b && Array.for_all2 Lit.equal a b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Lit.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let pp fmt c =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ∨ ") Lit.pp)
    (Array.to_list c)
