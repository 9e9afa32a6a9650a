let compare_xor (a : Cnf.Xor_clause.t) (b : Cnf.Xor_clause.t) =
  let la = Array.length a.Cnf.Xor_clause.vars
  and lb = Array.length b.Cnf.Xor_clause.vars in
  if la <> lb then Int.compare la lb
  else begin
    let c = ref 0 in
    let i = ref 0 in
    while !c = 0 && !i < la do
      c := Int.compare a.Cnf.Xor_clause.vars.(!i) b.Cnf.Xor_clause.vars.(!i);
      incr i
    done;
    if !c <> 0 then !c
    else Bool.compare a.Cnf.Xor_clause.rhs b.Cnf.Xor_clause.rhs
  end

let dedup_sorted ~equal = function
  | [] -> []
  | x :: rest ->
      let rec go last acc = function
        | [] -> List.rev acc
        | y :: rest ->
            if equal last y then go last acc rest else go y (y :: acc) rest
      in
      go x [ x ] rest

let canonical (f : Cnf.Formula.t) =
  let clauses =
    Array.to_list f.Cnf.Formula.clauses
    |> List.filter_map Cnf.Clause.normalize
    |> List.sort Cnf.Clause.compare
    |> dedup_sorted ~equal:Cnf.Clause.equal
  in
  let xors =
    Array.to_list f.Cnf.Formula.xors
    |> List.map (fun (x : Cnf.Xor_clause.t) ->
           Cnf.Xor_clause.make (Array.to_list x.Cnf.Xor_clause.vars)
             x.Cnf.Xor_clause.rhs)
    |> List.filter (fun (x : Cnf.Xor_clause.t) ->
           Array.length x.Cnf.Xor_clause.vars > 0 || x.Cnf.Xor_clause.rhs)
    |> List.sort compare_xor
    |> dedup_sorted ~equal:Cnf.Xor_clause.equal
  in
  let sampling_set =
    Option.map
      (fun s ->
        Array.to_list s |> List.sort_uniq Int.compare)
      f.Cnf.Formula.sampling_set
  in
  Cnf.Formula.create_with_xors ?sampling_set ~num_vars:f.Cnf.Formula.num_vars
    clauses xors

(* The hashed byte string is the canonical DIMACS text behind a
   version tag, so the address survives refactors of in-memory
   representations but changes if the canonicalization spec does. *)
let version = "unigen-registry-v1"

let serialize_canonical g = version ^ "\n" ^ Cnf.Dimacs.to_string g
let serialize f = serialize_canonical (canonical f)

let identify f =
  let g = canonical f in
  (Digest.to_hex (Digest.string (serialize_canonical g)), g)

let fingerprint f = fst (identify f)
