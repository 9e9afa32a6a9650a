type t = { vars : int array; rhs : bool }

let make vars rhs =
  (* x ⊕ x = 0: variables appearing an even number of times vanish. *)
  let sorted = List.sort Int.compare vars in
  let rec cancel acc = function
    | a :: b :: rest when a = b -> cancel acc rest
    | a :: rest -> cancel (a :: acc) rest
    | [] -> List.rev acc
  in
  let kept = cancel [] sorted in
  List.iter (fun v -> if v < 1 then invalid_arg "Xor_clause.make: bad var") kept;
  { vars = Array.of_list kept; rhs }

let eval value x =
  let parity = Array.fold_left (fun p v -> if value v then not p else p) false x.vars in
  Bool.equal parity x.rhs

(* byte [v - 1] holds variable [v] as 0 or 1; bounds-checked *)
let rec parity_bytes b vars i acc =
  if i = Array.length vars then acc
  else parity_bytes b vars (i + 1) (acc lxor Char.code (Bytes.get b (vars.(i) - 1)))

let eval_bytes b x = parity_bytes b x.vars 0 0 = Bool.to_int x.rhs

let arity x = Array.length x.vars
let max_var x = Array.fold_left max 0 x.vars
let equal a b = a.rhs = b.rhs && a.vars = b.vars

(* Expand a short XOR (k ≤ ~6) directly: a clause for every assignment
   of the variables with the wrong parity, negated. *)
let expand_small vars rhs =
  let k = Array.length vars in
  if k = 0 then if rhs then [ [||] ] else []
  else begin
    let clauses = ref [] in
    for mask = 0 to (1 lsl k) - 1 do
      (* mask bit i set = variable i assigned true in the forbidden row *)
      let parity = ref false in
      for i = 0 to k - 1 do
        if mask land (1 lsl i) <> 0 then parity := not !parity
      done;
      if Bool.equal !parity (not rhs) then begin
        (* forbid this row: clause of negations *)
        let lits =
          Array.to_list
            (Array.mapi
               (fun i v ->
                 if mask land (1 lsl i) <> 0 then Lit.neg v else Lit.pos v)
               vars)
        in
        clauses := Array.of_list lits :: !clauses
      end
    done;
    !clauses
  end

let to_cnf ~fresh ?(chunk = 4) x =
  if chunk < 2 then invalid_arg "Xor_clause.to_cnf: chunk must be >= 2";
  let vars = Array.to_list x.vars in
  (* Cut v1 ⊕ ... ⊕ vn = rhs into (v1 ⊕ ... ⊕ v_{c-1} ⊕ t1 = 0),
     (t1 ⊕ v_c ⊕ ... = 0), ..., last chunk carries rhs. *)
  let rec chunks acc current count = function
    | [] -> List.rev (List.rev current :: acc)
    | v :: rest ->
        if count = chunk - 1 && rest <> [] then
          chunks (List.rev (v :: current) :: acc) [] 0 rest
        else chunks acc (v :: current) (count + 1) rest
  in
  match vars with
  | [] -> expand_small [||] x.rhs
  | _ ->
      let groups = chunks [] [] 0 vars in
      let rec link carry acc = function
        | [] -> acc
        | [ last ] ->
            let vs = match carry with None -> last | Some t -> t :: last in
            expand_small (Array.of_list vs) x.rhs @ acc
        | group :: rest ->
            let t = fresh () in
            let vs = match carry with None -> group | Some c -> c :: group in
            (* group ⊕ t = 0  ⇔  t = parity(group) *)
            let cls = expand_small (Array.of_list (t :: vs)) false in
            link (Some t) (cls @ acc) rest
      in
      link None [] groups

let pp fmt x =
  Format.fprintf fmt "(%a = %b)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ⊕ ") Format.pp_print_int)
    (Array.to_list x.vars)
    x.rhs
