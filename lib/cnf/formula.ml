type t = {
  num_vars : int;
  clauses : Clause.t array;
  xors : Xor_clause.t array;
  sampling_set : int array option;
}

let check_var num_vars v =
  if v < 1 || v > num_vars then
    invalid_arg
      (Printf.sprintf "Formula: variable %d out of range 1..%d" v num_vars)

let check_clause num_vars c = Array.iter (fun l -> check_var num_vars (Lit.var l)) c
let check_xor num_vars (x : Xor_clause.t) = Array.iter (check_var num_vars) x.vars

let create_with_xors ?sampling_set ~num_vars clauses xors =
  List.iter (check_clause num_vars) clauses;
  List.iter (check_xor num_vars) xors;
  let sampling_set =
    Option.map
      (fun s ->
        List.iter (check_var num_vars) s;
        Array.of_list (List.sort_uniq Int.compare s))
      sampling_set
  in
  {
    num_vars;
    clauses = Array.of_list clauses;
    xors = Array.of_list xors;
    sampling_set;
  }

let create ?sampling_set ~num_vars clauses =
  create_with_xors ?sampling_set ~num_vars clauses []

let add_clauses t clauses =
  List.iter (check_clause t.num_vars) clauses;
  { t with clauses = Array.append t.clauses (Array.of_list clauses) }

let add_xors t xors =
  List.iter (check_xor t.num_vars) xors;
  { t with xors = Array.append t.xors (Array.of_list xors) }

let with_sampling_set t s =
  List.iter (check_var t.num_vars) s;
  { t with sampling_set = Some (Array.of_list (List.sort_uniq Int.compare s)) }

let sampling_vars t =
  match t.sampling_set with
  | Some s -> s
  | None -> Array.init t.num_vars (fun i -> i + 1)

let num_clauses t = Array.length t.clauses

let eval t value =
  Array.for_all (Clause.eval value) t.clauses
  && Array.for_all (Xor_clause.eval value) t.xors

let rec clauses_hold b cs i =
  i = Array.length cs || (Clause.eval_bytes b cs.(i) && clauses_hold b cs (i + 1))

let rec xors_hold b xs i =
  i = Array.length xs || (Xor_clause.eval_bytes b xs.(i) && xors_hold b xs (i + 1))

let eval_bytes t b = clauses_hold b t.clauses 0 && xors_hold b t.xors 0

let blast_xors t =
  if Array.length t.xors = 0 then t
  else begin
    let next = ref (t.num_vars + 1) in
    let fresh () =
      let v = !next in
      incr next;
      v
    in
    let extra =
      Array.to_list t.xors
      |> List.concat_map (fun x -> Xor_clause.to_cnf ~fresh x)
    in
    {
      num_vars = !next - 1;
      clauses = Array.append t.clauses (Array.of_list extra);
      xors = [||];
      sampling_set = t.sampling_set;
    }
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>p cnf %d %d" t.num_vars (Array.length t.clauses);
  Array.iter (fun c -> Format.fprintf fmt "@,%a" Clause.pp c) t.clauses;
  Array.iter (fun x -> Format.fprintf fmt "@,%a" Xor_clause.pp x) t.xors;
  Format.fprintf fmt "@]"
