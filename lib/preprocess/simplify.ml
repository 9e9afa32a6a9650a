(* Clauses are processed as sorted lists of signed DIMACS literals. *)

type result = {
  simplified : Cnf.Formula.t;
  forced : (int * bool) list;
  eliminated : int list;
  recovery : (int * int list list) list;
  clauses_before : int;
  clauses_after : int;
}

exception Unsat_exn

let normalize_clause c =
  let sorted = List.sort_uniq Int.compare c in
  if List.exists (fun l -> List.mem (-l) sorted) sorted then None else Some sorted

(* ------------------------------------------------------------------ *)
(* Unit propagation over clause lists + XOR substitution               *)

let propagate_units clauses xors =
  (* returns (forced assignments, remaining clauses, remaining xors) *)
  let assignment = Hashtbl.create 64 in
  let assign l =
    let v = abs l and b = l > 0 in
    match Hashtbl.find_opt assignment v with
    | Some b' -> if b <> b' then raise Unsat_exn
    | None -> Hashtbl.add assignment v b
  in
  let value l =
    match Hashtbl.find_opt assignment (abs l) with
    | None -> None
    | Some b -> Some (if l > 0 then b else not b)
  in
  let simplify_clause c =
    (* None = satisfied; Some c' = residual *)
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | l :: rest -> (
          match value l with
          | Some true -> None
          | Some false -> go acc rest
          | None -> go (l :: acc) rest)
    in
    go [] c
  in
  let simplify_xor (x : Cnf.Xor_clause.t) =
    let rhs = ref x.rhs in
    let vars =
      Array.to_list x.vars
      |> List.filter (fun v ->
             match Hashtbl.find_opt assignment v with
             | Some true ->
                 rhs := not !rhs;
                 false
             | Some false -> false
             | None -> true)
    in
    (vars, !rhs)
  in
  let clauses = ref clauses and xors = ref xors in
  let changed = ref true in
  while !changed do
    changed := false;
    let next_clauses = ref [] in
    List.iter
      (fun c ->
        match simplify_clause c with
        | None -> changed := true
        | Some [] -> raise Unsat_exn
        | Some [ l ] ->
            assign l;
            changed := true
        | Some c' ->
            if List.length c' <> List.length c then changed := true;
            next_clauses := c' :: !next_clauses)
      !clauses;
    clauses := List.rev !next_clauses;
    let next_xors = ref [] in
    List.iter
      (fun x ->
        match simplify_xor x with
        | [], true -> raise Unsat_exn
        | [], false -> changed := true
        | [ v ], rhs ->
            assign (if rhs then v else -v);
            changed := true
        | vars, rhs ->
            let x' = Cnf.Xor_clause.make vars rhs in
            if Cnf.Xor_clause.arity x' <> Cnf.Xor_clause.arity x then changed := true;
            next_xors := x' :: !next_xors)
      !xors;
    xors := List.rev !next_xors
  done;
  let forced = Hashtbl.fold (fun v b acc -> (v, b) :: acc) assignment [] in
  (List.sort compare forced, !clauses, !xors)

(* ------------------------------------------------------------------ *)
(* Subsumption and self-subsumption                                    *)

let subset a b =
  (* both sorted *)
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' ->
        if x = y then go a' b' else if x > y then go a b' else false
  in
  go a b

let subsumption clauses =
  (* quadratic with a length sort; adequate at benchmark scale *)
  let sorted =
    List.sort (fun a b -> Int.compare (List.length a) (List.length b)) clauses
  in
  let kept = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun k -> subset k c) !kept) then kept := c :: !kept)
    sorted;
  List.rev !kept

let self_subsume clauses =
  (* strengthen c2 by c1 when c1 ⊆ c2 modulo one flipped literal:
     remove that literal from c2 *)
  let arr = Array.of_list clauses in
  let changed = ref false in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let c1 = arr.(i) and c2 = arr.(j) in
        if List.length c1 <= List.length c2 then
          (* find the unique literal of c1 whose negation is in c2 and
             the rest of c1 is a subset of c2 *)
          let flips =
            List.filter (fun l -> List.mem (-l) c2) c1
          in
          match flips with
          | [ l ] ->
              let rest = List.filter (fun x -> x <> l) c1 in
              if subset rest c2 then begin
                arr.(j) <- List.filter (fun x -> x <> -l) c2;
                changed := true
              end
          | _ -> ()
      end
    done
  done;
  (Array.to_list arr, !changed)

(* ------------------------------------------------------------------ *)
(* Bounded variable elimination                                        *)

let resolve c1 c2 v =
  (* c1 contains v, c2 contains -v *)
  let merged =
    List.filter (fun l -> l <> v) c1 @ List.filter (fun l -> l <> -v) c2
  in
  normalize_clause merged

(* clause growth allowed when eliminating one variable (the "bounded"
   of BVE) *)
let max_resolvents = 16

let eliminate_variable clauses v =
  let pos, rest = List.partition (fun c -> List.mem v c) clauses in
  let neg, rest = List.partition (fun c -> List.mem (-v) c) rest in
  if pos = [] || neg = [] then
    (* pure in the clause part: eliminating it just drops its clauses
       (every assignment of the rest extends by a suitable v) *)
    Some (rest, pos @ neg)
  else begin
    let resolvents =
      List.concat_map (fun c1 -> List.filter_map (fun c2 -> resolve c1 c2 v) neg) pos
    in
    let original = List.length pos + List.length neg in
    if List.length resolvents > original + max_resolvents then None
    else Some (resolvents @ rest, pos @ neg)
  end

(* ------------------------------------------------------------------ *)

let run ?(eliminate = true) (f : Cnf.Formula.t) =
  let clauses_before = Cnf.Formula.num_clauses f in
  try
    let raw =
      Array.to_list f.Cnf.Formula.clauses
      |> List.filter_map (fun c -> normalize_clause (Cnf.Clause.to_dimacs c))
    in
    (* alternate unit propagation with GF(2) elimination of the XOR
       system until neither produces new facts *)
    let rec fixpoint clauses xors acc_forced =
      let forced, clauses, xors = propagate_units clauses xors in
      let acc_forced = forced @ acc_forced in
      match Cnf.Xor_gauss.eliminate xors with
      | Error `Unsat -> raise Unsat_exn
      | Ok g ->
          let xors = g.Cnf.Xor_gauss.rows in
          if g.Cnf.Xor_gauss.units = [] then (acc_forced, clauses, xors)
          else
            let unit_clauses =
              List.map (fun (v, b) -> [ (if b then v else -v) ]) g.Cnf.Xor_gauss.units
            in
            fixpoint (unit_clauses @ clauses) xors acc_forced
    in
    let forced, clauses, xors =
      fixpoint raw (Array.to_list f.Cnf.Formula.xors) []
    in
    let forced = List.sort_uniq compare forced in
    let clauses = subsumption (List.sort_uniq compare clauses) in
    let clauses, _ = self_subsume clauses in
    let clauses = subsumption (List.sort_uniq compare clauses) in
    (* BVE candidates: outside the sampling set, outside every XOR,
       not already forced *)
    let protected = Hashtbl.create 64 in
    Array.iter (fun v -> Hashtbl.replace protected v ()) (Cnf.Formula.sampling_vars f);
    List.iter (fun (x : Cnf.Xor_clause.t) -> Array.iter (fun v -> Hashtbl.replace protected v ()) x.vars) xors;
    List.iter (fun (v, _) -> Hashtbl.replace protected v ()) forced;
    let clauses = ref clauses in
    let eliminated = ref [] and recovery = ref [] in
    if eliminate && f.Cnf.Formula.sampling_set <> None then begin
      let progress = ref true in
      while !progress do
        progress := false;
        let occ = Hashtbl.create 128 in
        List.iter
          (List.iter (fun l ->
               let v = abs l in
               Hashtbl.replace occ v (1 + Option.value ~default:0 (Hashtbl.find_opt occ v))))
          !clauses;
        (* try cheapest variables first *)
        let candidates =
          Hashtbl.fold
            (fun v c acc -> if Hashtbl.mem protected v then acc else (c, v) :: acc)
            occ []
          |> List.sort compare |> List.map snd
        in
        List.iter
          (fun v ->
            if not (Hashtbl.mem protected v) then
              match eliminate_variable !clauses v with
              | None -> ()
              | Some (next, removed) ->
                  clauses := subsumption (List.sort_uniq compare next);
                  eliminated := v :: !eliminated;
                  recovery := (v, removed) :: !recovery;
                  Hashtbl.replace protected v ();
                  progress := true)
          candidates
      done
    end;
    (* keep forced assignments as unit clauses so witnesses are
       unchanged on those variables *)
    let units = List.map (fun (v, b) -> [ (if b then v else -v) ]) forced in
    let final_clauses =
      List.map Cnf.Clause.of_dimacs (units @ !clauses)
    in
    let sampling_set =
      Option.map Array.to_list f.Cnf.Formula.sampling_set
    in
    let simplified =
      Cnf.Formula.create_with_xors ?sampling_set ~num_vars:f.Cnf.Formula.num_vars
        final_clauses xors
    in
    Ok
      {
        simplified;
        forced;
        eliminated = List.rev !eliminated;
        recovery = !recovery (* most recently eliminated first *);
        clauses_before;
        clauses_after = Cnf.Formula.num_clauses simplified;
      }
  with Unsat_exn -> Error `Unsat

let extend result m =
  if not (Cnf.Model.satisfies result.simplified m) then
    failwith "Simplify.extend: not a witness of the simplified formula";
  let n = Cnf.Model.num_vars m in
  let values = Array.init n (fun i -> Cnf.Model.value m (i + 1)) in
  (* recovery is ordered most-recently-eliminated first, which is the
     correct order to undo BVE (later eliminations may depend on
     earlier-eliminated variables) *)
  List.iter
    (fun (v, clauses) ->
      let lit_true l =
        let b = values.(abs l - 1) in
        if l > 0 then b else not b
      in
      (* v must satisfy every stored clause: forced true if some clause
         containing v has all other literals false, forced false
         symmetrically; otherwise free *)
      let forced_true =
        List.exists
          (fun c -> List.mem v c && not (List.exists (fun l -> l <> v && lit_true l) c))
          clauses
      in
      values.(v - 1) <- forced_true)
    result.recovery;
  Cnf.Model.of_bool_array values
