let energy (f : Cnf.Formula.t) values =
  let violated = ref 0 in
  Array.iter
    (fun c -> if not (Cnf.Clause.eval (fun v -> values.(v - 1)) c) then incr violated)
    f.Cnf.Formula.clauses;
  Array.iter
    (fun x -> if not (Cnf.Xor_clause.eval (fun v -> values.(v - 1)) x) then incr violated)
    f.Cnf.Formula.xors;
  !violated

(* Energy delta of flipping variable [v] — recomputed locally over the
   clauses mentioning v would be faster; at benchmark scale the direct
   recomputation keeps the code obvious. *)
let delta f values v =
  let before = energy f values in
  values.(v - 1) <- not values.(v - 1);
  let after = energy f values in
  values.(v - 1) <- not values.(v - 1);
  after - before

(* T of the Metropolis acceptance e^(-dE/T) *)
let temperature = 0.4

let sample ?(steps = 10_000) ?(restarts = 5) ?stats ~rng
    (f : Cnf.Formula.t) =
  let stats = match stats with Some s -> s | None -> Sampler.fresh_stats () in
  stats.Sampler.samples_requested <- stats.Sampler.samples_requested + 1;
  let start = Unix.gettimeofday () in
  let n = f.Cnf.Formula.num_vars in
  let finish outcome =
    stats.Sampler.wall_seconds <-
      stats.Sampler.wall_seconds +. (Unix.gettimeofday () -. start);
    (match outcome with
    | Ok _ -> stats.Sampler.samples_produced <- stats.Sampler.samples_produced + 1
    | Error Sampler.Cell_failure ->
        stats.Sampler.cell_failures <- stats.Sampler.cell_failures + 1
    | Error _ -> ());
    outcome
  in
  let rec attempt r =
    if r = 0 then finish (Error Sampler.Cell_failure)
    else begin
      let values = Array.init n (fun _ -> Rng.bool rng) in
      let e = ref (energy f values) in
      let remaining = ref steps in
      while !e > 0 && !remaining > 0 do
        decr remaining;
        let v = 1 + Rng.int rng n in
        let d = delta f values v in
        if d <= 0 || Rng.float rng 1.0 < Float.exp (-.float_of_int d /. temperature)
        then begin
          values.(v - 1) <- not values.(v - 1);
          e := !e + d
        end
      done;
      if !e = 0 then begin
        (* keep walking inside the solution space for a short mixing
           phase: only moves that stay satisfying are accepted *)
        let mix = ref (steps / 10) in
        while !mix > 0 do
          decr mix;
          let v = 1 + Rng.int rng n in
          if delta f values v = 0 then values.(v - 1) <- not values.(v - 1)
        done;
        finish (Ok (Cnf.Model.of_bool_array values))
      end
      else attempt (r - 1)
    end
  in
  if n = 0 then finish (Error Sampler.Cell_failure) else attempt restarts
