(* cells larger than this count as failures: [s] was too small *)
let cell_cutoff = 4096

let sample ?deadline ?stats ~rng ~s (f : Cnf.Formula.t) =
  if s < 0 then invalid_arg "Xorsample.sample: s < 0";
  let stats = match stats with Some st -> st | None -> Sampler.fresh_stats () in
  stats.Sampler.samples_requested <- stats.Sampler.samples_requested + 1;
  let start = Unix.gettimeofday () in
  let finish outcome =
    stats.Sampler.wall_seconds <-
      stats.Sampler.wall_seconds +. (Unix.gettimeofday () -. start);
    (match outcome with
    | Ok _ -> stats.Sampler.samples_produced <- stats.Sampler.samples_produced + 1
    | Error Sampler.Cell_failure ->
        stats.Sampler.cell_failures <- stats.Sampler.cell_failures + 1
    | Error Sampler.Timed_out -> stats.Sampler.timeouts <- stats.Sampler.timeouts + 1
    | Error Sampler.Unsat -> ());
    outcome
  in
  let vars = Array.init f.num_vars (fun i -> i + 1) in
  let h = Hashing.Hxor.sample rng ~vars ~m:s in
  Sampler.record_hash stats h;
  let g = Cnf.Formula.add_xors f (Hashing.Hxor.constraints h) in
  let out = Sat.Bsat.enumerate ?deadline ~blocking_vars:vars ~limit:cell_cutoff g in
  Sampler.record_solve stats out;
  if out.Sat.Bsat.timed_out then finish (Error Sampler.Timed_out)
  else begin
    let cell = Array.of_list out.Sat.Bsat.models in
    if Array.length cell = 0 then finish (Error Sampler.Cell_failure)
    else if not out.Sat.Bsat.exhausted then
      (* cell larger than the cutoff: s was too small to be usable *)
      finish (Error Sampler.Cell_failure)
    else finish (Ok (Rng.choose rng cell))
  end
