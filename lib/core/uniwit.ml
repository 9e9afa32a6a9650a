(* cells of 1..pivot witnesses are accepted *)
let pivot = 20

let all_vars (f : Cnf.Formula.t) = Array.init f.num_vars (fun i -> i + 1)

let sample ?deadline ?stats ~rng (f : Cnf.Formula.t) =
  let stats = match stats with Some s -> s | None -> Sampler.fresh_stats () in
  stats.Sampler.samples_requested <- stats.Sampler.samples_requested + 1;
  let start = Unix.gettimeofday () in
  let vars = all_vars f in
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
  (* blocking over the full variable set: UniWit has no sampling set.
     One session serves the whole sequential search over hash sizes —
     UniWit re-solves the same base formula at every size, which is
     exactly the pattern sessions amortise. *)
  let session = Sat.Bsat.Session.create ~blocking_vars:vars f in
  let enumerate xors =
    let out =
      Sat.Bsat.Session.enumerate ?deadline ~xors ~limit:(pivot + 1) session
    in
    Sampler.record_solve stats out;
    out
  in
  let out = enumerate [] in
  if out.Sat.Bsat.timed_out then finish (Error Sampler.Timed_out)
  else begin
    let models = Array.of_list out.Sat.Bsat.models in
    if Array.length models = 0 then finish (Error Sampler.Unsat)
    else if out.Sat.Bsat.exhausted && Array.length models <= pivot then
      finish (Ok (Rng.choose rng models))
    else begin
      (* sequential search over hash sizes, afresh for every sample *)
      let rec try_size m =
        if m > f.num_vars then finish (Error Sampler.Cell_failure)
        else begin
          let h = Hashing.Hxor.sample rng ~vars ~m in
          Sampler.record_hash stats h;
          let out = enumerate (Hashing.Hxor.constraints h) in
          if out.Sat.Bsat.timed_out then finish (Error Sampler.Timed_out)
          else begin
            let cell = Array.of_list out.Sat.Bsat.models in
            let size = Array.length cell in
            if size >= 1 && size <= pivot && out.Sat.Bsat.exhausted then
              finish (Ok (Rng.choose rng cell))
            else try_size (m + 1)
          end
        end
      in
      try_size 1
    end
  end
