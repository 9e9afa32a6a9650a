type row = {
  name : string;
  num_vars : int;
  sampling_size : int;
  unigen_success : float;
  unigen_avg_seconds : float;
  unigen_avg_xor_len : float;
  uniwit_success : float;
  uniwit_avg_seconds : float;
  uniwit_avg_xor_len : float;
  unigen_failed : bool;
  uniwit_failed : bool;
}

let now () = Unix.gettimeofday ()

let run_row ?(epsilon = 6.0) ?(unigen_samples = 50) ?(uniwit_samples = 5)
    ?(per_call_timeout = 20.0) ?(overall_timeout = 120.0) ?count_iterations ~rng
    (instance : Suite.instance) =
  let f = Lazy.force instance.Suite.formula in
  let num_vars = f.Cnf.Formula.num_vars in
  let sampling_size = Array.length (Cnf.Formula.sampling_vars f) in
  (* --- UniGen: prepare once, then draw --- *)
  let unigen_rng = Rng.split rng in
  let ug_deadline = now () +. overall_timeout in
  let ug_stats, ug_failed =
    match
      Sampling.Unigen.prepare ~deadline:ug_deadline ?count_iterations
        ~rng:unigen_rng ~epsilon f
    with
    | Error _ -> (Sampling.Sampler.fresh_stats (), true)
    | Ok prepared ->
        let seed = Int64.to_int (Rng.bits64 unigen_rng) land max_int in
        let st = Sampling.Unigen.stats prepared in
        (* one attempt per draw, each counted: Table 1's success
           probability is per attempt *)
        let rec draw i =
          if i >= unigen_samples || now () > ug_deadline then ()
          else begin
            let deadline = min ug_deadline (now () +. per_call_timeout) in
            let _, s =
              Sampling.Unigen.sample_index ~deadline ~max_attempts:1 ~seed
                prepared i
            in
            Sampling.Sampler.merge_into ~into:st s;
            draw (i + 1)
          end
        in
        draw 0;
        (st, st.Sampling.Sampler.samples_produced = 0)
  in
  (* --- UniWit: every sample from scratch --- *)
  let uniwit_rng = Rng.split rng in
  let uw_stats = Sampling.Sampler.fresh_stats () in
  let uw_deadline = now () +. overall_timeout in
  let rec draw i =
    if i > uniwit_samples || now () > uw_deadline then ()
    else begin
      let deadline = min uw_deadline (now () +. per_call_timeout) in
      ignore (Sampling.Uniwit.sample ~deadline ~stats:uw_stats ~rng:uniwit_rng f);
      draw (i + 1)
    end
  in
  draw 1;
  let uw_failed = uw_stats.Sampling.Sampler.samples_produced = 0 in
  {
    name = instance.Suite.name;
    num_vars;
    sampling_size;
    unigen_success = Sampling.Sampler.success_probability ug_stats;
    unigen_avg_seconds = Sampling.Sampler.average_seconds_per_sample ug_stats;
    unigen_avg_xor_len = Sampling.Sampler.average_xor_length ug_stats;
    uniwit_success = Sampling.Sampler.success_probability uw_stats;
    uniwit_avg_seconds = Sampling.Sampler.average_seconds_per_sample uw_stats;
    uniwit_avg_xor_len = Sampling.Sampler.average_xor_length uw_stats;
    unigen_failed = ug_failed;
    uniwit_failed = uw_failed;
  }

let pp_cell_f fmt v failed =
  if failed || Float.is_nan v then Format.fprintf fmt "%10s" "-"
  else Format.fprintf fmt "%10.3f" v

let pp_table fmt rows =
  Format.fprintf fmt
    "%-14s %8s %5s | %8s %10s %8s | %8s %10s %8s@."
    "Benchmark" "|X|" "|S|" "UG succ" "UG s/samp" "UG xlen" "UW succ"
    "UW s/samp" "UW xlen";
  Format.fprintf fmt "%s@." (String.make 95 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt "%-14s %8d %5d | " r.name r.num_vars r.sampling_size;
      if r.unigen_failed then Format.fprintf fmt "%8s %10s %8s | " "-" "-" "-"
      else
        Format.fprintf fmt "%8.2f %a %8.1f | " r.unigen_success
          (fun fmt v -> pp_cell_f fmt v r.unigen_failed)
          r.unigen_avg_seconds r.unigen_avg_xor_len;
      if r.uniwit_failed then Format.fprintf fmt "%8s %10s %8s@." "-" "-" "-"
      else
        Format.fprintf fmt "%8.2f %a %8.1f@." r.uniwit_success
          (fun fmt v -> pp_cell_f fmt v r.uniwit_failed)
          r.uniwit_avg_seconds r.uniwit_avg_xor_len)
    rows

type uniformity_result = {
  witness_count : int;
  samples : int;
  unigen_series : (int * int) list;
  us_series : (int * int) list;
  unigen_pvalue : float;
  us_pvalue : float;
  unigen_tv : float;
  us_tv : float;
}

let run_uniformity ?(epsilon = 6.0) ?(samples = 100_000) ?count_iterations ~rng f =
  let sampling = Cnf.Formula.sampling_vars f in
  let key_of m = Cnf.Model.key (Cnf.Model.restrict m sampling) in
  (* ideal sampler *)
  let us = Sampling.Us.create f in
  let rf = Sampling.Us.size us in
  let us_rng = Rng.split rng in
  let us_keys =
    List.init samples (fun _ -> key_of (Sampling.Us.sample ~rng:us_rng us))
  in
  (* UniGen *)
  let ug_rng = Rng.split rng in
  let prepared =
    match Sampling.Unigen.prepare ?count_iterations ~rng:ug_rng ~epsilon f with
    | Ok p -> p
    | Error _ -> failwith "run_uniformity: UniGen preparation failed"
  in
  let seed = Int64.to_int (Rng.bits64 ug_rng) land max_int in
  let ug_keys =
    Sampling.Unigen.sample_batch ~max_attempts:50 ~seed prepared samples
    |> Array.to_list
    |> List.map (function
         | Ok m -> key_of m
         | Error _ -> failwith "run_uniformity: UniGen failed to produce a witness")
  in
  let summarize keys =
    let h = Sampling.Stats.histogram_of_keys keys in
    ( Sampling.Stats.occurrence_distribution ~support_size:rf h,
      Sampling.Stats.uniformity_pvalue ~num_outcomes:rf ~num_samples:samples h,
      Sampling.Stats.total_variation_from_uniform ~num_outcomes:rf
        ~num_samples:samples h )
  in
  let ug_series, ug_p, ug_tv = summarize ug_keys in
  let us_series, us_p, us_tv = summarize us_keys in
  {
    witness_count = rf;
    samples;
    unigen_series = ug_series;
    us_series;
    unigen_pvalue = ug_p;
    us_pvalue = us_p;
    unigen_tv = ug_tv;
    us_tv = us_tv;
  }

let pp_uniformity fmt r =
  Format.fprintf fmt
    "|R_F| = %d, %d samples each@.χ² p-value: UniGen %.3f / US %.3f; TV from uniform: UniGen %.4f / US %.4f@."
    r.witness_count r.samples r.unigen_pvalue r.us_pvalue r.unigen_tv r.us_tv;
  Format.fprintf fmt "%8s %12s %12s@." "count" "#wit UniGen" "#wit US";
  let all_counts =
    List.sort_uniq Int.compare
      (List.map fst r.unigen_series @ List.map fst r.us_series)
  in
  List.iter
    (fun c ->
      let find series = Option.value ~default:0 (List.assoc_opt c series) in
      Format.fprintf fmt "%8d %12d %12d@." c (find r.unigen_series)
        (find r.us_series))
    all_counts
