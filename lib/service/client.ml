type t = { fd : Unix.file_descr }

exception Protocol_error of string

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let recv t =
  match Wire.read_frame t.fd with
  | None -> raise (Protocol_error "daemon closed the connection")
  | Some payload -> (
      try Wire.response_of_json (Json.of_string payload)
      with Json.Decode_error msg -> raise (Protocol_error msg))
  | exception Wire.Frame_error msg -> raise (Protocol_error msg)

let request t req =
  Wire.write_frame t.fd (Json.to_string (Wire.request_to_json req));
  recv t

let with_connection ~socket_path f =
  let t = connect ~socket_path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let call ~socket_path req = with_connection ~socket_path (fun t -> request t req)

(* ------------------------------------------------------------------ *)
(* Retry with backpressure-aware backoff *)

let transient = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE
        | Unix.EAGAIN ),
        _,
        _ )
  | Protocol_error _ ->
      true
  | _ -> false

let with_retry ?(max_attempts = 5) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
    ~rng f =
  if max_attempts < 1 then
    invalid_arg "Client.with_retry: max_attempts must be >= 1";
  let backoff ~attempt ~hint =
    (* exponential from [base_delay_s], raised to the scheduler's
       retry-after hint when that is larger (it already prices the
       backlog), capped, then jittered over [0.5x, 1x] from the seeded
       PRNG so a burst of identical clients de-synchronises
       deterministically *)
    let exp_s = base_delay_s *. Float.pow 2.0 (float_of_int (attempt - 1)) in
    let d = Float.min max_delay_s (Float.max hint exp_s) in
    Unix.sleepf (d *. (0.5 +. Rng.float rng 0.5))
  in
  let rec go attempt =
    match f () with
    | Wire.Rejected { retry_after_s; _ } as response ->
        if attempt >= max_attempts then response
        else begin
          backoff ~attempt ~hint:retry_after_s;
          go (attempt + 1)
        end
    | response -> response
    | exception e when transient e && attempt < max_attempts ->
        backoff ~attempt ~hint:0.0;
        go (attempt + 1)
  in
  go 1
