(* A fixed set of worker domains draining one task queue, plus a
   self-pipe for completions of asynchronous jobs. Workers run tasks
   without knowing who queued them: [map] queues helpers that drain a
   published batch, [submit] queues a job that parks its finish thunk.
   One mutex guards both queues; a batch's items are claimed through
   two atomics (the next-index counter and the finished-item counter)
   and communicate results only through their own slot, so the hot
   path is lock-free once a batch is published. *)

type batch = {
  length : int;
  next : int Atomic.t;  (* next unclaimed item index *)
  finished : int Atomic.t;  (* items fully processed (run or skipped) *)
  cancelled : bool Atomic.t;  (* set on first exception: skip the rest *)
  run : int -> unit;  (* executes one item; must not raise *)
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work_ready : Condition.t;  (* a task was queued, or [stopping] *)
  batch_done : Condition.t;  (* the last item of a batch finished *)
  tasks : (unit -> unit) Queue.t;  (* each task must not raise *)
  completed : (unit -> unit) Queue.t;  (* parked finish thunks *)
  busy : int Atomic.t;  (* workers running a submitted job *)
  mutable stopping : bool;
  mutable domains : unit Domain.t array;
  mutable alive : bool;
  notify_r : Unix.file_descr;
  notify_w : Unix.file_descr;
  owner : Audit.Ownership.t;
      (* batches, jobs, polling and shutdown belong to the creating
         domain: it doubles as a worker in [map], runs every finish
         thunk, and the batch handshake assumes one waiting thread *)
}

(* set from worker domains — gauges are single atomic cells, so the
   concurrent last-write-wins is exactly the semantics a busyness
   gauge wants (see Obs.Metrics) *)
let g_busy = Obs.Metrics.gauge "executor.busy_workers"

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.tasks && not t.stopping do
      Condition.wait t.work_ready t.lock
    done;
    match Queue.take_opt t.tasks with
    | None -> Mutex.unlock t.lock (* stopping with an empty queue: exit *)
    | Some task ->
        Mutex.unlock t.lock;
        task ();
        loop ()
  in
  loop ()

let create ?(worker_span = "pool.worker") ~jobs () =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let notify_r, notify_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      tasks = Queue.create ();
      completed = Queue.create ();
      busy = Atomic.make 0;
      stopping = false;
      domains = [||];
      alive = true;
      notify_r;
      notify_w;
      owner = Audit.Ownership.create "Domain_pool.t";
    }
  in
  t.domains <-
    Array.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Obs.Trace.span ~cat:"parallel" worker_span (fun () -> worker_loop t)));
  t

let check_alive t =
  if not t.alive then invalid_arg "Domain_pool: pool already shut down"

let queue_tasks t task count =
  Mutex.lock t.lock;
  for _ = 1 to count do
    Queue.push task t.tasks
  done;
  if count = 1 then Condition.signal t.work_ready
  else Condition.broadcast t.work_ready;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Batches *)

(* Claim and process items of [b] until none are left. Run by the
   helper tasks and by the submitting domain. *)
let drain t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.length then begin
      if not (Atomic.get b.cancelled) then b.run i;
      let done_now = 1 + Atomic.fetch_and_add b.finished 1 in
      if done_now = b.length then begin
        Mutex.lock t.lock;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.lock
      end;
      claim ()
    end
  in
  claim ()

exception Item_error of int * exn * Printexc.raw_backtrace

let map_into t f items store =
  Audit.Ownership.check t.owner;
  check_alive t;
  let n = Array.length items in
  if n = 0 then ()
  else begin
    Obs.Trace.span ~cat:"parallel" "pool.batch"
      ~args:[ ("items", string_of_int n); ("jobs", string_of_int t.jobs) ]
    @@ fun () ->
    let error = ref None in
    let error_lock = Mutex.create () in
    let cancelled = Atomic.make false in
    let run i =
      match f i items.(i) with
      | v -> store i v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set cancelled true;
          Mutex.lock error_lock;
          (match !error with
          | Some (j, _, _) when j <= i -> ()
          | _ -> error := Some (i, e, bt));
          Mutex.unlock error_lock
    in
    let b =
      {
        length = n;
        next = Atomic.make 0;
        finished = Atomic.make 0;
        cancelled;
        run;
      }
    in
    let helpers = min (Array.length t.domains) (n - 1) in
    if helpers = 0 then drain t b
    else begin
      queue_tasks t (fun () -> drain t b) helpers;
      (* the submitting domain is a full worker for this batch, so the
         batch completes even while submitted jobs hold every worker *)
      drain t b;
      (* wait for stragglers still running their last claimed item *)
      Mutex.lock t.lock;
      while Atomic.get b.finished < n do
        Condition.wait t.batch_done t.lock
      done;
      Mutex.unlock t.lock
    end;
    match !error with
    | Some (i, e, bt) ->
        (* re-raise carrying the worker-side backtrace, so a crash in a
           traced parallel run points at the item's code, not here *)
        Printexc.raise_with_backtrace (Item_error (i, e, bt)) bt
    | None -> ()
  end

let map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    (try map_into t (fun _ x -> f x) items (fun i v -> results.(i) <- Some v)
     with Item_error (_, e, bt) -> Printexc.raise_with_backtrace e bt);
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Domain_pool.map: item missing (batch failed?)")
      results
  end

let iteri t f items =
  try map_into t f items (fun _ () -> ())
  with Item_error (_, e, bt) -> Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Asynchronous jobs *)

let notify t =
  (* the pipe is a level trigger, not a counter: a full pipe already
     guarantees the owner will wake, so EAGAIN is success *)
  try ignore (Unix.write t.notify_w (Bytes.make 1 '!') 0 1 : int)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) -> ()

let set_busy t delta =
  Obs.Metrics.set g_busy (float_of_int (delta + Atomic.fetch_and_add t.busy delta))

let submit t ~work ~finish =
  Audit.Ownership.check t.owner;
  check_alive t;
  if Array.length t.domains = 0 then
    invalid_arg "Domain_pool.submit: a pool of jobs = 1 has no worker domain";
  let job () =
    set_busy t 1;
    let result =
      try Ok (work ())
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    Mutex.lock t.lock;
    Queue.push (fun () -> finish result) t.completed;
    Mutex.unlock t.lock;
    set_busy t (-1);
    notify t
  in
  queue_tasks t job 1

let notify_fd t = t.notify_r

let drain_pipe t =
  if t.alive then begin
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read t.notify_r buf 0 64 with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    go ()
  end

(* Take the parked thunks in one swap so finish code that submits new
   jobs (or runs [poll] recursively) cannot deadlock on [lock]. *)
let take_completed t =
  Mutex.lock t.lock;
  let ready = Queue.create () in
  Queue.transfer t.completed ready;
  Mutex.unlock t.lock;
  ready

let poll t =
  Audit.Ownership.check t.owner;
  drain_pipe t;
  let ready = take_completed t in
  let n = Queue.length ready in
  Queue.iter (fun fin -> fin ()) ready;
  n

let wait ?(timeout_s = 0.25) t =
  if t.alive then
    match Unix.select [ t.notify_r ] [] [] timeout_s with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ------------------------------------------------------------------ *)

let shutdown t =
  Audit.Ownership.check t.owner;
  if t.alive then begin
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* workers have drained the whole queue: run the remaining finish
       thunks so no continuation (pin release, response accounting) is
       lost, then tear the pipe down *)
    let ready = take_completed t in
    t.alive <- false;
    (try Unix.close t.notify_r with Unix.Unix_error _ -> ());
    (try Unix.close t.notify_w with Unix.Unix_error _ -> ());
    (* workers are joined: fold their private metric shards into the
       base accumulator so the run's snapshot is lossless *)
    Obs.Metrics.compact_shards ();
    Queue.iter (fun fin -> fin ()) ready
  end

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
