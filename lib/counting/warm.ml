type t = { session : Sat.Bsat.Session.t; known : Known.t }

type table = {
  formula : Cnf.Formula.t;
  workers : (int, t) Hashtbl.t; (* keyed by [Domain.self ()] *)
  lock : Mutex.t; (* guards [workers] only *)
}

let table formula =
  { formula; workers = Hashtbl.create 4; lock = Mutex.create () }

(* The tables a domain has a worker in, held weakly so that a table
   dies with its state. When the domain exits, one hook takes its
   workers out of the tables still alive: domain ids are never reused,
   so no later call could reach them. The weak arrays are only ever
   tested and set before that, never read: reading a dead table that
   the GC has not cleared yet would keep it alive for another cycle. *)
type served = { mutable tables : table Weak.t list }

let served_key =
  Domain.DLS.new_key (fun () ->
      let served = { tables = [] } in
      let id = (Domain.self () :> int) in
      Domain.at_exit (fun () ->
          List.iter
            (fun tables ->
              for i = 0 to Weak.length tables - 1 do
                match Weak.get tables i with
                | Some tbl -> Mutex.protect tbl.lock (fun () -> Hashtbl.remove tbl.workers id)
                | None -> ()
              done)
            served.tables);
      served)

(* Adds [tbl] to the calling domain's tables, in the slot of a dead one
   if there is one, else in a new array as large as all the others. *)
let serve tbl =
  let served = Domain.DLS.get served_key in
  let rec free = function
    | [] -> None
    | tables :: rest ->
        let rec slot i =
          if i = Weak.length tables then free rest
          else if Weak.check tables i then slot (i + 1)
          else Some (tables, i)
        in
        slot 0
  in
  match free served.tables with
  | Some (tables, i) -> Weak.set tables i (Some tbl)
  | None ->
      let size = List.fold_left (fun n tables -> n + Weak.length tables) 8 served.tables in
      let tables = Weak.create size in
      Weak.set tables 0 (Some tbl);
      served.tables <- tables :: served.tables

let mine tbl =
  let id = (Domain.self () :> int) in
  match Mutex.protect tbl.lock (fun () -> Hashtbl.find_opt tbl.workers id) with
  | Some w -> w
  | None ->
      (* only this domain adds under its own id, so the worker can be
         made outside the lock *)
      let w =
        { session = Sat.Bsat.Session.create tbl.formula; known = Known.create tbl.formula }
      in
      Mutex.protect tbl.lock (fun () -> Hashtbl.replace tbl.workers id w);
      serve tbl;
      w

type cell = {
  count : int;
  exhausted : bool;
  solved : Sat.Bsat.outcome option;
  reused : int;
  witnesses : Cnf.Model.t array option;
}

let draw_cell ?deadline ~accept ~limit w xors =
  let known = w.known in
  let members, k = Known.in_cell known ~limit xors in
  (* under audit, every cell decided with cached members is checked
     against a fresh enumeration *)
  let audit ?models decided =
    if k > 0 && Audit.is_enabled () then
      Known.audit_cell ?deadline
        ?models:(Option.map Array.to_list models)
        ~who:"Warm.draw_cell" ~limit ~known:k (Sat.Bsat.Session.formula w.session) xors
        decided
  in
  if k >= limit then begin
    audit (k, false);
    { count = k; exhausted = false; solved = None; reused = 0; witnesses = None }
  end
  else begin
    (* the members whose witness the cache kept are blocked; the rest
       of the cell, members without one included, is enumerated *)
    let reused, rest = List.partition (Known.has_model known) members in
    let j = List.length reused in
    (* the hash layer and the j members' blocking clauses are pushed as
       one retractable group and popped after the call, leaving
       base-formula learnt clauses for the next cell *)
    let out =
      Sat.Bsat.Session.enumerate ?deadline ~xors
        ~known:(List.map (Known.blocking_clause known) reused)
        ~limit:(limit - j) w.session
    in
    (* [members] lists every cached member of the cell, so a model
       found is new unless it is one of [rest] *)
    List.iter
      (fun m ->
        if not (List.exists (fun r -> Known.holds known r m) rest) then Known.add known m)
      out.Sat.Bsat.models;
    let count = j + List.length out.Sat.Bsat.models in
    let exhausted = out.Sat.Bsat.exhausted in
    let cell = { count; exhausted; solved = Some out; reused = j; witnesses = None } in
    if out.Sat.Bsat.timed_out then cell
    else if exhausted && accept count then begin
      let models =
        Array.of_list
          (List.rev_append (List.rev_map (Known.model known) reused) out.Sat.Bsat.models)
      in
      Array.sort Cnf.Model.compare models;
      audit ~models (count, true);
      { cell with witnesses = Some models }
    end
    else begin
      audit (count, exhausted);
      cell
    end
  end
