(* Literals are raw ints throughout the solver: the positive literal of
   variable v is 2v, the negative one 2v + 1 (the Cnf.Lit encoding).
   Variable truth values are coded 1 (true), -1 (false), 0 (unassigned).

   Incremental interface: constraints are tagged with a *group*.
   Group 0 is the base formula; [push_group] opens a new group (a fresh
   activation variable guards its clauses, its XORs go to the group's
   own Gauss matrix) and [pop_group] detaches everything the group
   contributed — its clauses and matrix, every learnt clause whose
   derivation used them, and every level-0 fact that depends on them.
   The dependency tracking is the [assign_group] array: a level-0
   assignment carries the maximum group over its reason constraint and
   the assignments it consumed, so "derived from group >= g" is a
   single integer comparison. *)

type clause = {
  cid : int; (* per-solver id, for audit reports and watch accounting *)
  lits : int array; (* positions 0 and 1 are the watched literals *)
  learnt : bool;
  mutable group : int; (* mutable only for Corrupt.stale_group *)
  mutable activity : float;
  mutable deleted : bool;
}

type reason =
  | No_reason
  | R_clause of clause
  | R_gauss of Gauss.t * int
      (* lazy parity reason: the clause is materialized from the row's
         current contents only when the conflict analyzer asks *)

type conflict =
  | C_clause of clause
  | C_gauss of Gauss.t * int

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  xor_propagations : int;
  restarts : int;
  learnts : int;
}

let stats_zero =
  { conflicts = 0; decisions = 0; propagations = 0; xor_propagations = 0;
    restarts = 0; learnts = 0 }

let stats_add a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    xor_propagations = a.xor_propagations + b.xor_propagations;
    restarts = a.restarts + b.restarts;
    learnts = a.learnts + b.learnts;
  }

let stats_diff a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    xor_propagations = a.xor_propagations - b.xor_propagations;
    restarts = a.restarts - b.restarts;
    learnts = a.learnts - b.learnts;
  }

let dummy_clause =
  { cid = -1; lits = [||]; learnt = false; group = 0; activity = 0.; deleted = true }

type t = {
  mutable nvars : int;
  mutable assigns : int array; (* var -> 1 / -1 / 0 *)
  mutable level : int array; (* var -> decision level of its assignment *)
  mutable reason : reason array; (* var -> why it was assigned *)
  mutable assign_group : int array; (* var -> group a level-0 fact depends on *)
  mutable polarity : bool array; (* var -> saved phase *)
  mutable activity : float array; (* var -> VSIDS score *)
  mutable seen : bool array; (* scratch for conflict analysis *)
  lits_buf : int Vec.t;
      (* scratch for building a clause: normalization, [block] and
         [analyze] each fill it and copy it out before returning *)
  mutable reason_buf : int array; (* lazy Gauss reasons, one slot per variable *)
  mutable reason_len : int; (* literals of the last [reason_lits] / [conflict_lits] *)
  mutable watches : clause Vec.t array; (* lit -> clauses watching it *)
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable matrices : Gauss.t list; (* one Gauss matrix per group with XORs *)
  trail : int Vec.t; (* assigned literals, chronological *)
  trail_lim : int Vec.t; (* trail position at each decision *)
  mutable order : Order_heap.t;
  mutable qhead : int;
  mutable ok : bool;
  mutable broken_by : int;
      (* when [not ok]: smallest group whose removal could restore
         satisfiability of the store; 0 = base formula is unsat. *)
  mutable groups : int list; (* activation variables, innermost first *)
  mutable assumps : int array;
      (* the negated activation variables of [groups], outermost
         first: [solve]'s assumptions, kept by [push_group] and
         [pop_group] *)
  mutable free_act_vars : int list; (* recycled activation variables *)
  mutable lost_units : (int * int) list;
      (* (group, lit) unit facts currently shadowed by a conflicting
         higher-group assignment; re-asserted when that group pops *)
  mutable sat_trail : bool;
      (* the trail is still the full assignment of the last [Sat]:
         [block] is legal *)
  mutable assump_levels : int;
      (* decision levels 1 .. assump_levels of a kept trail hold the
         activation assumptions of the solve that built it, one per
         group *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable model_valid : bool;
  mutable saved_model : Cnf.Model.t option;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_xor_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt_total : int;
  mutable max_learnts : float;
  mutable proof : Drat.step list option; (* reversed; None = disabled *)
  mutable next_cid : int; (* next clause id for audit accounting *)
  owner : Audit.Ownership.t; (* creating domain; checked in audit mode *)
}

let fresh_cid t =
  let id = t.next_cid in
  t.next_cid <- id + 1;
  id

let lit_to_dimacs l = if l land 1 = 0 then l lsr 1 else -(l lsr 1)

(* The proof's literal lists are only built while a proof is on. *)
let dimacs_of lits = Array.fold_right (fun l acc -> lit_to_dimacs l :: acc) lits []

let log_proof t lits =
  match t.proof with
  | None -> ()
  | Some steps -> t.proof <- Some (Drat.Add (dimacs_of lits) :: steps)

(* The empty clause may be derivable before logging was even enabled
   (top-level conflict during clause loading); emit it at most once. *)
let log_proof_empty_once t =
  match t.proof with
  | Some steps when not (List.mem (Drat.Add []) steps) ->
      t.proof <- Some (Drat.Add [] :: steps)
  | _ -> ()

let log_delete t lits =
  match t.proof with
  | None -> ()
  | Some steps ->
      t.proof <- Some (Drat.Delete (dimacs_of lits) :: steps)

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let restart_base = 100

let lit_var l = l lsr 1
let lit_neg l = l lxor 1
let lit_is_pos l = l land 1 = 0
let lit_of_var v positive = (v lsl 1) lor (if positive then 0 else 1)

let value_lit t l =
  let a = t.assigns.(l lsr 1) in
  if l land 1 = 0 then a else -a

(* Truth value of [l] ignoring level-0 assignments that depend on a
   group above [g] — the view a group-[g] constraint must be
   normalized against, since higher groups can pop out from under it.
   Only meaningful at decision level 0. *)
let value_lit_upto t g l =
  let v = l lsr 1 in
  if t.assigns.(v) = 0 || t.assign_group.(v) > g then 0 else value_lit t l

let decision_level t = Vec.size t.trail_lim

let create_empty nvars =
  let activity = Array.make (nvars + 1) 0. in
  let t =
    {
      nvars;
      assigns = Array.make (nvars + 1) 0;
      level = Array.make (nvars + 1) 0;
      reason = Array.make (nvars + 1) No_reason;
      assign_group = Array.make (nvars + 1) 0;
      polarity = Array.make (nvars + 1) false;
      activity;
      seen = Array.make (nvars + 1) false;
      lits_buf = Vec.create ~dummy:0 ();
      reason_buf = Array.make (nvars + 1) 0;
      reason_len = 0;
      watches = Array.init ((2 * nvars) + 2) (fun _ -> Vec.create ~dummy:dummy_clause ());
      clauses = Vec.create ~dummy:dummy_clause ();
      learnts = Vec.create ~dummy:dummy_clause ();
      matrices = [];
      trail = Vec.create ~dummy:0 ();
      trail_lim = Vec.create ~dummy:0 ();
      order = Order_heap.create nvars activity;
      qhead = 0;
      ok = true;
      broken_by = 0;
      groups = [];
      assumps = [||];
      free_act_vars = [];
      lost_units = [];
      sat_trail = false;
      assump_levels = 0;
      var_inc = 1.0;
      cla_inc = 1.0;
      model_valid = false;
      saved_model = None;
      n_conflicts = 0;
      n_decisions = 0;
      n_propagations = 0;
      n_xor_propagations = 0;
      n_restarts = 0;
      n_learnt_total = 0;
      max_learnts = 0.;
      proof = None;
      next_cid = 0;
      owner = Audit.Ownership.create "Solver.t";
    }
  in
  for v = 1 to nvars do
    Order_heap.insert t.order v
  done;
  t

let okay t = t.ok
let num_vars t = t.nvars

let stats t =
  {
    conflicts = t.n_conflicts;
    decisions = t.n_decisions;
    propagations = t.n_propagations;
    xor_propagations = t.n_xor_propagations;
    restarts = t.n_restarts;
    learnts = t.n_learnt_total;
  }

(* ------------------------------------------------------------------ *)
(* Correctness audit                                                   *)

let itos = string_of_int

(* Structured replacement for the old bare [assert (decision_level t = 0)]
   preconditions: always on (they guard API misuse, not internal state),
   but failing with the invariant name and a trail dump. *)
let require_root t fn =
  if Vec.size t.trail_lim <> 0 then
    Audit.fail ~invariant:"root-level-api"
      ~detail:(fn ^ " is only legal at decision level 0")
      [ ("function", fn);
        ("decision_level", itos (Vec.size t.trail_lim));
        ("trail", itos (Vec.size t.trail));
        ("qhead", itos t.qhead) ]

(* Snapshot the solver as the plain-data view the sanitizer checks.
   Audit-only code: linear in the solver state, never on by default. *)
let audit_view t : Audit.State.solver_view =
  let module S = Audit.State in
  let n = t.nvars in
  let clause_view (c : clause) =
    { S.c_id = c.cid; c_lits = Array.copy c.lits; c_learnt = c.learnt; c_group = c.group }
  in
  let clauses =
    Array.append
      (Array.init (Vec.size t.clauses) (fun i -> clause_view (Vec.get t.clauses i)))
      (Array.init (Vec.size t.learnts) (fun i -> clause_view (Vec.get t.learnts i)))
  in
  let watches =
    Array.init ((2 * n) + 2) (fun l ->
        List.rev
          (Vec.fold
             (fun acc (c : clause) ->
               { S.w_id = c.cid; w_deleted = c.deleted; w_group = c.group } :: acc)
             [] t.watches.(l)))
  in
  let reason =
    Array.init (n + 1) (fun v ->
        if v = 0 || t.assigns.(v) = 0 then S.R_none
        else
          match t.reason.(v) with
          | No_reason -> S.R_none
          | R_clause c -> if c.deleted then S.R_dangling else S.R_clause c.cid
          | R_gauss (m, row) ->
              if List.memq m t.matrices && row < Gauss.num_rows m then
                S.R_gauss (Gauss.group m, row)
              else S.R_dangling)
  in
  let matrices =
    List.map
      (fun m ->
        { S.g_group = Gauss.group m;
          g_dirty = Gauss.is_dirty m;
          g_rows =
            Array.map
              (fun (r : Gauss.row_dump) ->
                { S.g_vars = r.d_vars; g_rhs = r.d_rhs; g_active = r.d_active;
                  g_basic = r.d_basic; g_w1 = r.d_w1; g_w2 = r.d_w2 })
              (Gauss.dump m);
          g_watchers = Gauss.watcher_dump m })
      t.matrices
  in
  let heap, heap_index = Order_heap.snapshot t.order in
  let vec_view name v = { S.v_name = name; v_size = Vec.size v; v_capacity = Vec.capacity v } in
  let vecs =
    let acc =
      ref
        [ vec_view "clauses" t.clauses;
          vec_view "learnts" t.learnts;
          vec_view "trail" t.trail;
          vec_view "trail_lim" t.trail_lim ]
    in
    for l = 0 to (2 * n) + 1 do
      acc := vec_view "watches" t.watches.(l) :: !acc
    done;
    !acc
  in
  { S.nvars = n;
    ok = t.ok;
    broken_by = t.broken_by;
    num_groups = List.length t.groups;
    decision_level = Vec.size t.trail_lim;
    qhead = t.qhead;
    at_fixpoint = t.qhead = Vec.size t.trail;
    assigns = Array.sub t.assigns 0 (n + 1);
    level = Array.sub t.level 0 (n + 1);
    assign_group = Array.sub t.assign_group 0 (n + 1);
    reason;
    trail = Array.init (Vec.size t.trail) (Vec.get t.trail);
    trail_lim = Array.init (Vec.size t.trail_lim) (Vec.get t.trail_lim);
    clauses;
    matrices;
    watches;
    heap;
    heap_index = Array.sub heap_index 0 (n + 1);
    activity = Array.sub t.activity 0 (n + 1);
    lost_unit_groups = List.map fst t.lost_units;
    vecs }

let check_invariants t =
  Audit.Ownership.check t.owner;
  Audit.Solver_invariants.check (audit_view t)

(* Sampled sweep for hot paths (the search loop's propagation
   fixpoints): free when audit mode is off. *)
let maybe_audit t = if Audit.tick () then check_invariants t

(* Model auditing runs on every Sat (not sampled), so it avoids the
   full view construction: direct evaluation over the attached store. *)
let audit_model t =
  match (t.model_valid, t.saved_model) with
  | true, Some m ->
      let value v = Cnf.Model.value m v in
      (* width-1 clauses are absorbed into level-0 trail facts rather
         than stored, so the root trail is part of the clause set *)
      let root_end =
        if Vec.size t.trail_lim = 0 then Vec.size t.trail
        else Vec.get t.trail_lim 0
      in
      for i = 0 to root_end - 1 do
        let l = Vec.get t.trail i in
        if value (lit_var l) <> lit_is_pos l then
          Audit.fail ~invariant:"model-audit"
            ~detail:"returned model contradicts a level-0 fact"
            [ ("lit", itos l); ("var", itos (lit_var l));
              ("trail_pos", itos i) ]
      done;
      let check_clause (c : clause) =
        if not (Array.exists (fun l -> value (lit_var l) = lit_is_pos l) c.lits) then
          Audit.fail ~invariant:"model-audit"
            ~detail:"returned model falsifies an attached clause"
            [ ("clause", itos c.cid);
              ("learnt", string_of_bool c.learnt);
              ("group", itos c.group);
              ("lits", String.concat " " (Array.to_list (Array.map itos c.lits))) ]
      in
      Vec.iter check_clause t.clauses;
      Vec.iter check_clause t.learnts;
      List.iter
        (fun m ->
          Array.iteri
            (fun row (r : Gauss.row_dump) ->
              let parity =
                Array.fold_left (fun p v -> if value v then not p else p) false r.d_vars
              in
              if parity <> r.d_rhs then
                Audit.fail ~invariant:"model-audit"
                  ~detail:"returned model violates a Gauss matrix row's parity"
                  [ ("matrix_group", itos (Gauss.group m));
                    ("row", itos row);
                    ("vars", String.concat " " (Array.to_list (Array.map itos r.d_vars))) ])
            (Gauss.dump m))
        t.matrices
  | _ -> invalid_arg "Solver.audit_model: last solve was not Sat"

(* Group hygiene is cheap enough to verify after every pop without
   building the full view: one linear scan of the attached store. *)
let check_group_hygiene_light t =
  let ng = List.length t.groups in
  let bad g = g > ng || g < 0 in
  let check_clause (c : clause) =
    if bad c.group then
      Audit.fail ~invariant:"group-hygiene"
        ~detail:"live clause is tagged with a retracted or unknown group"
        [ ("clause", itos c.cid);
          ("group", itos c.group);
          ("num_groups", itos ng);
          ("learnt", string_of_bool c.learnt) ]
  in
  Vec.iter check_clause t.clauses;
  Vec.iter check_clause t.learnts;
  List.iter
    (fun m ->
      if bad (Gauss.group m) then
        Audit.fail ~invariant:"group-hygiene"
          ~detail:"live Gauss matrix is tagged with a retracted or unknown group"
          [ ("matrix_group", itos (Gauss.group m)); ("num_groups", itos ng) ])
    t.matrices;
  for v = 1 to t.nvars do
    if t.assigns.(v) <> 0 && t.level.(v) = 0 && bad t.assign_group.(v) then
      Audit.fail ~invariant:"group-hygiene"
        ~detail:"level-0 assignment is tagged with a retracted or unknown group"
        [ ("var", itos v); ("group", itos t.assign_group.(v)); ("num_groups", itos ng) ]
  done;
  List.iter
    (fun (g, l) ->
      if bad g then
        Audit.fail ~invariant:"group-hygiene"
          ~detail:"lost-unit ledger references a retracted or unknown group"
          [ ("group", itos g); ("lit", itos l); ("num_groups", itos ng) ])
    t.lost_units

(* ------------------------------------------------------------------ *)
(* Variable growth (activation variables)                              *)

let grow t newcap =
  let old = Array.length t.assigns - 1 in
  if newcap > old then begin
    let cap = max newcap (2 * old) in
    let copy_int a = let b = Array.make (cap + 1) 0 in Array.blit a 0 b 0 (old + 1); b in
    t.assigns <- copy_int t.assigns;
    t.level <- copy_int t.level;
    t.assign_group <- copy_int t.assign_group;
    let reason = Array.make (cap + 1) No_reason in
    Array.blit t.reason 0 reason 0 (old + 1);
    t.reason <- reason;
    let polarity = Array.make (cap + 1) false in
    Array.blit t.polarity 0 polarity 0 (old + 1);
    t.polarity <- polarity;
    let seen = Array.make (cap + 1) false in
    Array.blit t.seen 0 seen 0 (old + 1);
    t.seen <- seen;
    t.reason_buf <- Array.make (cap + 1) 0;
    let activity = Array.make (cap + 1) 0. in
    Array.blit t.activity 0 activity 0 (old + 1);
    t.activity <- activity;
    t.watches <-
      Array.init ((2 * cap) + 2) (fun i ->
          if i < Array.length t.watches then t.watches.(i)
          else Vec.create ~dummy:dummy_clause ());
    (* the heap holds a reference to the activity array: rebuild it *)
    let order = Order_heap.create cap t.activity in
    for v = 1 to t.nvars do
      if t.assigns.(v) = 0 then Order_heap.insert order v
    done;
    t.order <- order
  end

let alloc_var t =
  let v = t.nvars + 1 in
  grow t v;
  t.nvars <- v;
  Order_heap.insert t.order v;
  v

(* ------------------------------------------------------------------ *)
(* Activity                                                            *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 1 to t.nvars do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Order_heap.update t.order v

let var_decay_all t = t.var_inc <- t.var_inc *. var_decay

let clause_bump t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (cl : clause) -> cl.activity <- cl.activity *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_all t = t.cla_inc <- t.cla_inc *. clause_decay

(* ------------------------------------------------------------------ *)
(* Assignment management                                               *)

let enqueue ?(agroup = 0) t l reason =
  match value_lit t l with
  | 1 -> true
  | -1 -> false
  | _ ->
      let v = lit_var l in
      t.assigns.(v) <- (if lit_is_pos l then 1 else -1);
      t.level.(v) <- decision_level t;
      t.reason.(v) <- reason;
      if decision_level t = 0 then begin
        let g =
          match reason with
          | No_reason -> agroup
          | R_clause c ->
              Array.fold_left
                (fun acc q ->
                  let u = lit_var q in
                  if u = v then acc else max acc t.assign_group.(u))
                c.group c.lits
          | R_gauss (m, row) ->
              Array.fold_left
                (fun acc u -> if u = v then acc else max acc t.assign_group.(u))
                (Gauss.group m)
                (Gauss.row_vars m ~row)
        in
        t.assign_group.(v) <- g
      end;
      Vec.push t.trail l;
      true

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = lit_var l in
      t.polarity.(v) <- lit_is_pos l;
      t.assigns.(v) <- 0;
      t.reason.(v) <- No_reason;
      Order_heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail;
    (* re-activate Gauss rows detached above the new trail bound; the
       matrices repair themselves at the next propagation *)
    List.iter (fun m -> Gauss.cancel_to m ~trail_size:bound) t.matrices
  end

(* A [Sat] leaves its trail in place for [block] to resume from; every
   other entry point first returns to the root, so it sees the solver
   exactly as a [solve] that backtracked on return would leave it. *)
let to_root t =
  cancel_until t 0;
  t.sat_trail <- false

(* ------------------------------------------------------------------ *)
(* Gauss engine glue                                                   *)

let gauss_enqueue t m lit row =
  t.n_xor_propagations <- t.n_xor_propagations + 1;
  ignore (enqueue t lit (R_gauss (m, row)))

let matrix_for t g =
  match List.find_opt (fun m -> Gauss.group m = g) t.matrices with
  | Some m -> m
  | None ->
      let m =
        Gauss.create ~group:g
          ~trail_size:(fun () -> Vec.size t.trail)
          ~enqueue:(fun m lit row -> gauss_enqueue t m lit row)
      in
      t.matrices <- m :: t.matrices;
      m

(* ------------------------------------------------------------------ *)
(* Clause attachment                                                   *)

let attach_clause t c =
  Vec.push t.watches.(c.lits.(0)) c;
  Vec.push t.watches.(c.lits.(1)) c

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)

exception Found_conflict of conflict

let propagate_clauses t p =
  (* [p] just became true: visit clauses watching ¬p. *)
  let false_lit = lit_neg p in
  let ws = t.watches.(false_lit) in
  (* [i] reads, [j] writes the kept watches back; until the first
     watch moves away they coincide, and a kept watch that stays at
     its own index needs no (write-barriered) store *)
  let i = ref 0 and j = ref 0 in
  let n = Vec.size ws in
  (try
     while !i < n do
       let c = Vec.get ws !i in
       incr i;
       if c.deleted then () (* drop lazily *)
       else begin
         let lits = c.lits in
         if lits.(0) = false_lit then begin
           lits.(0) <- lits.(1);
           lits.(1) <- false_lit
         end;
         if value_lit t lits.(0) = 1 then begin
           if !j < !i - 1 then Vec.set ws !j c;
           incr j
         end
         else begin
           (* look for a new literal to watch *)
           let len = Array.length lits in
           let k = ref 2 in
           while !k < len && value_lit t lits.(!k) = -1 do
             incr k
           done;
           if !k < len then begin
             lits.(1) <- lits.(!k);
             lits.(!k) <- false_lit;
             Vec.push t.watches.(lits.(1)) c
             (* not kept in this watch list *)
           end
           else begin
             (* unit or conflicting *)
             if !j < !i - 1 then Vec.set ws !j c;
             incr j;
             if value_lit t lits.(0) = -1 then begin
               (* keep the remaining watches before failing *)
               if !j < !i then
                 while !i < n do
                   Vec.set ws !j (Vec.get ws !i);
                   incr i;
                   incr j
                 done
               else j := n;
               Vec.shrink ws !j;
               raise (Found_conflict (C_clause c))
             end
             else ignore (enqueue t lits.(0) (R_clause c))
           end
         end
       end
     done;
     Vec.shrink ws !j
   with Found_conflict _ as e -> raise e)

(* [v] was just assigned: every matrix, in list order, processes the
   rows watching it. Top-level loops over [t.matrices], so the
   per-assignment path builds no closure. *)
let rec propagate_gauss t v = function
  | [] -> ()
  | m :: rest ->
      let row = Gauss.on_assign m ~assigns:t.assigns ~var:v in
      if row >= 0 then raise (Found_conflict (C_gauss (m, row)));
      propagate_gauss t v rest

(* Dirty matrices (after a backtrack, a group pop, or a Gauss
   conflict) re-establish their invariant before the queue drains. *)
let rec repair_gauss t = function
  | [] -> ()
  | m :: rest ->
      if Gauss.is_dirty m then begin
        let row = Gauss.repair m ~assigns:t.assigns in
        if row >= 0 then raise (Found_conflict (C_gauss (m, row)))
      end;
      repair_gauss t rest

let propagate t =
  try
    repair_gauss t t.matrices;
    while t.qhead < Vec.size t.trail do
      let p = Vec.get t.trail t.qhead in
      t.qhead <- t.qhead + 1;
      t.n_propagations <- t.n_propagations + 1;
      propagate_clauses t p;
      propagate_gauss t (lit_var p) t.matrices
    done;
    None
  with Found_conflict c ->
    t.qhead <- Vec.size t.trail;
    Some c

(* ------------------------------------------------------------------ *)
(* Group accounting                                                    *)

(* Smallest group whose removal dissolves a level-0 conflict: the
   constraint's own group joined with the groups of the level-0 facts
   that falsify it. Only valid when every variable of the conflicting
   constraint is assigned at level 0. *)
let conflict_group_of t = function
  | C_clause c ->
      Array.fold_left
        (fun acc l -> max acc t.assign_group.(lit_var l))
        c.group c.lits
  | C_gauss (m, row) ->
      Array.fold_left
        (fun acc v -> max acc t.assign_group.(v))
        (Gauss.group m)
        (Gauss.row_vars m ~row)

let mark_broken t g =
  if t.ok then begin
    t.ok <- false;
    t.broken_by <- g
  end
  else t.broken_by <- min t.broken_by g;
  if t.broken_by = 0 then log_proof_empty_once t

let propagate_or_break t =
  match propagate t with
  | None -> ()
  | Some confl -> mark_broken t (conflict_group_of t confl)

(* ------------------------------------------------------------------ *)
(* Reasons as literal arrays (for conflict analysis)                   *)

(* Both return an array whose first [t.reason_len] slots are the
   literals: a clause's own array, or a Gauss row's literals filled
   into [t.reason_buf], which the next call overwrites. *)
let conflict_lits t = function
  | C_clause c ->
      t.reason_len <- Array.length c.lits;
      c.lits
  | C_gauss (m, row) ->
      t.reason_len <- Gauss.conflict_into m ~assigns:t.assigns ~row t.reason_buf;
      t.reason_buf

let reason_lits t v =
  match t.reason.(v) with
  | No_reason -> invalid_arg "Solver.reason_lits: decision variable"
  | R_clause c ->
      (* invariant: c.lits.(0) is the implied literal *)
      t.reason_len <- Array.length c.lits;
      c.lits
  | R_gauss (m, row) ->
      let implied = lit_of_var v (t.assigns.(v) = 1) in
      t.reason_len <- Gauss.reason_into m ~assigns:t.assigns ~row ~implied t.reason_buf;
      t.reason_buf

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP) with simple clause minimization       *)

(* Returns (learnt clause, backtrack level, group). The clause holds
   the asserting literal first, then the kept literals in the reverse
   of the order analysis met them. [group] is the maximum group over
   every constraint and level-0 fact consumed by the derivation — the
   group the learnt clause belongs to, so that popping any
   contributing group purges it. *)
let analyze t confl =
  let learnt = t.lits_buf in
  Vec.clear learnt;
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size t.trail - 1) in
  let current = decision_level t in
  let dgroup =
    ref
      (match confl with
      | C_clause c -> c.group
      | C_gauss (m, _) -> Gauss.group m)
  in
  let fold_reason_group = function
    | No_reason -> ()
    | R_clause c -> dgroup := max !dgroup c.group
    | R_gauss (m, _) -> dgroup := max !dgroup (Gauss.group m)
  in
  (match confl with
  | C_clause c when c.learnt -> clause_bump t c
  | _ -> ());
  let process_lits lits start =
    for k = start to t.reason_len - 1 do
      let q = lits.(k) in
      let v = lit_var q in
      if t.level.(v) = 0 then
        (* resolved away against a level-0 fact: the derivation now
           depends on that fact's group *)
        dgroup := max !dgroup t.assign_group.(v)
      else if not t.seen.(v) then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.level.(v) >= current then incr counter
        else Vec.push learnt q
      end
    done
  in
  process_lits (conflict_lits t confl) 0;
  let continue = ref true in
  while !continue do
    (* find the next seen literal on the trail *)
    while not t.seen.(lit_var (Vec.get t.trail !index)) do
      decr index
    done;
    let lit = Vec.get t.trail !index in
    decr index;
    let v = lit_var lit in
    t.seen.(v) <- false;
    decr counter;
    if !counter = 0 then begin
      p := lit;
      continue := false
    end
    else begin
      (match t.reason.(v) with
      | R_clause c when c.learnt -> clause_bump t c
      | _ -> ());
      fold_reason_group t.reason.(v);
      process_lits (reason_lits t v) 1
    end
  done;
  let asserting = lit_neg !p in
  (* simple minimization: a literal is redundant if its reason is fully
     subsumed by the other literals of the learnt clause *)
  let n = Vec.size learnt in
  for i = 0 to n - 1 do
    t.seen.(lit_var (Vec.get learnt i)) <- true
  done;
  let redundant q =
    let v = lit_var q in
    match t.reason.(v) with
    | No_reason -> false
    | r ->
        let lits = reason_lits t v in
        let len = t.reason_len in
        let ok = ref true in
        for k = 1 to len - 1 do
          let u = lit_var lits.(k) in
          if t.level.(u) > 0 && not t.seen.(u) then ok := false
        done;
        if !ok then begin
          (* the dropped literal's reason joins the derivation *)
          fold_reason_group r;
          for k = 1 to len - 1 do
            let u = lit_var lits.(k) in
            if t.level.(u) = 0 then dgroup := max !dgroup t.assign_group.(u)
          done
        end;
        !ok
  in
  (* test the literals last met first, and partition in place: kept
     ones gather at the top in the order met, dropped ones stay below,
     where their seen flags are still cleared *)
  let top = ref n in
  for i = n - 1 downto 0 do
    let q = Vec.get learnt i in
    if not (redundant q) then begin
      decr top;
      Vec.set learnt i (Vec.get learnt !top);
      Vec.set learnt !top q
    end
  done;
  let lits = Array.make (1 + n - !top) asserting in
  (* backtrack level = max level among kept literals *)
  let blevel = ref 0 in
  for k = 1 to n - !top do
    let q = Vec.get learnt (n - k) in
    lits.(k) <- q;
    blevel := max !blevel t.level.(lit_var q)
  done;
  for i = 0 to n - 1 do
    t.seen.(lit_var (Vec.get learnt i)) <- false
  done;
  (lits, !blevel, !dgroup)

(* ------------------------------------------------------------------ *)
(* Learnt clause recording                                             *)

let record_learnt t ~group lits blevel =
  log_proof t lits;
  t.n_learnt_total <- t.n_learnt_total + 1;
  cancel_until t blevel;
  let asserting = lits.(0) in
  if Array.length lits = 1 then begin
    (* unit learnt: asserting at level 0 *)
    if not (enqueue ~agroup:group t asserting No_reason) then
      mark_broken t (max group t.assign_group.(lit_var asserting))
  end
  else begin
    (* place a literal of the backtrack level in watch position 1 *)
    let best = ref 1 in
    for k = 2 to Array.length lits - 1 do
      if t.level.(lit_var lits.(k)) > t.level.(lit_var lits.(!best)) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    let c = { cid = fresh_cid t; lits; learnt = true; group; activity = 0.; deleted = false } in
    clause_bump t c;
    attach_clause t c;
    Vec.push t.learnts c;
    ignore (enqueue t asserting (R_clause c))
  end

(* ------------------------------------------------------------------ *)
(* Learnt database reduction                                           *)

let is_reason t c =
  Array.length c.lits > 0
  &&
  let v = lit_var c.lits.(0) in
  t.assigns.(v) <> 0
  && (match t.reason.(v) with R_clause c' -> c' == c | _ -> false)

let reduce_db t =
  Vec.sort (fun (a : clause) (b : clause) -> Float.compare a.activity b.activity) t.learnts;
  let n = Vec.size t.learnts in
  let limit = n / 2 in
  let removed = ref 0 in
  for i = 0 to n - 1 do
    let c = Vec.get t.learnts i in
    if
      !removed < limit
      && Array.length c.lits > 2
      && not (is_reason t c)
    then begin
      c.deleted <- true;
      log_delete t c.lits;
      incr removed
    end
  done;
  Vec.filter_in_place (fun c -> not c.deleted) t.learnts
(* deleted clauses are skipped and dropped lazily during propagation *)

(* ------------------------------------------------------------------ *)
(* Adding constraints (decision level 0 only)                          *)

(* Assert the unit fact [l] belonging to [group], against the full
   current level-0 state. Unit facts have no clause object: the trail
   entry (with its [assign_group] tag) IS the storage, so the cases
   where the current state hides the fact need care. *)
let assert_unit_core t ~group l =
  match value_lit t l with
  | 1 ->
      (* already true — possibly via a higher group, in which case the
         fact must be re-tagged or it would vanish with that group *)
      let v = lit_var l in
      if t.assign_group.(v) > group then begin
        t.assign_group.(v) <- group;
        t.reason.(v) <- No_reason
      end
  | -1 ->
      (* falsified by a higher-group assignment (same-or-lower-group
         falsity was substituted away by the caller): conflict, and the
         fact itself must survive that group's pop *)
      let fg = t.assign_group.(lit_var l) in
      if fg > group then t.lost_units <- (group, l) :: t.lost_units;
      mark_broken t (max group fg)
  | _ ->
      ignore (enqueue ~agroup:group t l No_reason);
      if t.ok then propagate_or_break t

(* Install a clause of >= 2 literals, none of which is satisfied or
   falsified by assignments of groups <= c.group; higher-group level-0
   assignments may still touch it, so repair the watch invariant
   against the full state and propagate if it is unit. *)
let install_clause t c =
  let lits = c.lits in
  let len = Array.length lits in
  let nf = ref 0 in
  (try
     for k = 0 to len - 1 do
       if value_lit t lits.(k) <> -1 then begin
         let tmp = lits.(!nf) in
         lits.(!nf) <- lits.(k);
         lits.(k) <- tmp;
         incr nf;
         if !nf = 2 then raise Exit
       end
     done
   with Exit -> ());
  attach_clause t c;
  Vec.push t.clauses c;
  if !nf = 0 then
    (* all literals false under the full state: conflict attributable
       to the falsifying groups; the clause stays attached so that
       re-propagation after a pop revives it *)
    mark_broken t (conflict_group_of t (C_clause c))
  else if !nf = 1 && value_lit t lits.(0) = 0 then begin
    ignore (enqueue t lits.(0) (R_clause c));
    if t.ok then propagate_or_break t
  end

(* [c]'s literals in ascending order: [c] itself when its variables
   strictly ascend, as S-projections do, else a sorted copy. Short
   clauses, the common case, get an insertion sort: [Array.sort]
   allocates as it sifts. *)
let ascending (c : Cnf.Clause.t) =
  let rec strict i =
    i >= Array.length c || ((c.(i - 1) :> int) lsr 1 < (c.(i) :> int) lsr 1 && strict (i + 1))
  in
  if strict 1 then c
  else begin
    let s = Array.copy c in
    if Array.length s > 16 then Array.sort Cnf.Lit.compare s
    else
      for i = 1 to Array.length s - 1 do
        let l = s.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && (s.(!j) :> int) > (l :> int) do
          s.(!j + 1) <- s.(!j);
          decr j
        done;
        s.(!j + 1) <- l
      done;
    s
  end

(* Normalize [c] for insertion into [group], building its literal
   array in one pass over the sorted literals: repeats and the
   literals false under level-0 facts of groups <= [group] are
   dropped, and the [guard] literal (-1 = none) goes last. [None] =
   the clause is satisfied by such a fact, or is a tautology ([l] and
   [l lxor 1] sit side by side once sorted). *)
let normalize t ~group ~guard (c : Cnf.Clause.t) =
  let a = ascending c in
  let buf = t.lits_buf in
  Vec.clear buf;
  let rec scan i prev =
    i >= Array.length a
    ||
    let l = (a.(i) :> int) in
    if l = prev then scan (i + 1) prev
    else if l = prev lxor 1 then false
    else
      match value_lit_upto t group l with
      | 1 -> false
      | -1 -> scan (i + 1) l
      | _ ->
          Vec.push buf l;
          scan (i + 1) l
  in
  if scan 0 (-2) then begin
    if guard >= 0 then Vec.push buf guard;
    Some (Vec.to_array buf)
  end
  else None

(* The innermost group's guard: the positive literal of its
   activation variable, or -1 without a group. *)
let guard_lit t = match t.groups with [] -> -1 | a :: _ -> lit_of_var a true

(* Whether a constraint of [group] must be stored: it may be skipped
   only while a group at or below its own makes the store unsat. When
   a higher group broke it, popping that group makes it live again. *)
let stores t group = t.ok || group < t.broken_by

(* Insert the clause [c] into [group] at the root, with the [guard]
   literal (-1 = none, and then the group is 0) appended after
   normalization. *)
let insert_clause t ~group ~guard c =
  if stores t group then
    match normalize t ~group ~guard c with
    | None -> ()
    | Some [||] -> mark_broken t 0
    | Some [| l |] ->
        (* a unit: the one literal left, or the guard when the clause
           body is false given groups <= group — solving under the
           activation assumption then reports Unsat through the
           assumption-conflict path *)
        assert_unit_core t ~group l
    | Some lits ->
        install_clause t
          { cid = fresh_cid t; lits; learnt = false; group; activity = 0.; deleted = false }

let add_clause t c =
  to_root t;
  require_root t "Solver.add_clause";
  Audit.Ownership.check t.owner;
  insert_clause t ~group:0 ~guard:(-1) c

let add_xor_general t ~group (x : Cnf.Xor_clause.t) =
  if stores t group then begin
    (* substitute level-0 facts of groups <= [group] *)
    let rhs = ref x.rhs in
    let vars =
      Array.to_list x.vars
      |> List.filter (fun v ->
             if t.assigns.(v) <> 0 && t.assign_group.(v) <= group then begin
               if t.assigns.(v) = 1 then rhs := not !rhs;
               false
             end
             else true)
    in
    match vars with
    | [] -> if !rhs then mark_broken t group
    | [ v ] -> assert_unit_core t ~group (lit_of_var v !rhs)
    | _ ->
        let m = matrix_for t group in
        let row = Gauss.add_row m ~assigns:t.assigns ~vars ~rhs:!rhs in
        if row >= 0 then mark_broken t (conflict_group_of t (C_gauss (m, row)))
        else if t.ok then propagate_or_break t
  end

let add_xor t (x : Cnf.Xor_clause.t) =
  to_root t;
  require_root t "Solver.add_xor";
  Audit.Ownership.check t.owner;
  if t.proof <> None then
    invalid_arg "Solver.add_xor: proof logging excludes XOR constraints";
  add_xor_general t ~group:0 x

let create (f : Cnf.Formula.t) =
  let t = create_empty f.num_vars in
  Array.iter (add_clause t) f.clauses;
  Array.iter (fun x -> add_xor t x) f.xors;
  t

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)

let push_group t =
  to_root t;
  require_root t "Solver.push_group";
  Audit.Ownership.check t.owner;
  if t.proof <> None then
    invalid_arg "Solver.push_group: proof logging excludes groups";
  let a =
    match t.free_act_vars with
    | v :: rest ->
        t.free_act_vars <- rest;
        v
    | [] -> alloc_var t
  in
  t.groups <- a :: t.groups;
  t.assumps <- Array.append t.assumps [| lit_of_var a false |]

let add_group_clause t c =
  to_root t;
  require_root t "Solver.add_group_clause";
  if t.groups = [] then invalid_arg "Solver.add_group_clause: no group pushed";
  insert_clause t ~group:(List.length t.groups) ~guard:(guard_lit t) c

let add_group_xor t (x : Cnf.Xor_clause.t) =
  to_root t;
  require_root t "Solver.add_group_xor";
  match t.groups with
  | [] -> invalid_arg "Solver.add_group_xor: no group pushed"
  | _ :: _ -> add_xor_general t ~group:(List.length t.groups) x

let pop_group t =
  to_root t;
  require_root t "Solver.pop_group";
  Audit.Ownership.check t.owner;
  match t.groups with
  | [] -> invalid_arg "Solver.pop_group: no group pushed"
  | a :: rest ->
      let g = List.length t.groups in
      t.groups <- rest;
      t.assumps <- Array.sub t.assumps 0 (g - 1);
      (* detach the group's constraints and every learnt clause whose
         derivation used them (group tags are monotone through
         resolution, so a single comparison suffices) *)
      Vec.iter (fun (c : clause) -> if c.group >= g then c.deleted <- true) t.clauses;
      Vec.filter_in_place (fun (c : clause) -> not c.deleted) t.clauses;
      Vec.iter (fun (c : clause) -> if c.group >= g then c.deleted <- true) t.learnts;
      Vec.filter_in_place (fun (c : clause) -> not c.deleted) t.learnts;
      (* the popped group's matrix goes wholesale; survivors lose their
         trail-based detach marks (the trail is about to be filtered and
         re-propagated from qhead = 0), so they rebuild at next repair *)
      t.matrices <-
        List.filter
          (fun m ->
            if Gauss.group m >= g then begin
              Gauss.drop m;
              false
            end
            else begin
              Gauss.reset m;
              true
            end)
          t.matrices;
      (* drop level-0 facts that depended on the group. Surviving
         facts implied by a Gauss row lose that reason: the reset
         matrices replay their rows, and a level-0 fact is never
         resolved on (conflict analysis reads its group instead) *)
      Vec.filter_in_place
        (fun l ->
          let v = lit_var l in
          if t.assign_group.(v) >= g then begin
            t.polarity.(v) <- lit_is_pos l;
            t.assigns.(v) <- 0;
            t.reason.(v) <- No_reason;
            Order_heap.insert t.order v;
            false
          end
          else begin
            (match t.reason.(v) with
            | R_gauss _ -> t.reason.(v) <- No_reason
            | _ -> ());
            true
          end)
        t.trail;
      t.qhead <- 0;
      t.free_act_vars <- a :: t.free_act_vars;
      if (not t.ok) && t.broken_by >= g then begin
        t.ok <- true;
        t.broken_by <- 0
      end;
      (* revive unit facts that were shadowed by the popped group *)
      let revive, keep =
        List.partition (fun (g0, _) -> g0 < g) t.lost_units
      in
      t.lost_units <- keep;
      (if t.ok then begin
         List.iter (fun (g0, l) -> if t.ok then assert_unit_core t ~group:g0 l) revive;
         if t.ok then propagate_or_break t
       end
       else
         (* still broken by a lower group: keep the units pending *)
         t.lost_units <- revive @ t.lost_units);
      (* group hygiene is exactly what a pop can break: scan it after
         every pop; the full (expensive) sweep is sampled *)
      if Audit.is_enabled () then begin
        check_group_hygiene_light t;
        if Audit.tick () then check_invariants t
      end

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* The unassigned variable of highest activity, or [-1]. *)
let rec pick_branch_var t =
  let v = Order_heap.pop_max t.order in
  if v < 0 || t.assigns.(v) = 0 then v else pick_branch_var t

type search_outcome = S_sat | S_unsat | S_assump_failed | S_restart | S_timeout

let search t ~assumps ~budget ~deadline =
  let local_conflicts = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    match propagate t with
    | Some confl ->
        t.n_conflicts <- t.n_conflicts + 1;
        incr local_conflicts;
        if decision_level t = 0 then begin
          mark_broken t (conflict_group_of t confl);
          outcome := Some S_unsat
        end
        else begin
          let lits, blevel, dgroup = analyze t confl in
          record_learnt t ~group:dgroup lits blevel;
          if not t.ok then outcome := Some S_unsat
          else begin
            var_decay_all t;
            clause_decay_all t
          end
        end
    | None ->
        maybe_audit t;
        if !local_conflicts >= budget then begin
          cancel_until t 0;
          outcome := Some S_restart
        end
        else if
          (match deadline with
          | Some d -> t.n_decisions land 255 = 0 && Unix.gettimeofday () > d
          | None -> false)
        then begin
          cancel_until t 0;
          outcome := Some S_timeout
        end
        else begin
          if float_of_int (Vec.size t.learnts) > t.max_learnts then reduce_db t;
          let dl = decision_level t in
          if dl < Array.length assumps then begin
            (* establish the next assumption before branching *)
            let p = assumps.(dl) in
            match value_lit t p with
            | 1 ->
                (* already true: open a dummy level so the indexing
                   assumption-level <-> decision-level stays aligned *)
                Vec.push t.trail_lim (Vec.size t.trail)
            | -1 -> outcome := Some S_assump_failed
            | _ ->
                t.n_decisions <- t.n_decisions + 1;
                Vec.push t.trail_lim (Vec.size t.trail);
                ignore (enqueue t p No_reason)
          end
          else
            let v = pick_branch_var t in
            if v < 0 then outcome := Some S_sat
            else begin
              t.n_decisions <- t.n_decisions + 1;
              Vec.push t.trail_lim (Vec.size t.trail);
              ignore (enqueue t (lit_of_var v t.polarity.(v)) No_reason)
            end
        end
  done;
  match !outcome with
  | Some o -> o
  | None ->
      Audit.fail ~invariant:"search-outcome"
        ~detail:"search loop exited without recording an outcome"
        [ ("decision_level", itos (decision_level t));
          ("trail", itos (Vec.size t.trail));
          ("conflicts", itos t.n_conflicts) ]

let c_solve_calls = Obs.Metrics.counter "solver.solve_calls"

(* [solve] resumes from the trail a [Sat] or a [block] left: the
   levels below it are a propagated prefix of the last model under the
   same activation assumptions (every group change returns to the root
   first), so the search continues from there. A conflict at a resumed
   level is an ordinary search conflict.
   [solve] opens no span: it runs once per witness, so its callers
   trace a whole run of calls (one enumeration) as one [solver.solve]
   span, and the counter keeps the number of calls. *)
let solve ?(conflict_limit = max_int) ?deadline t =
  Obs.Metrics.incr c_solve_calls;
  t.sat_trail <- false;
  Audit.Ownership.check t.owner;
  maybe_audit t;
  t.model_valid <- false;
  if not t.ok then begin
    if t.broken_by = 0 then log_proof_empty_once t;
    Unsat
  end
  else begin
    let assumps = t.assumps in
    t.assump_levels <- Array.length assumps;
    match if decision_level t = 0 then propagate t else None with
    | Some confl ->
        mark_broken t (conflict_group_of t confl);
        Unsat
    | None ->
        t.max_learnts <-
          max 1000. (float_of_int (Vec.size t.clauses) /. 3.);
        let start_conflicts = t.n_conflicts in
        let rec run i =
          if t.n_conflicts - start_conflicts >= conflict_limit then begin
            cancel_until t 0;
            Unknown
          end
          else begin
            let budget = Luby.budget ~base:restart_base i in
            match search t ~assumps ~budget ~deadline with
            | S_sat ->
                let m =
                  Cnf.Model.make t.nvars (fun v -> t.assigns.(v) = 1)
                in
                t.saved_model <- Some m;
                t.model_valid <- true;
                if Audit.is_enabled () then begin
                  if Audit.tick () then check_invariants t;
                  audit_model t
                end;
                t.sat_trail <- true;
                t.max_learnts <- t.max_learnts *. 1.1;
                Sat
            | S_unsat -> Unsat (* ok / broken_by already recorded *)
            | S_assump_failed ->
                cancel_until t 0;
                Unsat
            | S_timeout -> Unknown
            | S_restart ->
                t.n_restarts <- t.n_restarts + 1;
                run (i + 1)
          end
        in
        run 1
  end

let model t =
  match (t.model_valid, t.saved_model) with
  | true, Some m -> m
  | _ -> invalid_arg "Solver.model: last solve was not Sat"

(* The blocking clause of an enumeration step, installed the way a
   learnt clause is: backjump to the second-deepest level among its
   literals and let the deepest one become the clause's implication,
   so the next [solve] resumes there instead of re-descending from the
   root. *)
let block t (c : Cnf.Clause.t) =
  Audit.Ownership.check t.owner;
  if not t.sat_trail then
    Audit.fail ~invariant:"block-after-sat"
      ~detail:"Solver.block is only legal right after solve returned Sat"
      [ ("decision_level", itos (decision_level t));
        ("model_valid", string_of_bool t.model_valid) ];
  for i = 0 to Array.length c - 1 do
    let l = (c.(i) :> int) in
    if value_lit t l <> -1 then
      Audit.fail ~invariant:"block-literal-false"
        ~detail:"Solver.block: a literal is not false under the model"
        [ ("lit", itos l); ("var", itos (lit_var l)) ]
  done;
  t.sat_trail <- false;
  let group = List.length t.groups in
  let guard = guard_lit t in
  let root_insert () =
    to_root t;
    insert_clause t ~group ~guard c
  in
  (* the clause [insert_clause] would build: distinct literals, the
     level-0 facts (all of groups <= [group]) dropped, the guard last *)
  let a = ascending c in
  let buf = t.lits_buf in
  Vec.clear buf;
  for i = 0 to Array.length a - 1 do
    let l = (a.(i) :> int) in
    if (i = 0 || l <> (a.(i - 1) :> int)) && t.level.(lit_var l) > 0 then Vec.push buf l
  done;
  if guard >= 0 then Vec.push buf guard;
  let lits = Vec.to_array buf in
  let n = Array.length lits in
  if n < 2 || t.proof <> None then root_insert ()
  else begin
    let level_at k = t.level.(lit_var lits.(k)) in
    let deepest_to k =
      let best = ref k in
      for i = k + 1 to n - 1 do
        if level_at i > level_at !best then best := i
      done;
      let tmp = lits.(k) in
      lits.(k) <- lits.(!best);
      lits.(!best) <- tmp
    in
    deepest_to 0;
    deepest_to 1;
    let top = level_at 0 and second = level_at 1 in
    if second <= t.assump_levels then root_insert ()
    else begin
      let c = { cid = fresh_cid t; lits; learnt = false; group; activity = 0.; deleted = false } in
      (* a tie leaves both watches unassigned one level below them *)
      cancel_until t (if top > second then second else top - 1);
      attach_clause t c;
      Vec.push t.clauses c;
      if top > second then ignore (enqueue t lits.(0) (R_clause c))
    end
  end

let enable_proof_logging t =
  to_root t;
  if List.exists (fun m -> Gauss.num_rows m > 0) t.matrices then
    invalid_arg "Solver.enable_proof_logging: XOR constraints present";
  if t.groups <> [] then
    invalid_arg "Solver.enable_proof_logging: groups present";
  if t.proof = None then t.proof <- Some []

let proof t = match t.proof with None -> [] | Some steps -> List.rev steps

(* Test hook: plain-data snapshot of every matrix, keyed by group. *)
let gauss_dump t =
  to_root t;
  List.rev_map (fun m -> (Gauss.group m, Gauss.dump m)) t.matrices

(* ------------------------------------------------------------------ *)
(* Test-only fault injection (mutation tests for the sanitizer)        *)

module Corrupt = struct
  let first_live_clause t =
    if Vec.size t.clauses > 0 then Some (Vec.get t.clauses 0)
    else if Vec.size t.learnts > 0 then Some (Vec.get t.learnts 0)
    else None

  let drop_watch t =
    match first_live_clause t with
    | None -> false
    | Some c ->
        Vec.filter_in_place (fun (c' : clause) -> c' != c) t.watches.(c.lits.(0));
        true

  let stale_group t =
    match first_live_clause t with
    | None -> false
    | Some c ->
        c.group <- List.length t.groups + 1;
        true

  let bump_trail_level t =
    if Vec.size t.trail = 0 then false
    else begin
      let v = lit_var (Vec.get t.trail 0) in
      t.level.(v) <- t.level.(v) + 1;
      true
    end

  let scramble_heap t = Order_heap.corrupt_swap t.order 0 1

  let flip_model_bit t =
    match (t.model_valid, t.saved_model) with
    | true, Some m when t.nvars >= 1 ->
        let m' =
          Cnf.Model.make t.nvars (fun v ->
              if v = 1 then not (Cnf.Model.value m 1) else Cnf.Model.value m v)
        in
        t.saved_model <- Some m';
        true
    | _ -> false

  let gauss_flip_rhs t = List.exists Gauss.Corrupt.flip_rhs t.matrices
  let gauss_steal_basic t = List.exists Gauss.Corrupt.steal_basic t.matrices

  let gauss_false_detach t =
    List.exists (fun m -> Gauss.Corrupt.false_detach m ~assigns:t.assigns) t.matrices

  let gauss_drop_watch t = List.exists Gauss.Corrupt.drop_watch t.matrices
  let gauss_clear_watcher t = List.exists Gauss.Corrupt.clear_watcher t.matrices

  let duplicate_literal t =
    let wide (c : clause) = not c.deleted && Array.length c.lits >= 3 in
    let pick v =
      Vec.fold (fun acc c -> if Option.is_none acc && wide c then Some c else acc) None v
    in
    match (match pick t.clauses with None -> pick t.learnts | c -> c) with
    | None -> false
    | Some c ->
        c.lits.(Array.length c.lits - 1) <- c.lits.(0);
        true
end
