(* Invariant sweeps over a State.solver_view. Each check raises
   Violation.Violation with the invariant's stable name and enough
   context to reconstruct the failure without a debugger. The sweep is
   audit-only code: clarity over speed, but still linear in the size of
   the solver state (one Hashtbl per sweep, no quadratic scans). *)

open State

let itos = string_of_int

let lit_to_string view l =
  let v = var_of_lit l in
  let sign = if l land 1 = 0 then "" else "-" in
  let value =
    match lit_value view l with
    | 1 -> "T@" ^ itos view.level.(v)
    | -1 -> "F@" ^ itos view.level.(v)
    | _ -> "U"
  in
  sign ^ "x" ^ itos v ^ ":" ^ value

let lits_to_string view lits =
  "[" ^ String.concat " " (Array.to_list (Array.map (lit_to_string view) lits)) ^ "]"

let xvars_to_string view vars =
  let one v =
    let value =
      match view.assigns.(v) with
      | 1 -> "T@" ^ itos view.level.(v)
      | -1 -> "F@" ^ itos view.level.(v)
      | _ -> "U"
    in
    "x" ^ itos v ^ ":" ^ value
  in
  "[" ^ String.concat " " (Array.to_list (Array.map one vars)) ^ "]"

let base_context view =
  [ ("nvars", itos view.nvars);
    ("decision_level", itos view.decision_level);
    ("trail", itos (Array.length view.trail));
    ("qhead", itos view.qhead);
    ("clauses", itos (Array.length view.clauses));
    ("num_groups", itos view.num_groups);
    ("ok", string_of_bool view.ok);
    ("broken_by", itos view.broken_by) ]

let fail view ~invariant ~detail extra =
  Violation.fail ~invariant ~detail (extra @ base_context view)

(* ------------------------------------------------------------------ *)

let check_vecs view =
  List.iter
    (fun v ->
      if v.v_size < 0 || v.v_size > v.v_capacity then
        fail view ~invariant:"vec-bounds"
          ~detail:("vector " ^ v.v_name ^ " has size outside [0, capacity]")
          [ ("vec", v.v_name); ("size", itos v.v_size); ("capacity", itos v.v_capacity) ])
    view.vecs

let check_trail view =
  let n = Array.length view.trail in
  let nlim = Array.length view.trail_lim in
  if view.qhead < 0 || view.qhead > n then
    fail view ~invariant:"trail-bounds" ~detail:"propagation head outside trail" [];
  if nlim <> view.decision_level then
    fail view ~invariant:"trail-bounds" ~detail:"decision level disagrees with trail_lim size"
      [ ("trail_lim", itos nlim) ];
  for i = 0 to nlim - 1 do
    if view.trail_lim.(i) < 0 || view.trail_lim.(i) > n then
      fail view ~invariant:"trail-bounds" ~detail:"trail_lim entry outside trail"
        [ ("lim_index", itos i); ("lim", itos view.trail_lim.(i)) ];
    if i > 0 && view.trail_lim.(i) < view.trail_lim.(i - 1) then
      fail view ~invariant:"level-monotonic" ~detail:"trail_lim not monotonically nondecreasing"
        [ ("lim_index", itos i);
          ("lim", itos view.trail_lim.(i));
          ("previous", itos view.trail_lim.(i - 1)) ]
  done;
  let seen = Array.make (view.nvars + 1) false in
  let lvl = ref 0 in
  Array.iteri
    (fun i l ->
      let v = var_of_lit l in
      if v < 1 || v > view.nvars then
        fail view ~invariant:"trail-bounds" ~detail:"trail literal names an unknown variable"
          [ ("position", itos i); ("lit", itos l) ];
      if seen.(v) then
        fail view ~invariant:"trail-consistency" ~detail:"variable appears twice on the trail"
          [ ("position", itos i); ("var", itos v) ];
      seen.(v) <- true;
      if lit_value view l <> 1 then
        fail view ~invariant:"trail-consistency" ~detail:"trail literal is not true under assigns"
          [ ("position", itos i); ("lit", lit_to_string view l) ];
      while !lvl < nlim && view.trail_lim.(!lvl) <= i do incr lvl done;
      if view.level.(v) <> !lvl then
        fail view ~invariant:"level-monotonic"
          ~detail:"recorded level disagrees with trail position"
          [ ("position", itos i);
            ("var", itos v);
            ("recorded_level", itos view.level.(v));
            ("trail_level", itos !lvl) ])
    view.trail;
  for v = 1 to view.nvars do
    if view.assigns.(v) <> 0 && not seen.(v) then
      fail view ~invariant:"trail-consistency" ~detail:"assigned variable missing from the trail"
        [ ("var", itos v); ("level", itos view.level.(v)) ]
  done

let clause_table view =
  let tbl = Hashtbl.create (max 16 (Array.length view.clauses)) in
  Array.iter (fun c -> Hashtbl.replace tbl c.c_id c) view.clauses;
  tbl

let check_reasons view ctbl =
  let trail_pos = Array.make (view.nvars + 1) (-1) in
  Array.iteri (fun i l -> trail_pos.(var_of_lit l) <- i) view.trail;
  for v = 1 to view.nvars do
    if view.assigns.(v) <> 0 then begin
      let lvl = view.level.(v) in
      match view.reason.(v) with
      | R_dangling ->
          fail view ~invariant:"reason-consistency"
            ~detail:"reason points at a detached constraint" [ ("var", itos v) ]
      | R_clause id -> (
          match Hashtbl.find_opt ctbl id with
          | None ->
              fail view ~invariant:"reason-consistency" ~detail:"reason clause is not live"
                [ ("var", itos v); ("clause", itos id) ]
          | Some c ->
              let ctx () =
                [ ("var", itos v); ("clause", itos id); ("lits", lits_to_string view c.c_lits) ]
              in
              if Array.length c.c_lits = 0 || var_of_lit c.c_lits.(0) <> v
                 || lit_value view c.c_lits.(0) <> 1 then
                fail view ~invariant:"reason-consistency"
                  ~detail:"reason clause's first literal is not the implied true literal" (ctx ());
              Array.iteri
                (fun i l ->
                  if i > 0 then
                    if lit_value view l <> -1 || view.level.(var_of_lit l) > lvl then
                      fail view ~invariant:"reason-consistency"
                        ~detail:
                          "reason clause has a non-false or later-level literal beside the implied one"
                        (("offending", lit_to_string view l) :: ctx ()))
                c.c_lits)
      | R_gauss (g, row) -> (
          match List.find_opt (fun m -> m.g_group = g) view.matrices with
          | None ->
              fail view ~invariant:"reason-consistency"
                ~detail:"reason Gauss matrix is not live"
                [ ("var", itos v); ("matrix_group", itos g) ]
          | Some gv ->
              if row < 0 || row >= Array.length gv.g_rows then
                fail view ~invariant:"reason-consistency"
                  ~detail:"reason Gauss row id is out of range"
                  [ ("var", itos v); ("matrix_group", itos g); ("row", itos row) ];
              let r = gv.g_rows.(row) in
              let ctx =
                [ ("var", itos v);
                  ("matrix_group", itos g);
                  ("row", itos row);
                  ("vars", xvars_to_string view r.g_vars) ]
              in
              if not (Array.exists (fun u -> u = v) r.g_vars) then
                fail view ~invariant:"reason-consistency"
                  ~detail:"implied variable is not in its reason Gauss row" ctx;
              let parity = ref false in
              Array.iter
                (fun u ->
                  if view.assigns.(u) = 0 || view.level.(u) > lvl then
                    fail view ~invariant:"reason-consistency"
                      ~detail:"reason Gauss row has an unassigned or later-level variable"
                      ctx;
                  if view.assigns.(u) > 0 then parity := not !parity)
                r.g_vars;
              if !parity <> r.g_rhs then
                fail view ~invariant:"reason-consistency"
                  ~detail:"reason Gauss row is not satisfied by the current assignment"
                  ctx)
      | R_none ->
          if lvl > 0 then begin
            let pos = trail_pos.(v) in
            if pos < 0 || pos <> view.trail_lim.(lvl - 1) then
              fail view ~invariant:"reason-consistency"
                ~detail:"reasonless non-decision assignment above level 0"
                [ ("var", itos v); ("level", itos lvl); ("trail_pos", itos pos) ]
          end
    end
  done

let check_clause_watches view ctbl =
  let occurrences = Hashtbl.create (max 16 (Array.length view.clauses)) in
  Array.iteri
    (fun l entries ->
      List.iter
        (fun e ->
          if e.w_deleted then begin
            if e.w_id >= 0 && Hashtbl.mem ctbl e.w_id then
              fail view ~invariant:"group-hygiene"
                ~detail:"clause marked deleted is still registered as live"
                [ ("lit", itos l); ("clause", itos e.w_id) ]
          end
          else if e.w_id < 0 then
            fail view ~invariant:"lazy-deletion"
              ~detail:"watch list holds an orphaned clause record not marked deleted"
              [ ("lit", itos l) ]
          else
            match Hashtbl.find_opt ctbl e.w_id with
            | None ->
                fail view ~invariant:"lazy-deletion"
                  ~detail:"watch list holds a detached clause not marked deleted"
                  [ ("lit", itos l); ("clause", itos e.w_id) ]
            | Some c ->
                if Array.length c.c_lits < 2
                   || (c.c_lits.(0) <> l && c.c_lits.(1) <> l) then
                  fail view ~invariant:"watch-attached"
                    ~detail:"clause is in a watch list of a literal it does not watch"
                    [ ("lit", itos l);
                      ("clause", itos e.w_id);
                      ("lits", lits_to_string view c.c_lits) ];
                Hashtbl.replace occurrences e.w_id
                  (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences e.w_id)))
        entries)
    view.watches;
  Array.iter
    (fun c ->
      if Array.length c.c_lits < 2 then
        fail view ~invariant:"clause-width" ~detail:"attached clause has fewer than two literals"
          [ ("clause", itos c.c_id); ("lits", lits_to_string view c.c_lits) ];
      let n = Option.value ~default:0 (Hashtbl.find_opt occurrences c.c_id) in
      if n <> 2 then
        fail view ~invariant:"watch-attached"
          ~detail:"live clause is not watched exactly once from each watched literal"
          [ ("clause", itos c.c_id);
            ("occurrences", itos n);
            ("lits", lits_to_string view c.c_lits) ])
    view.clauses

let check_distinct_literals view =
  Array.iter
    (fun c ->
      let lits = Array.copy c.c_lits in
      Array.sort Int.compare lits;
      for i = 1 to Array.length lits - 1 do
        if lits.(i) = lits.(i - 1) then
          fail view ~invariant:"clause-distinct"
            ~detail:"stored clause repeats a literal"
            [ ("clause", itos c.c_id);
              ("lit", itos lits.(i));
              ("lits", lits_to_string view c.c_lits) ]
      done)
    view.clauses

let check_two_watch view =
  Array.iter
    (fun c ->
      let satisfied = Array.exists (fun l -> lit_value view l = 1) c.c_lits in
      let w0 = lit_value view c.c_lits.(0) and w1 = lit_value view c.c_lits.(1) in
      let ctx =
        [ ("clause", itos c.c_id); ("lits", lits_to_string view c.c_lits) ]
      in
      if not satisfied then begin
        if w0 = -1 || w1 = -1 then
          fail view ~invariant:"two-watch"
            ~detail:"non-satisfied clause has a false watched literal at a propagation fixpoint"
            ctx
      end
      else begin
        (* A false watch is only legal when the other watch is true and
           was assigned no later than the false one. *)
        let check_pair wf wo =
          if lit_value view wf = -1 then
            if lit_value view wo <> 1
               || view.level.(var_of_lit wo) > view.level.(var_of_lit wf) then
              fail view ~invariant:"watch-order"
                ~detail:"false watched literal is not backed by an earlier true co-watch"
                (("false_watch", lit_to_string view wf)
                 :: ("co_watch", lit_to_string view wo)
                 :: ctx)
        in
        check_pair c.c_lits.(0) c.c_lits.(1);
        check_pair c.c_lits.(1) c.c_lits.(0)
      end)
    view.clauses

(* In-search Gauss matrices. Checked per matrix and only when it is
   clean (no repair pending): a dirty matrix deliberately carries stale
   watches, basics and detach marks until the next [repair]. The
   Jordan-form invariants below are exactly what makes row-local
   propagation complete, which [gauss-fixpoint] then checks. *)
let check_gauss view =
  List.iter
    (fun g ->
      if not g.g_dirty then begin
        let mctx = [ ("matrix_group", itos g.g_group) ] in
        (* pass 1: per-row shape; collect basic-column ownership *)
        let owners = Hashtbl.create 16 in
        Array.iteri
          (fun i r ->
            let ctx =
              ("row", itos i) :: ("vars", xvars_to_string view r.g_vars) :: mctx
            in
            let member c = Array.exists (fun v -> v = c) r.g_vars in
            if r.g_active then begin
              if r.g_basic < 0 || not (member r.g_basic) then
                fail view ~invariant:"gauss-basic"
                  ~detail:"active row's basic column is missing or not a member"
                  (("basic", itos r.g_basic) :: ctx);
              if view.assigns.(r.g_basic) <> 0 && view.at_fixpoint && view.ok then
                fail view ~invariant:"gauss-basic"
                  ~detail:"active row's basic column is assigned at a clean fixpoint"
                  (("basic", itos r.g_basic) :: ctx);
              (match Hashtbl.find_opt owners r.g_basic with
              | Some j ->
                  fail view ~invariant:"gauss-basic"
                    ~detail:"two rows claim the same basic column"
                    (("basic", itos r.g_basic) :: ("other_row", itos j) :: ctx)
              | None -> Hashtbl.replace owners r.g_basic i);
              if r.g_w1 <> r.g_basic then
                fail view ~invariant:"gauss-watch"
                  ~detail:"active row's first watch is not its basic column"
                  (("w1", itos r.g_w1) :: ("basic", itos r.g_basic) :: ctx);
              if r.g_w2 < 0 || r.g_w2 = r.g_w1 || not (member r.g_w2) then
                fail view ~invariant:"gauss-watch"
                  ~detail:"active row's second watch is missing, duplicate or not a member"
                  (("w1", itos r.g_w1) :: ("w2", itos r.g_w2) :: ctx);
              if view.ok && view.at_fixpoint then begin
                let unassigned =
                  Array.fold_left
                    (fun n v -> if view.assigns.(v) = 0 then n + 1 else n)
                    0 r.g_vars
                in
                if unassigned < 2 then
                  fail view ~invariant:"gauss-fixpoint"
                    ~detail:
                      "active row is unit or fully assigned at a clean fixpoint (propagation incomplete)"
                    (("unassigned", itos unassigned) :: ctx)
              end
            end
            else begin
              (* detached = satisfied: fully assigned with matching parity *)
              let parity = ref false in
              Array.iter
                (fun v ->
                  if view.assigns.(v) = 0 then
                    fail view ~invariant:"gauss-detached"
                      ~detail:"detached row still has an unassigned variable"
                      (("unassigned_var", itos v) :: ctx);
                  if view.assigns.(v) > 0 then parity := not !parity)
                r.g_vars;
              if !parity <> r.g_rhs then
                fail view ~invariant:"gauss-detached"
                  ~detail:"detached row is not satisfied by the current assignment"
                  (("rhs", string_of_bool r.g_rhs) :: ctx)
            end)
          g.g_rows;
        (* pass 2: Jordan exclusivity — a basic column appears in no
           row but its owner (linear via the ownership table) *)
        Array.iteri
          (fun i r ->
            Array.iter
              (fun v ->
                match Hashtbl.find_opt owners v with
                | Some j when j <> i ->
                    fail view ~invariant:"gauss-basic"
                      ~detail:"basic column is not eliminated from every other row"
                      (("basic", itos v) :: ("owner_row", itos j) :: ("row", itos i)
                       :: mctx)
                | _ -> ())
              r.g_vars)
          g.g_rows
      end)
    view.matrices

(* The watcher bitsets [on_assign] walks: each column's set is exactly
   the rows that name the column as [w1] or [w2]. Unlike the shape
   checks above this holds on dirty matrices too, since every watch
   change updates the sets. *)
let check_gauss_watchers view =
  List.iter
    (fun g ->
      let expected = Hashtbl.create 16 in
      let add v i =
        if v >= 0 then
          Hashtbl.replace expected v
            (i :: Option.value ~default:[] (Hashtbl.find_opt expected v))
      in
      Array.iteri
        (fun i r ->
          add r.g_w1 i;
          if r.g_w2 <> r.g_w1 then add r.g_w2 i)
        g.g_rows;
      let rows_str rows = String.concat " " (List.map itos rows) in
      let mctx = [ ("matrix_group", itos g.g_group) ] in
      Array.iter
        (fun (v, rows) ->
          let rows = Array.to_list rows in
          let want = List.rev (Option.value ~default:[] (Hashtbl.find_opt expected v)) in
          if rows <> want then
            fail view ~invariant:"gauss-watchers"
              ~detail:"column's watcher set differs from the rows watching it"
              (("var", itos v) :: ("set", rows_str rows) :: ("watching", rows_str want) :: mctx);
          Hashtbl.remove expected v)
        g.g_watchers;
      Hashtbl.iter
        (fun v want ->
          fail view ~invariant:"gauss-watchers"
            ~detail:"watched column has no watcher set"
            (("var", itos v) :: ("watching", rows_str (List.rev want)) :: mctx))
        expected)
    view.matrices

let check_heap view =
  let size = Array.length view.heap in
  Array.iteri
    (fun i v ->
      if v < 1 || v > view.nvars then
        fail view ~invariant:"heap-index" ~detail:"order heap holds an unknown variable"
          [ ("slot", itos i); ("var", itos v) ];
      if view.heap_index.(v) <> i then
        fail view ~invariant:"heap-index"
          ~detail:"order heap slot disagrees with the variable's index map entry"
          [ ("slot", itos i); ("var", itos v); ("index", itos view.heap_index.(v)) ];
      if i > 0 then begin
        let parent = view.heap.((i - 1) / 2) in
        if view.activity.(parent) < view.activity.(v) then
          fail view ~invariant:"heap-property"
            ~detail:"order heap parent has lower activity than its child"
            [ ("slot", itos i);
              ("var", itos v);
              ("parent", itos parent);
              ("activity", string_of_float view.activity.(v));
              ("parent_activity", string_of_float view.activity.(parent)) ]
      end)
    view.heap;
  for v = 1 to view.nvars do
    let idx = view.heap_index.(v) in
    if idx >= size then
      fail view ~invariant:"heap-index" ~detail:"index map points outside the heap"
        [ ("var", itos v); ("index", itos idx) ];
    if idx >= 0 && view.heap.(idx) <> v then
      fail view ~invariant:"heap-index"
        ~detail:"index map entry does not point back at its variable"
        [ ("var", itos v); ("index", itos idx); ("slot_var", itos view.heap.(idx)) ];
    if view.assigns.(v) = 0 && idx < 0 then
      fail view ~invariant:"heap-membership"
        ~detail:"unassigned variable is missing from the order heap" [ ("var", itos v) ]
  done

let check_groups view =
  let bad_group g = g > view.num_groups || g < 0 in
  Array.iter
    (fun c ->
      if bad_group c.c_group then
        fail view ~invariant:"group-hygiene"
          ~detail:"live clause is tagged with a retracted or unknown group"
          [ ("clause", itos c.c_id);
            ("group", itos c.c_group);
            ("learnt", string_of_bool c.c_learnt) ])
    view.clauses;
  List.iter
    (fun g ->
      if bad_group g.g_group then
        fail view ~invariant:"group-hygiene"
          ~detail:"live Gauss matrix is tagged with a retracted or unknown group"
          [ ("matrix_group", itos g.g_group) ])
    view.matrices;
  for v = 1 to view.nvars do
    if view.assigns.(v) <> 0 && view.level.(v) = 0 && bad_group view.assign_group.(v) then
      fail view ~invariant:"group-hygiene"
        ~detail:"level-0 assignment is tagged with a retracted or unknown group"
        [ ("var", itos v); ("group", itos view.assign_group.(v)) ]
  done;
  List.iter
    (fun g ->
      if bad_group g then
        fail view ~invariant:"group-hygiene"
          ~detail:"lost-unit ledger references a retracted or unknown group"
          [ ("group", itos g) ])
    view.lost_unit_groups;
  Array.iter
    (List.iter (fun e ->
         if e.w_group > view.num_groups && not e.w_deleted then
           fail view ~invariant:"group-hygiene"
             ~detail:"clause watch entry carries a retracted group but is not deleted"
             [ ("id", itos e.w_id); ("group", itos e.w_group) ]))
    view.watches

(* ------------------------------------------------------------------ *)

let check view =
  check_vecs view;
  let ctbl = clause_table view in
  check_distinct_literals view;
  check_clause_watches view ctbl;
  check_heap view;
  check_gauss view;
  check_gauss_watchers view;
  if view.ok then begin
    check_trail view;
    check_reasons view ctbl;
    check_groups view;
    if view.at_fixpoint then check_two_watch view
  end

let check_model view ~value =
  Array.iter
    (fun c ->
      if not (Array.exists (fun l -> value (var_of_lit l) = (l land 1 = 0)) c.c_lits) then
        fail view ~invariant:"model-audit"
          ~detail:"returned model falsifies an attached clause"
          [ ("clause", itos c.c_id);
            ("learnt", string_of_bool c.c_learnt);
            ("lits", lits_to_string view c.c_lits) ])
    view.clauses;
  List.iter
    (fun g ->
      Array.iteri
        (fun i r ->
          let parity =
            Array.fold_left (fun p v -> if value v then not p else p) false r.g_vars
          in
          if parity <> r.g_rhs then
            fail view ~invariant:"model-audit"
              ~detail:"returned model violates a Gauss matrix row's parity"
              [ ("matrix_group", itos g.g_group);
                ("row", itos i);
                ("vars", xvars_to_string view r.g_vars) ])
        g.g_rows)
    view.matrices
