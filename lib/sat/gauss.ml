(* Packed-bitset Gauss-Jordan matrix, one per solver constraint group.
   See the .mli for the architecture; the load-bearing facts are:

   - Jordan reduced form: every active row owns an exclusive basic
     column, eliminated from all other rows. A combination of k >= 2
     active rows therefore carries >= k unassigned columns (each
     member's basic), so any unit implication of the row space is
     visible on a single row — propagation is complete at fixpoints.
   - Fully assigned rows are never elimination targets (a target must
     contain the unassigned new pivot), so a reason row's contents are
     frozen for as long as its implication is on the trail: reasons
     can be materialized lazily.
   - Backtracking needs no bit-level undo: eliminations preserve the
     row space and any basis is valid. Only detachment is undone (via
     the mark stack), and [repair] re-derives watches / basics /
     pending units from current assignments.
   - A group pop replays every row from its source XOR, in insertion
     order, so a round trip that leaves no assignment behind restores
     the matrix exactly as it was built. *)

let c_row_reductions = Obs.Metrics.counter "solver.gauss_row_reductions"
let c_lazy_reasons = Obs.Metrics.counter "solver.gauss_lazy_reasons"
let c_detached_rows = Obs.Metrics.counter "solver.gauss_detached_rows"
let c_matrix_pushes = Obs.Metrics.counter "solver.gauss_matrix_pushes"
let c_matrix_pops = Obs.Metrics.counter "solver.gauss_matrix_pops"

let word_bits = Sys.int_size

type row = {
  mutable bits : int array; (* packed columns, [word_bits] per word *)
  mutable rhs : bool;
  mutable active : bool; (* false = detached (satisfied) *)
  mutable basic : int; (* exclusive basic column, -1 = none *)
  mutable w1 : int; (* watched columns, -1 = none *)
  mutable w2 : int;
  mutable queued : bool; (* on the reprocessing worklist *)
  src_vars : int list; (* the XOR as inserted, replayed after a pop *)
  src_rhs : bool;
}

let dummy_row =
  { bits = [||]; rhs = false; active = false; basic = -1; w1 = -1; w2 = -1;
    queued = false; src_vars = []; src_rhs = false }

type t = {
  xgroup : int;
  trail_size : unit -> int; (* hooks, bound once at [create] *)
  enqueue : t -> int -> int -> unit;
  mutable col_var : int array; (* column -> variable *)
  mutable ncols : int;
  mutable col_of_var : int array; (* variable -> column, -1 = absent *)
  rows : row Vec.t; (* never shrinks; rows die with the matrix *)
  mutable watchers : int array;
      (* per column, a bitset of the rows whose [w1] or [w2] is that
         column: words [c * wstride .. (c + 1) * wstride - 1] *)
  mutable wstride : int;
  undo_mark : int Vec.t; (* detach-undo stack: trail size at detach... *)
  undo_row : int Vec.t; (* ...and the detached row id (parallel) *)
  queue : int Vec.t; (* scratch worklist of row ids *)
  mutable dirty : bool;
  mutable rebuilding : bool; (* next repair is a post-pop rebuild *)
  mutable conflict : int; (* first conflicting row of the call, -1 = none *)
  (* results of the last [scan] *)
  mutable s_unassigned : int;
  mutable s_u1 : int;
  mutable s_u2 : int;
  mutable s_parity : bool;
}

let lit_of_var v positive = (v lsl 1) lor (if positive then 0 else 1)

let create ~group ~trail_size ~enqueue =
  Obs.Metrics.incr c_matrix_pushes;
  { xgroup = group;
    trail_size;
    enqueue;
    col_var = Array.make 16 0;
    ncols = 0;
    col_of_var = Array.make 16 (-1);
    rows = Vec.create ~dummy:dummy_row ();
    watchers = [||];
    wstride = 1;
    undo_mark = Vec.create ~dummy:0 ();
    undo_row = Vec.create ~dummy:0 ();
    queue = Vec.create ~dummy:0 ();
    dirty = false;
    rebuilding = false;
    conflict = -1;
    s_unassigned = 0;
    s_u1 = -1;
    s_u2 = -1;
    s_parity = false }

let group m = m.xgroup
let num_rows m = Vec.size m.rows
let is_dirty m = m.dirty
let drop _m = Obs.Metrics.incr c_matrix_pops

let col_for m v =
  let n = Array.length m.col_of_var in
  if v >= n then begin
    let a = Array.make (max (v + 1) (2 * n)) (-1) in
    Array.blit m.col_of_var 0 a 0 n;
    m.col_of_var <- a
  end;
  match m.col_of_var.(v) with
  | -1 ->
      let c = m.ncols in
      if c = Array.length m.col_var then begin
        let a = Array.make (2 * c) 0 in
        Array.blit m.col_var 0 a 0 c;
        m.col_var <- a
      end;
      m.col_var.(c) <- v;
      m.ncols <- c + 1;
      m.col_of_var.(v) <- c;
      c
  | c -> c

(* ------------------------------------------------------------------ *)
(* Row bit manipulation                                                *)

(* Index of the only set bit of [b] (a word's lowest bit, isolated as
   [w land (-w)]): a de Bruijn multiply on the low or the high 32-bit
   half, so every product fits in the 63-bit int. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index b =
  if b land 0xFFFF_FFFF <> 0 then
    Array.unsafe_get debruijn32 (((b * 0x077C_B531) lsr 27) land 31)
  else 32 + Array.unsafe_get debruijn32 ((((b lsr 32) * 0x077C_B531) lsr 27) land 31)

let mem r c =
  let w = c / word_bits in
  w < Array.length r.bits && r.bits.(w) land (1 lsl (c mod word_bits)) <> 0

let toggle_bit r c =
  let w = c / word_bits in
  if w >= Array.length r.bits then begin
    let a = Array.make (w + 1) 0 in
    Array.blit r.bits 0 a 0 (Array.length r.bits);
    r.bits <- a
  end;
  r.bits.(w) <- r.bits.(w) lxor (1 lsl (c mod word_bits))

let xor_into dst src =
  let ns = Array.length src.bits in
  if ns > Array.length dst.bits then begin
    let a = Array.make ns 0 in
    Array.blit dst.bits 0 a 0 (Array.length dst.bits);
    dst.bits <- a
  end;
  for i = 0 to ns - 1 do
    dst.bits.(i) <- dst.bits.(i) lxor src.bits.(i)
  done;
  dst.rhs <- dst.rhs <> src.rhs;
  Obs.Metrics.incr c_row_reductions

(* Column loops walk [r.bits] word by word and visit only the set
   bits, lowest first, so columns come in ascending order; none of
   them allocates. *)

(* Unassigned count (with the first two unassigned columns) and the
   parity of the assigned-true variables of [r], left in the [s_*]
   fields of [m]. *)
let scan m ~assigns r =
  let n = ref 0 in
  let u1 = ref (-1) in
  let u2 = ref (-1) in
  let parity = ref false in
  let bits = r.bits and col_var = m.col_var in
  for w = 0 to Array.length bits - 1 do
    let word = ref bits.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land (- !word) in
      let c = base + bit_index low in
      let a = assigns.(col_var.(c)) in
      if a = 0 then begin
        incr n;
        if !u1 < 0 then u1 := c else if !u2 < 0 then u2 := c
      end
      else if a = 1 then parity := not !parity;
      word := !word lxor low
    done
  done;
  m.s_unassigned <- !n;
  m.s_u1 <- !u1;
  m.s_u2 <- !u2;
  m.s_parity <- !parity

(* Number of variables of [r] other than [skip]. *)
let count_vars m r ~skip =
  let n = ref 0 in
  let bits = r.bits in
  for w = 0 to Array.length bits - 1 do
    let word = ref bits.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land (- !word) in
      if m.col_var.(base + bit_index low) <> skip then incr n;
      word := !word lxor low
    done
  done;
  !n

(* The literal of [v] that is FALSE under the current assignment. *)
let false_lit ~assigns v = lit_of_var v (assigns.(v) <> 1)

(* Fill [a] from slot [last] downwards with the false literal of
   every variable of [r] other than [skip], taken in ascending column
   order: the slots end in descending column order. *)
let fill_false_lits m ~assigns r ~skip a ~last =
  let k = ref last in
  let bits = r.bits in
  for w = 0 to Array.length bits - 1 do
    let word = ref bits.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land (- !word) in
      let v = m.col_var.(base + bit_index low) in
      if v <> skip then begin
        a.(!k) <- false_lit ~assigns v;
        decr k
      end;
      word := !word lxor low
    done
  done

(* ------------------------------------------------------------------ *)
(* Watcher bitsets                                                     *)

let watch_add m c i =
  let w = i / word_bits in
  if w >= m.wstride then begin
    (* more rows than the stride holds: widen every column's bitset *)
    let s = m.wstride and s' = max (w + 1) (2 * m.wstride) in
    let cols = Array.length m.watchers / s in
    let a = Array.make (cols * s') 0 in
    for c = 0 to cols - 1 do
      Array.blit m.watchers (c * s) a (c * s') s
    done;
    m.watchers <- a;
    m.wstride <- s'
  end;
  let s = m.wstride in
  let n = Array.length m.watchers in
  if (c + 1) * s > n then begin
    (* room for every column [col_var] has room for *)
    let a = Array.make (max (Array.length m.col_var * s) (2 * n)) 0 in
    Array.blit m.watchers 0 a 0 n;
    m.watchers <- a
  end;
  let k = (c * s) + w in
  m.watchers.(k) <- m.watchers.(k) lor (1 lsl (i mod word_bits))

(* a row is only ever removed from a column it was added to *)
let watch_remove m c i =
  let k = (c * m.wstride) + (i / word_bits) in
  m.watchers.(k) <- m.watchers.(k) land lnot (1 lsl (i mod word_bits))

(* Every change of a row's watches goes through here, so column [c]'s
   bitset always holds exactly the rows with [w1 = c] or [w2 = c]. *)
let set_watches m i r ~w1 ~w2 =
  if r.w1 <> w1 || r.w2 <> w2 then begin
    if r.w1 >= 0 then watch_remove m r.w1 i;
    if r.w2 >= 0 then watch_remove m r.w2 i;
    r.w1 <- w1;
    r.w2 <- w2;
    if w1 >= 0 then watch_add m w1 i;
    if w2 >= 0 then watch_add m w2 i
  end

(* ------------------------------------------------------------------ *)
(* Incremental elimination                                             *)

let enqueue_row m i (r : row) =
  if not r.queued then begin
    r.queued <- true;
    Vec.push m.queue i
  end

let detach m i r ~mark =
  r.active <- false;
  Vec.push m.undo_mark mark;
  Vec.push m.undo_row i;
  Obs.Metrics.incr c_detached_rows

(* Eliminate [pr]'s basic column from every other row (queueing the
   modified targets for reclassification). Detached rows never match:
   they are fully assigned while the pivot column is unassigned. *)
let eliminate m ~pivot_id pr =
  let b = pr.basic in
  let w = b / word_bits and mask = 1 lsl (b mod word_bits) in
  for i = 0 to Vec.size m.rows - 1 do
    if i <> pivot_id then begin
      let r = Vec.get m.rows i in
      let bits = r.bits in
      if w < Array.length bits && bits.(w) land mask <> 0 then begin
        xor_into r pr;
        enqueue_row m i r
      end
    end
  done

let basic_owner m ~except c =
  let owner = ref (-1) in
  for i = 0 to Vec.size m.rows - 1 do
    if i <> except && !owner < 0 && (Vec.get m.rows i).basic = c then owner := i
  done;
  !owner

(* Classify row [i] against the current assignment and restore its
   share of the matrix invariant. The first conflicting row is
   recorded in [m.conflict]; processing continues so the matrix stays
   structurally consistent (extra implied units remain sound). *)
let process_row m ~assigns i r =
  if r.active then begin
    scan m ~assigns r;
    let n = m.s_unassigned and u1 = m.s_u1 and u2 = m.s_u2
    and parity = m.s_parity in
    if n = 0 then begin
      if parity = r.rhs then detach m i r ~mark:(m.trail_size ())
      else begin
        (* violated: leave active, flag for repair after the backjump *)
        if m.conflict < 0 then m.conflict <- i;
        m.dirty <- true
      end
    end
    else if n = 1 then begin
      (* unit: propagate and detach as satisfied (the callback assigns
         the variable, so the row is fully assigned from here on) *)
      let v = m.col_var.(u1) in
      m.enqueue m (lit_of_var v (r.rhs <> parity)) i;
      detach m i r ~mark:(m.trail_size ())
    end
    else begin
      let basic_ok =
        r.basic >= 0 && mem r r.basic && assigns.(m.col_var.(r.basic)) = 0
      in
      if not basic_ok then begin
        (* pivot change: claim a fresh unassigned basic column *)
        (match basic_owner m ~except:i u1 with
        | -1 -> ()
        | j ->
            (* stale exclusivity (possible across detach/reactivate):
               dethrone the other claimant and reprocess it *)
            let o = Vec.get m.rows j in
            o.basic <- -1;
            if o.active then enqueue_row m j o);
        r.basic <- u1
      end;
      set_watches m i r ~w1:r.basic ~w2:(if u1 <> r.basic then u1 else u2);
      (* re-eliminate: a no-op scan when exclusivity already holds,
         and the self-healing step when it was lost while the row (or
         a later-added one) sat detached *)
      eliminate m ~pivot_id:i r
    end
  end

let drain m ~assigns =
  while Vec.size m.queue > 0 do
    let i = Vec.pop m.queue in
    let r = Vec.get m.rows i in
    r.queued <- false;
    process_row m ~assigns i r
  done

let insert m ~assigns ~vars ~rhs =
  let r =
    { bits = [||]; rhs; active = true; basic = -1; w1 = -1; w2 = -1;
      queued = false; src_vars = vars; src_rhs = rhs }
  in
  List.iter (fun v -> toggle_bit r (col_for m v)) vars;
  (* reduce against the existing basis so the new row is expressed
     over non-basic columns only (keeps exclusivity global) *)
  for i = 0 to Vec.size m.rows - 1 do
    let r' = Vec.get m.rows i in
    if r'.active && r'.basic >= 0 && mem r r'.basic then xor_into r r'
  done;
  let id = Vec.size m.rows in
  Vec.push m.rows r;
  enqueue_row m id r;
  drain m ~assigns

let add_row m ~assigns ~vars ~rhs =
  m.conflict <- -1;
  insert m ~assigns ~vars ~rhs;
  m.conflict

let on_assign m ~assigns ~var =
  if var < Array.length m.col_of_var && m.col_of_var.(var) >= 0 then begin
    let c = m.col_of_var.(var) in
    m.conflict <- -1;
    let s = m.wstride in
    if (c + 1) * s <= Array.length m.watchers then begin
      (* the rows watching [c], ascending, as a scan of every row
         would queue them *)
      for w = 0 to s - 1 do
        let word = ref m.watchers.((c * s) + w) in
        let base = w * word_bits in
        while !word <> 0 do
          let low = !word land (- !word) in
          let i = base + bit_index low in
          let r = Vec.get m.rows i in
          if r.active then enqueue_row m i r;
          word := !word lxor low
        done
      done
    end;
    drain m ~assigns;
    m.conflict
  end
  else -1

let repair m ~assigns =
  if not m.dirty then -1
  else begin
    m.dirty <- false;
    m.conflict <- -1;
    if m.rebuilding then begin
      m.rebuilding <- false;
      Obs.Trace.span ~cat:"sat" "gauss.matrix_rebuild" (fun () ->
          let rows = Array.init (Vec.size m.rows) (Vec.get m.rows) in
          Vec.clear m.rows;
          Array.fill m.watchers 0 (Array.length m.watchers) 0;
          Array.iter
            (fun r -> insert m ~assigns ~vars:r.src_vars ~rhs:r.src_rhs)
            rows)
    end
    else begin
      for i = 0 to Vec.size m.rows - 1 do
        let r = Vec.get m.rows i in
        if r.active then enqueue_row m i r
      done;
      drain m ~assigns
    end;
    (* a conflict re-flags the matrix: the backjump that consumes it
       re-runs repair on a consistent footing *)
    m.conflict
  end

let cancel_to m ~trail_size =
  let changed = ref false in
  while
    Vec.size m.undo_mark > 0 && Vec.last m.undo_mark > trail_size
  do
    ignore (Vec.pop m.undo_mark);
    let i = Vec.pop m.undo_row in
    (Vec.get m.rows i).active <- true;
    changed := true
  done;
  if !changed then m.dirty <- true

let reset m =
  Vec.clear m.undo_mark;
  Vec.clear m.undo_row;
  Vec.clear m.queue;
  m.dirty <- true;
  m.rebuilding <- true

(* ------------------------------------------------------------------ *)
(* Lazy reasons and snapshots                                          *)

let row_vars m ~row =
  let r = Vec.get m.rows row in
  let a = Array.make (count_vars m r ~skip:(-1)) 0 in
  let k = ref 0 in
  let bits = r.bits in
  for w = 0 to Array.length bits - 1 do
    let word = ref bits.(w) in
    let base = w * word_bits in
    while !word <> 0 do
      let low = !word land (- !word) in
      a.(!k) <- m.col_var.(base + bit_index low);
      incr k;
      word := !word lxor low
    done
  done;
  Array.sort Int.compare a;
  a

let reason_into m ~assigns ~row ~implied buf =
  Obs.Metrics.incr c_lazy_reasons;
  let r = Vec.get m.rows row in
  let iv = implied lsr 1 in
  let n = 1 + count_vars m r ~skip:iv in
  buf.(0) <- implied;
  fill_false_lits m ~assigns r ~skip:iv buf ~last:(n - 1);
  n

let conflict_into m ~assigns ~row buf =
  let r = Vec.get m.rows row in
  let n = count_vars m r ~skip:(-1) in
  fill_false_lits m ~assigns r ~skip:(-1) buf ~last:(n - 1);
  n

type row_dump = {
  d_vars : int array;
  d_rhs : bool;
  d_active : bool;
  d_basic : int;
  d_w1 : int;
  d_w2 : int;
}

let dump m =
  let var_of c = if c < 0 then -1 else m.col_var.(c) in
  Array.init (Vec.size m.rows) (fun i ->
      let r = Vec.get m.rows i in
      { d_vars = row_vars m ~row:i;
        d_rhs = r.rhs;
        d_active = r.active;
        d_basic = var_of r.basic;
        d_w1 = var_of r.w1;
        d_w2 = var_of r.w2 })

let watcher_dump m =
  let acc = ref [] in
  let s = m.wstride in
  for c = (Array.length m.watchers / s) - 1 downto 0 do
    let rows = ref [] in
    for i = (s * word_bits) - 1 downto 0 do
      if m.watchers.((c * s) + (i / word_bits)) land (1 lsl (i mod word_bits)) <> 0 then
        rows := i :: !rows
    done;
    if !rows <> [] then acc := (m.col_var.(c), Array.of_list !rows) :: !acc
  done;
  Array.of_list !acc

(* ------------------------------------------------------------------ *)
(* Test-only fault injection                                           *)

module Corrupt = struct
  let find_index m p =
    let found = ref (-1) in
    for i = 0 to Vec.size m.rows - 1 do
      if !found < 0 && p (Vec.get m.rows i) then found := i
    done;
    !found

  let find_row m p =
    match find_index m p with -1 -> None | i -> Some (Vec.get m.rows i)

  let flip_rhs m =
    match find_row m (fun r -> not r.active) with
    | None -> false
    | Some r ->
        r.rhs <- not r.rhs;
        true

  let steal_basic m =
    match find_row m (fun r -> r.active && r.basic >= 0) with
    | None -> false
    | Some r1 -> (
        match
          find_row m (fun r -> r.active && r.basic >= 0 && r != r1)
        with
        | None -> false
        | Some r2 ->
            r2.basic <- r1.basic;
            true)

  let false_detach m ~assigns =
    let has_unassigned r =
      scan m ~assigns r;
      m.s_unassigned > 0
    in
    match find_row m (fun r -> r.active && has_unassigned r) with
    | None -> false
    | Some r ->
        r.active <- false;
        true

  (* the watcher bitsets follow the collapsed watches: only the
     gauss-watch shape check is broken *)
  let drop_watch m =
    match find_index m (fun r -> r.active && r.w1 >= 0 && r.w1 <> r.w2) with
    | -1 -> false
    | i ->
        let r = Vec.get m.rows i in
        set_watches m i r ~w1:r.w1 ~w2:r.w1;
        true

  let clear_watcher m =
    match find_index m (fun r -> r.w1 >= 0) with
    | -1 -> false
    | i ->
        watch_remove m (Vec.get m.rows i).w1 i;
        true
end
