(* The witnesses found so far, in three layouts:
   - their projections onto the sampling set S, bit-sliced: [cols.(j)]
     is a bitset over the members, bit [r mod bits] of word [r / bits]
     holding member [r]'s value of [sampling.(j)]. An XOR row over S
     then evaluates on [bits] members at once, one word XOR per
     variable of the row.
   - the full witnesses of the first [max_models] members,
     [model_bytes] bytes each (see [Cnf.Model.pack]), in chunks of
     [chunk_members] members. A chunk is a Bigarray: it never moves and
     the GC does not scan it.
   - an index of the projections of the first [indexed] members, as
     |S|-bit integers (bit j the value of [sampling.(j)]): [present], a
     bit per point of {0,1}^S, and [slots], an open-addressing map from
     a projection to its member number. Both are Bigarrays. A cell, the
     points where the XOR rows hold, can then be walked point by point
     instead of scanning every member.
   A cache belongs to one domain. *)

open Bigarray

let bits = Sys.int_size

(* The columns never exceed this many words in total, and neither do
   the stored witnesses nor the index: 2 MiB each on a 64-bit host.
   The columns' bound fixes how many members the cache holds, the
   witnesses' bound how many of them keep their witness, and the
   index's bound how many of them a cache may hold and still walk, so
   a wide formula keeps fewer witnesses but as many projections as a
   narrow one with the same S. *)
let max_words = 1 lsl 18

let budget_bytes = max_words * (Sys.word_size / 8)
let chunk_members = 512

(* There is an index only while [present], a bitmap over {0,1}^S,
   takes at most a sixteenth of the index's bound: |S| <= 20 on a
   64-bit host. Wider sets keep the scan. *)
let bitmap_width =
  let rec go w = if 1 lsl (w + 1) <= budget_bytes / 2 then go (w + 1) else w in
  go 0

(* The cost model of [in_cell], in column words read by a scan: a
   point of a walk costs about [point_cost] of them, each member it
   meets [hit_cost] (a map lookup and its share of the sort), its
   set-up 2 (|S| + m) per row for m rows, and indexing a member
   [index_cost]. The ratios are those measured on draws, where the
   solver's work between two lookups leaves the cache's data out of
   the CPU caches (a column word 4.5 ns, a point 12 ns, a member met
   150 ns, a member indexed 90-190 ns, on a 2-core x86-64 host). A
   scan drops a word once no member of it is left in the cell, after
   about log2 [bits] + 1 rows. *)
let point_cost = 3
let hit_cost = 32
let rows_per_word = 7
let index_cost = 24

(* A cache of fewer members than this scans any cell in fewer words
   than a walk sets up in (2 (|S| + m) per row, over 600 column words
   for a hash of 11 rows over |S| = 18), so it never walks and never
   builds an index. *)
let index_from = 8 * bits

(* The bytes of the bitmap over {0,1}^S. *)
let present_bytes width = max 1 ((1 lsl width) / 8)

(* The most members the index's budget holds over [sampling]: 8 bytes
   per slot, at most 3/4 full, and the bitmap. 0 where there is no
   index: past the bitmap's width, and where a slot's 64 bits do not
   fit an int. *)
let index_members sampling =
  let width = Array.length sampling in
  let fits k = (8 lsl k) + present_bytes width <= budget_bytes in
  let rec go k = if fits (k + 1) then go (k + 1) else k in
  if width = 0 || width > bitmap_width || bits < 63 then 0 else (3 lsl go 0) / 4

type chunk = (int, int8_unsigned_elt, c_layout) Array1.t
type slots = (int, int_elt, c_layout) Array1.t

(* A multiplicative hash: the top bits of [p * slot_mul] pick
   projection [p]'s home slot. *)
let slot_mul = 0x1E3779B97F4A7C15

type t = {
  sampling : int array;
  index : int array; (* variable -> position in [sampling], or -1 *)
  num_vars : int;
  model_bytes : int; (* bytes per packed witness *)
  max_col_words : int; (* the columns' bound, in words per column *)
  max_models : int; (* the witnesses' bound, in members *)
  mutable cols : int array array;
  mutable chunks : chunk array; (* chunk [c] holds members [c * chunk_members ..] *)
  mutable size : int;
  (* the index, built by the first lookup that walks; while
     [log_slots = 0] there is none *)
  max_indexed : int; (* a cache of more members never walks; 0: no index *)
  mutable forgone : int; (* what lookups that would have walked did not save *)
  mutable indexed : int; (* members [0, indexed) are indexed *)
  mutable log_slots : int;
  mutable slots : slots;
      (* 2^log_slots slots, at most 3/4 full, linear probing: 0 for an
         empty slot, else (member + 1) lsl 32 lor the projection *)
  mutable present : chunk; (* bit p is set for every indexed projection p *)
  (* [in_cell]'s scratch, refilled by every call *)
  mutable row_cols : int array array;
      (* the column of each variable of its XOR rows, row after row *)
  mutable masks : int array; (* the rows eliminated, as masks over S's positions *)
  mutable parities : int array; (* their right-hand sides, 0 or 1 *)
  mutable pivots : int array; (* each eliminated row's pivot position *)
  deltas : int array; (* per free position, the point's change when it flips *)
  mutable offsets : int array; (* a walk's points relative to a block's corner *)
  mutable found : int array; (* the points of a block that [present] holds *)
  mutable homes : int array; (* their home slots *)
  mutable keys : int array; (* projections on their way into the index *)
  mutable hits : int array; (* the members a walk met *)
  mutable counts : int array; (* their sort's buckets *)
  mutable sorted : int array; (* and its output *)
}

let no_slots : slots = Array1.create int c_layout 0
let no_bits : chunk = Array1.create int8_unsigned c_layout 0

let create f =
  let sampling = Cnf.Formula.sampling_vars f in
  let num_vars = f.Cnf.Formula.num_vars in
  let index = Array.make (num_vars + 1) (-1) in
  Array.iteri (fun j v -> index.(v) <- j) sampling;
  let model_bytes = (num_vars + 7) / 8 in
  let max_col_words = max_words / max 1 (Array.length sampling) in
  {
    sampling;
    index;
    num_vars;
    model_bytes;
    max_col_words;
    max_models =
      min (max_col_words * bits) (budget_bytes / max 1 model_bytes);
    cols = Array.map (fun _ -> Array.make (min 4 max_col_words) 0) sampling;
    chunks = [||];
    size = 0;
    max_indexed = index_members sampling;
    forgone = 0;
    indexed = 0;
    log_slots = 0;
    slots = no_slots;
    present = no_bits;
    row_cols = [||];
    masks = [||];
    parities = [||];
    pivots = [||];
    deltas = Array.make (Array.length sampling) 0;
    offsets = [||];
    found = [||];
    homes = [||];
    keys = [||];
    hits = [||];
    counts = [||];
    sorted = [||];
  }

let size t = t.size
let capacity t = t.max_col_words * bits
let has_model t r = r >= 0 && r < t.size && r < t.max_models

let add t m =
  if Cnf.Model.num_vars m <> t.num_vars then
    invalid_arg "Known.add: model width differs from the formula's";
  let r = t.size in
  let w = r / bits in
  if w < t.max_col_words then begin
    if Array.length t.sampling > 0 && w >= Array.length t.cols.(0) then
      t.cols <-
        Array.map
          (fun col ->
            let c = Array.make (min t.max_col_words (2 * Array.length col)) 0 in
            Array.blit col 0 c 0 (Array.length col);
            c)
          t.cols;
    Array.iteri
      (fun j v ->
        if Cnf.Model.value m v then
          t.cols.(j).(w) <- t.cols.(j).(w) lor (1 lsl (r mod bits)))
      t.sampling;
    if r < t.max_models then begin
      let c = r / chunk_members in
      if c >= Array.length t.chunks then begin
        (* the last chunk ends at the bound *)
        let members = min chunk_members (t.max_models - (c * chunk_members)) in
        t.chunks <-
          Array.append t.chunks
            [| Array1.create int8_unsigned c_layout (members * t.model_bytes) |]
      end;
      let chunk = t.chunks.(c) in
      let base = r mod chunk_members * t.model_bytes in
      Cnf.Model.pack m (fun i byte -> Array1.unsafe_set chunk (base + i) byte)
    end;
    t.size <- r + 1
  end

let bit words r = (words.(r / bits) lsr (r mod bits)) land 1 = 1
let blocking_clause t r =
  Array.mapi (fun j v -> Cnf.Lit.make v (not (bit t.cols.(j) r))) t.sampling

let holds t r m =
  let rec go j =
    j >= Array.length t.sampling
    || (bit t.cols.(j) r = Cnf.Model.value m t.sampling.(j) && go (j + 1))
  in
  go 0

let model t r =
  if not (has_model t r) then invalid_arg "Known.model: no witness kept for this member";
  let chunk = t.chunks.(r / chunk_members) in
  let base = r mod chunk_members * t.model_bytes in
  Cnf.Model.unpack t.num_vars (fun i -> Array1.unsafe_get chunk (base + i))

let grow_scratch a n = if Array.length a >= n then a else Array.make n 0

(* A walk handles at most 2^block_bits points at once, and the index
   takes in as many members at once. *)
let block_bits = 10

(* ------------------------------------------------------------------ *)
(* The index *)

(* Writes the projections of the members [a, a + n) into [t.keys],
   one column at a time. *)
let extract t a n =
  t.keys <- grow_scratch t.keys n;
  let keys = t.keys in
  Array.fill keys 0 n 0;
  for j = 0 to Array.length t.sampling - 1 do
    let col = t.cols.(j) in
    for i = 0 to n - 1 do
      let r = a + i in
      keys.(i) <- keys.(i) lor (((col.(r / bits) lsr (r mod bits)) land 1) lsl j)
    done
  done

let insert t r p =
  let k = t.log_slots in
  let h = p * slot_mul in
  let mask = (1 lsl k) - 1 in
  let s = ref (h lsr (bits - k)) in
  while Array1.unsafe_get t.slots !s <> 0 do
    s := (!s + 1) land mask
  done;
  Array1.unsafe_set t.slots !s (((r + 1) lsl 32) lor p);
  Array1.unsafe_set t.present (p lsr 3)
    (Array1.unsafe_get t.present (p lsr 3) lor (1 lsl (p land 7)))

(* Indexes the members [a, b), a block of projections at a time. *)
let index_range t a b =
  let a = ref a in
  while !a < b do
    let n = min (1 lsl block_bits) (b - !a) in
    extract t !a n;
    for i = 0 to n - 1 do
      insert t (!a + i) t.keys.(i)
    done;
    a := !a + n
  done

(* Moves the index to 2^k slots, taking its members in again. *)
let resize t k =
  let slots = Array1.create int c_layout (1 lsl k) in
  Array1.fill slots 0;
  t.slots <- slots;
  t.log_slots <- k;
  if t.present == no_bits then begin
    let present =
      Array1.create int8_unsigned c_layout (present_bytes (Array.length t.sampling))
    in
    Array1.fill present 0;
    t.present <- present
  end;
  index_range t 0 t.indexed

(* Brings the index up to the cache's members, at most [max_indexed]:
   members are indexed when a lookup is about to walk, not when they
   are added, so a cache that never walks never builds one. *)
let catch_up t =
  if t.indexed < t.size then begin
    let rec fit k = if 3 lsl k >= 4 * t.size then k else fit (k + 1) in
    let k = fit (max 4 t.log_slots) in
    if k > t.log_slots then resize t k;
    index_range t t.indexed t.size;
    t.indexed <- t.size
  end

(* The member of projection [p] in the index, or -1; [v] is slot [s],
   where the probe stands. *)
let rec probe t p mask s v =
  if v = 0 then -1
  else if v land 0xFFFF_FFFF = p then (v lsr 32) - 1
  else
    let s = (s + 1) land mask in
    probe t p mask s (Array1.unsafe_get t.slots s)

(* ------------------------------------------------------------------ *)
(* Lookups *)

let c_scan_lookups = Obs.Metrics.counter "known.scan_lookups"
let c_walk_lookups = Obs.Metrics.counter "known.walk_lookups"
let c_scan_words = Obs.Metrics.counter "known.scan_words"
let c_walk_points = Obs.Metrics.counter "known.walk_points"

(* Writes the column of each variable of [xors]' rows into [row_cols],
   row after row from [base] on. *)
let rec fill_row_cols cols index row_cols base = function
  | [] -> ()
  | (x : Cnf.Xor_clause.t) :: rest ->
      let vars = x.vars in
      for c = 0 to Array.length vars - 1 do
        row_cols.(base + c) <- cols.(index.(vars.(c)))
      done;
      fill_row_cols cols index row_cols (base + Array.length vars) rest

(* [cell], a bitset over the members of word [w] of the columns, with
   every member cleared whose projection's parity over a row of [xors]
   differs from the row's rhs; the rows' columns start at [base] in
   [row_cols]. *)
let rec filter_word row_cols w cell base = function
  | [] -> cell
  | (x : Cnf.Xor_clause.t) :: rest ->
      if cell = 0 then 0
      else begin
        let stop = base + Array.length x.vars in
        let miss = ref (if x.rhs then -1 else 0) in
        for c = base to stop - 1 do
          miss := !miss lxor row_cols.(c).(w)
        done;
        filter_word row_cols w (cell land lnot !miss) stop rest
      end

(* The scan: prepends to [acc] the members of the cell, lowest first,
   from word [w] on, until [k] reaches [limit]; [t.row_cols] holds
   [xors]' columns. *)
let rec scan t xors limit w acc k =
  if k >= limit || w * bits >= t.size then (acc, k)
  else begin
    let live = t.size - (w * bits) in
    let cell = if live >= bits then -1 else (1 lsl live) - 1 in
    collect t xors limit w (filter_word t.row_cols w cell 0 xors) 0 acc k
  end

and collect t xors limit w cell b acc k =
  if k >= limit || cell lsr b = 0 then scan t xors limit (w + 1) acc k
  else if (cell lsr b) land 1 = 1 then
    collect t xors limit w cell (b + 1) (((w * bits) + b) :: acc) (k + 1)
  else collect t xors limit w cell (b + 1) acc k

(* Gauss-Jordan elimination of [xors] into [t.masks]/[t.parities]/[t.pivots]
   after the [rank] rows there: the rank of the rows, or -1 when they
   contradict each other (no point of {0,1}^S satisfies them). Each
   kept row has a pivot position, the lowest it held once reduced,
   that no other row holds. The updates select with masks, not
   branches, whose outcome is a coin flip on random rows. *)
let rec eliminate t rank = function
  | [] -> rank
  | (x : Cnf.Xor_clause.t) :: rest ->
      let masks = t.masks and parities = t.parities and pivots = t.pivots in
      let m = ref 0 and rhs = ref (Bool.to_int x.rhs) in
      for c = 0 to Array.length x.vars - 1 do
        let j = t.index.(x.vars.(c)) in
        if j < 0 then invalid_arg "Known.in_cell: a row ranges outside the sampling set";
        m := !m lxor (1 lsl j)
      done;
      for i = 0 to rank - 1 do
        let sel = -((!m lsr pivots.(i)) land 1) in
        m := !m lxor (masks.(i) land sel);
        rhs := !rhs lxor (parities.(i) land sel)
      done;
      if !m = 0 then if !rhs = 1 then -1 else eliminate t rank rest
      else begin
        let p = ref 0 in
        while (!m lsr !p) land 1 = 0 do
          incr p
        done;
        let p = !p in
        for i = 0 to rank - 1 do
          let sel = -((masks.(i) lsr p) land 1) in
          masks.(i) <- masks.(i) lxor (!m land sel);
          parities.(i) <- parities.(i) lxor (!rhs land sel)
        done;
        masks.(rank) <- !m;
        parities.(rank) <- !rhs;
        pivots.(rank) <- p;
        eliminate t (rank + 1) rest
      end

(* Column words a scan of [xors] reads per word of members: the rows it
   reads before no member of the word is left, [n] at most. *)
let rec row_reads n = function
  | [] -> 0
  | (x : Cnf.Xor_clause.t) :: rest ->
      if n = 0 then 0 else 2 + Array.length x.vars + row_reads (n - 1) rest

(* What walking the cell of [xors] ([rows] rows of rank [rank]) saves
   on scanning the cache for [limit] members, negative where it costs
   more: 2^(|S| - rank) points and about size / 2^rank members met,
   against the words a scan reads before it finds [limit] members,
   which it meets at the same rate. Walks get cheaper and scans dearer
   as the rank grows. *)
let walk_saving t xors ~limit ~rows rank =
  let width = Array.length t.sampling in
  let free = width - rank in
  let members = t.size in
  let words = (members + bits - 1) / bits in
  let need =
    if limit > (words * bits) asr rank then words
    else min words (((limit lsl rank) + bits - 1) / bits)
  in
  (need * row_reads rows_per_word xors)
  - ((point_cost lsl free) + ((members asr rank) * hit_cost) + (2 * rows * (width + rows)))

(* Sorts the [n] hits ascending. Members in a cell spread evenly over
   the indexed ones, so a pass into about n buckets by their top bits
   leaves each a few places from its own, and an insertion sort then
   moves little; a comparison sort's unpredictable branches cost more
   at these sizes. *)
let sort_hits t n =
  if n > 1 then begin
    let log2 x =
      let rec go b = if 1 lsl b >= x then b else go (b + 1) in
      go 0
    in
    let lb = log2 n in
    let shift = max 0 (log2 t.indexed - lb) in
    let buckets = (1 lsl lb) + 1 in
    t.counts <- grow_scratch t.counts buckets;
    t.sorted <- grow_scratch t.sorted n;
    let hits = t.hits and counts = t.counts and sorted = t.sorted in
    Array.fill counts 0 buckets 0;
    for i = 0 to n - 1 do
      let b = (hits.(i) lsr shift) + 1 in
      counts.(b) <- counts.(b) + 1
    done;
    for b = 1 to buckets - 1 do
      counts.(b) <- counts.(b) + counts.(b - 1)
    done;
    for i = 0 to n - 1 do
      let b = hits.(i) lsr shift in
      sorted.(counts.(b)) <- hits.(i);
      counts.(b) <- counts.(b) + 1
    done;
    for i = 0 to n - 1 do
      let x = sorted.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && hits.(!j) > x do
        hits.(!j + 1) <- hits.(!j);
        decr j
      done;
      hits.(!j + 1) <- x
    done
  end


(* The walk: visits the 2^f points of the cell of the [rank] rows
   eliminated, f = |S| - rank, and gathers the indexed members met into
   [t.hits]; their number. Flipping a free position flips the pivots
   that its rows drive too, so each point is one XOR from another: the
   points of the lowest [block_bits] free positions are laid out once
   ([t.offsets], by doubling), and each block of them is moved by the
   higher free positions in Gray-code order. A block goes through three
   passes with no branch on the data, so that the bitmap's and the
   map's cache misses overlap: the points present are gathered into
   [t.found], their home slots are read into [t.homes], and only then
   is each one looked up. *)
let walk t rank =
  let width = Array.length t.sampling in
  let pivots = ref 0 and base = ref 0 in
  for i = 0 to rank - 1 do
    let b = 1 lsl t.pivots.(i) in
    pivots := !pivots lor b;
    if t.parities.(i) = 1 then base := !base lor b
  done;
  let f = ref 0 in
  for j = 0 to width - 1 do
    if (!pivots lsr j) land 1 = 0 then begin
      let d = ref (1 lsl j) in
      for i = 0 to rank - 1 do
        if (t.masks.(i) lsr j) land 1 = 1 then d := !d lor (1 lsl t.pivots.(i))
      done;
      t.deltas.(!f) <- !d;
      incr f
    end
  done;
  let f = !f in
  let lo = min f block_bits in
  let block = 1 lsl lo in
  t.offsets <- grow_scratch t.offsets block;
  t.found <- grow_scratch t.found block;
  t.homes <- grow_scratch t.homes block;
  let offsets = t.offsets and found = t.found and homes = t.homes in
  offsets.(0) <- 0;
  for j = 0 to lo - 1 do
    let d = t.deltas.(j) and half = 1 lsl j in
    for i = 0 to half - 1 do
      offsets.(half + i) <- offsets.(i) lxor d
    done
  done;
  let present = t.present in
  let k = t.log_slots in
  let mask = (1 lsl k) - 1 in
  let corner = ref !base and n = ref 0 in
  for h = 0 to (1 lsl (f - lo)) - 1 do
    if h > 0 then begin
      let j = ref 0 in
      while (h lsr !j) land 1 = 0 do
        incr j
      done;
      corner := !corner lxor t.deltas.(lo + !j)
    end;
    let c = ref 0 in
    for i = 0 to block - 1 do
      let p = !corner lxor offsets.(i) in
      found.(!c) <- p;
      c := !c + ((Array1.unsafe_get present (p lsr 3) lsr (p land 7)) land 1)
    done;
    for i = 0 to !c - 1 do
      homes.(i) <- Array1.unsafe_get t.slots ((found.(i) * slot_mul) lsr (bits - k))
    done;
    for i = 0 to !c - 1 do
      let p = found.(i) in
      let r = probe t p mask ((p * slot_mul) lsr (bits - k)) homes.(i) in
      if r >= 0 then begin
        if !n = Array.length t.hits then begin
          let hits = Array.make (max 64 (2 * !n)) 0 in
          Array.blit t.hits 0 hits 0 !n;
          t.hits <- hits
        end;
        t.hits.(!n) <- r;
        incr n
      end
    done
  done;
  !n

(* Prepends the hits [i .. n - 1] to [acc]. *)
let rec take_hits (hits : int array) i n acc =
  if i >= n then acc else take_hits hits (i + 1) n (hits.(i) :: acc)

let scan_all t xors limit =
  let n = List.fold_left (fun n (x : Cnf.Xor_clause.t) -> n + Array.length x.vars) 0 xors in
  if Array.length t.row_cols < n then t.row_cols <- Array.make (2 * n) [||];
  fill_row_cols t.cols t.index t.row_cols 0 xors;
  scan t xors limit 0 [] 0

(* The walk's answer for rows of rank [rank] (-1: contradictory): the
   lowest [limit] of its hits. *)
let walked t ~limit rank =
  if rank < 0 then ([], 0)
  else begin
    let hits = walk t rank in
    sort_hits t hits;
    let k = min limit hits in
    (take_hits t.hits 0 k [], k)
  end

let in_cell t ~limit (xors : Cnf.Xor_clause.t list) =
  let rank =
    (* a cache past the index's budget scans, and so does one too small
       to ever walk *)
    if t.size < index_from || t.size > t.max_indexed then -2
    else begin
      (* a walk is priced first at the rank the rows can have at most,
         where it is cheapest and the scan dearest: a random hash of
         m <= |S| rows nearly always has it *)
      let rows = List.length xors in
      let saving = walk_saving t xors ~limit ~rows (min rows (Array.length t.sampling)) in
      if saving <= 0 then -2
      else begin
        (* members not indexed yet cost [index_cost] each to catch
           up: the walk waits until the lookups that would have walked
           have forgone as much, so a cache that rarely walks, such as
           one that serves a few draws and dies, never pays for an
           index *)
        t.forgone <- t.forgone + saving;
        if t.forgone < (t.size - t.indexed) * index_cost then -2
        else begin
          if Array.length t.masks < rows then begin
            t.masks <- Array.make (2 * rows) 0;
            t.parities <- Array.make (2 * rows) 0;
            t.pivots <- Array.make (2 * rows) 0
          end;
          let rank = eliminate t 0 xors in
          if rank = -1 then rank
          else if walk_saving t xors ~limit ~rows rank <= 0 then -2
          else begin
            catch_up t;
            t.forgone <- 0;
            rank
          end
        end
      end
    end
  in
  let metered = Obs.Metrics.is_enabled () in
  if rank = -2 then begin
    let ((members, k) as out) = scan_all t xors limit in
    if metered then begin
      (* the scan stops in the word of the [limit]-th member *)
      let words =
        if k < limit then (t.size + bits - 1) / bits
        else match members with r :: _ -> (r / bits) + 1 | [] -> 0
      in
      Obs.Metrics.incr c_scan_lookups;
      Obs.Metrics.incr ~by:words c_scan_words
    end;
    out
  end
  else begin
    let out = walked t ~limit rank in
    if metered then begin
      Obs.Metrics.incr c_walk_lookups;
      if rank >= 0 then
        Obs.Metrics.incr ~by:(1 lsl (Array.length t.sampling - rank)) c_walk_points
    end;
    if Audit.is_enabled () then begin
      let expected = scan_all t xors limit in
      if snd expected <> snd out || not (List.equal Int.equal (fst expected) (fst out)) then
        Audit.fail ~invariant:"known-index"
          ~detail:"a cell walked through the index differs from a scan of the members"
          [ ("rows", string_of_int (List.length xors));
            ("rank", string_of_int rank);
            ("size", string_of_int t.size);
            ("indexed", string_of_int t.indexed);
            ("limit", string_of_int limit);
            ("walked", string_of_int (snd out));
            ("scanned", string_of_int (snd expected)) ]
    end;
    out
  end

let audit_cell ?deadline ?models ~who ~limit ~known f xors (count, exhausted) =
  let cell = Cnf.Formula.add_xors f xors in
  let fresh = Sat.Bsat.enumerate ?deadline ~limit cell in
  let fresh_count = List.length fresh.Sat.Bsat.models in
  let sampling = Cnf.Formula.sampling_vars f in
  let projections ms =
    List.sort String.compare
      (List.map (fun m -> Cnf.Model.key (Cnf.Model.restrict m sampling)) ms)
  in
  let fail detail extra =
    Audit.fail ~invariant:"known-cell" ~detail:(who ^ ": " ^ detail)
      ([ ("hash_size", string_of_int (List.length xors));
         ("known", string_of_int known);
         ("count", string_of_int count);
         ("exhausted", string_of_bool exhausted);
         ("fresh_count", string_of_int fresh_count);
         ("fresh_exhausted", string_of_bool fresh.Sat.Bsat.exhausted) ]
      @ extra)
  in
  if not fresh.Sat.Bsat.timed_out then begin
    if fresh_count <> count || fresh.Sat.Bsat.exhausted <> exhausted then
      fail "a cell decided from cached projections differs from a fresh enumeration" [];
    match models with
    | None -> ()
    | Some ms ->
        (match List.find_opt (fun m -> not (Cnf.Model.satisfies cell m)) ms with
        | Some m ->
            fail "a witness of a cell assembled from the cache falsifies the cell"
              [ ("witness",
                 String.concat " " (List.map string_of_int (Cnf.Model.to_dimacs m))) ]
        | None -> ());
        if projections ms <> projections fresh.Sat.Bsat.models then
          fail "a cell assembled from the cache holds other projections than a fresh enumeration"
            []
  end
