type t = {
  heap : int Vec.t; (* heap of variables *)
  indices : int array; (* var -> position in heap, or -1 *)
  activity : float array; (* var -> score, owned by the solver *)
}

let create n activity =
  { heap = Vec.create ~dummy:0 (); indices = Array.make (n + 1) (-1); activity }

let in_heap t v = v < Array.length t.indices && t.indices.(v) >= 0
let size t = Vec.size t.heap
let lt t a b = t.activity.(a) > t.activity.(b) (* max-heap: "less" = higher score *)

let percolate_up t i =
  let x = Vec.get t.heap i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = Vec.get t.heap parent in
    if lt t x p then begin
      Vec.set t.heap !i p;
      t.indices.(p) <- !i;
      i := parent
    end
    else continue := false
  done;
  Vec.set t.heap !i x;
  t.indices.(x) <- !i

let percolate_down t i =
  let x = Vec.get t.heap i in
  let n = Vec.size t.heap in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= n then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < n && lt t (Vec.get t.heap right) (Vec.get t.heap left) then right
        else left
      in
      let c = Vec.get t.heap child in
      if lt t c x then begin
        Vec.set t.heap !i c;
        t.indices.(c) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  Vec.set t.heap !i x;
  t.indices.(x) <- !i

let insert t v =
  if not (in_heap t v) then begin
    Vec.push t.heap v;
    t.indices.(v) <- Vec.size t.heap - 1;
    percolate_up t (Vec.size t.heap - 1)
  end

let update t v = if in_heap t v then percolate_up t t.indices.(v)

let pop_max t =
  if Vec.size t.heap = 0 then -1
  else begin
    let top = Vec.get t.heap 0 in
    let last = Vec.pop t.heap in
    t.indices.(top) <- -1;
    if Vec.size t.heap > 0 then begin
      Vec.set t.heap 0 last;
      t.indices.(last) <- 0;
      percolate_down t 0
    end;
    top
  end

let snapshot t =
  let heap = Array.init (Vec.size t.heap) (Vec.get t.heap) in
  (heap, Array.copy t.indices)

(* Test-only fault injection: exchange two heap slots WITHOUT updating
   the index map, so the heap/index agreement invariant breaks. *)
let corrupt_swap t i j =
  let n = Vec.size t.heap in
  if i < 0 || j < 0 || i >= n || j >= n || i = j then false
  else begin
    let a = Vec.get t.heap i and b = Vec.get t.heap j in
    Vec.set t.heap i b;
    Vec.set t.heap j a;
    true
  end

let rebuild t vars =
  Vec.iter (fun v -> t.indices.(v) <- -1) t.heap;
  Vec.clear t.heap;
  List.iter (insert t) vars
