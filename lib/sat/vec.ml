type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; size = 0; dummy }

let size t = t.size
let capacity t = Array.length t.data
let is_empty t = t.size = 0

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Vec.set";
  t.data.(i) <- x

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t x =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Vec.pop";
  t.size <- t.size - 1;
  let x = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  x

let last t =
  if t.size = 0 then invalid_arg "Vec.last";
  t.data.(t.size - 1)

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

let shrink t n =
  if n < 0 || n > t.size then invalid_arg "Vec.shrink";
  Array.fill t.data n (t.size - n) t.dummy;
  t.size <- n

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.size (fun i -> t.data.(i))
let to_array t = Array.sub t.data 0 t.size

let exists p t =
  let rec go i = i < t.size && (p t.data.(i) || go (i + 1)) in
  go 0

let filter_in_place p t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if p t.data.(i) then begin
      t.data.(!j) <- t.data.(i);
      incr j
    end
  done;
  Array.fill t.data !j (t.size - !j) t.dummy;
  t.size <- !j

let sort cmp t =
  let sub = Array.sub t.data 0 t.size in
  Array.sort cmp sub;
  Array.blit sub 0 t.data 0 t.size
