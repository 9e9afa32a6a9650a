type field = { fid : int; fname : string; fwidth : int }

type bv =
  | Var of field
  | Const of int * int (* value, width *)
  | Add of bv * bv
  | Band of bv * bv
  | Bor of bv * bv
  | Bxor of bv * bv
  | Bnot of bv
  | Zext of bv * int

type pred =
  | Ptrue
  | Eq of bv * bv
  | Ult of bv * bv
  | Ule of bv * bv
  | Parity of bv
  | Bit of bv * int
  | Por of pred * pred
  | Pnot of pred

type spec = {
  sname : string;
  mutable sfields : field list; (* reversed *)
  mutable constraints : pred list;
  mutable sealed : bool;
}

let create sname = { sname; sfields = []; constraints = []; sealed = false }

let field spec ~name ~width =
  if spec.sealed then invalid_arg "Constraint_spec.field: spec already compiled";
  if width < 1 || width > 30 then invalid_arg "Constraint_spec.field: width 1..30";
  if List.exists (fun f -> f.fname = name) spec.sfields then
    invalid_arg (Printf.sprintf "Constraint_spec.field: duplicate name %s" name);
  let f = { fid = List.length spec.sfields; fname = name; fwidth = width } in
  spec.sfields <- f :: spec.sfields;
  f

let rec width = function
  | Var f -> f.fwidth
  | Const (_, w) -> w
  | Add (a, _) | Band (a, _) | Bor (a, _) | Bxor (a, _) | Bnot a -> width a
  | Zext (_, w) -> w

let check_same_width op a b =
  if width a <> width b then
    invalid_arg (Printf.sprintf "Constraint_spec.%s: width mismatch (%d vs %d)" op (width a) (width b))

let var f = Var f

let const ~width:w v =
  if w < 1 || w > 30 then invalid_arg "Constraint_spec.const: width 1..30";
  if v < 0 || v >= 1 lsl w then
    invalid_arg (Printf.sprintf "Constraint_spec.const: %d does not fit in %d bits" v w);
  Const (v, w)

let add a b = check_same_width "add" a b; Add (a, b)
let band a b = check_same_width "band" a b; Band (a, b)
let bor a b = check_same_width "bor" a b; Bor (a, b)
let bxor a b = check_same_width "bxor" a b; Bxor (a, b)
let bnot a = Bnot a

let zero_extend a ~width:w =
  if w < width a then invalid_arg "Constraint_spec.zero_extend: narrower target";
  Zext (a, w)

let eq a b = check_same_width "eq" a b; Eq (a, b)
let ne a b = check_same_width "ne" a b; Pnot (Eq (a, b))
let ult a b = check_same_width "ult" a b; Ult (a, b)
let ule a b = check_same_width "ule" a b; Ule (a, b)
let parity_odd a = Parity a

let bit a i =
  if i < 0 || i >= width a then invalid_arg "Constraint_spec.bit: index out of range";
  Bit (a, i)

let ptrue = Ptrue
let implies a b = Por (Pnot a, b)

let constrain spec p =
  if spec.sealed then invalid_arg "Constraint_spec.constrain: spec already compiled";
  spec.constraints <- p :: spec.constraints

(* ------------------------------------------------------------------ *)
(* Compilation through the circuit substrate                           *)

module B = Circuits.Netlist.Builder

type compiled = {
  cformula : Cnf.Formula.t;
  cfields : field list; (* declaration order *)
  offsets : int array; (* field id -> first input index *)
  input_vars : int array; (* input index -> CNF variable *)
}

let compile spec =
  spec.sealed <- true;
  let fields_ordered = List.rev spec.sfields in
  let b = B.create spec.sname in
  let offsets = Array.make (List.length fields_ordered) 0 in
  (* allocate the stimulus inputs, remembering each field's offset *)
  let next_input = ref 0 in
  let field_words =
    List.map
      (fun f ->
        offsets.(f.fid) <- !next_input;
        next_input := !next_input + f.fwidth;
        (f.fid, Circuits.Arith.input_word b ~width:f.fwidth))
      fields_ordered
  in
  let word_of_field fid = List.assoc fid field_words in
  let rec lower_bv = function
    | Var f -> word_of_field f.fid
    | Const (v, w) -> Circuits.Arith.constant b ~width:w v
    | Add (x, y) ->
        let sum = Circuits.Arith.ripple_adder b (lower_bv x) (lower_bv y) in
        (* drop the carry to stay modulo 2^w *)
        List.filteri (fun i _ -> i < width x) sum
    | Band (x, y) -> List.map2 (B.and_ b) (lower_bv x) (lower_bv y)
    | Bor (x, y) -> List.map2 (B.or_ b) (lower_bv x) (lower_bv y)
    | Bxor (x, y) -> List.map2 (B.xor_ b) (lower_bv x) (lower_bv y)
    | Bnot x -> List.map (B.not_ b) (lower_bv x)
    | Zext (x, w) ->
        let base = lower_bv x in
        base @ List.init (w - width x) (fun _ -> B.const b false)
  in
  let rec lower_pred = function
    | Ptrue -> B.const b true
    | Eq (x, y) -> Circuits.Arith.equal b (lower_bv x) (lower_bv y)
    | Ult (x, y) -> Circuits.Arith.less_than b (lower_bv x) (lower_bv y)
    | Ule (x, y) -> B.not_ b (Circuits.Arith.less_than b (lower_bv y) (lower_bv x))
    | Parity x -> Circuits.Arith.parity b (lower_bv x)
    | Bit (x, i) -> List.nth (lower_bv x) i
    | Por (p, q) -> B.or_ b (lower_pred p) (lower_pred q)
    | Pnot p -> B.not_ b (lower_pred p)
  in
  let all =
    List.fold_left (fun acc p -> B.and_ b acc (lower_pred p))
      (B.const b true) (List.rev spec.constraints)
  in
  B.output b all;
  let nl = B.finish b in
  let enc = Circuits.Tseitin.encode nl in
  {
    cformula = enc.Circuits.Tseitin.formula;
    cfields = fields_ordered;
    offsets;
    input_vars = enc.Circuits.Tseitin.input_vars;
  }

let formula c = c.cformula
let fields c = c.cfields

(* a field's value in a witness of [formula c] *)
let field_value c m f =
  let base = c.offsets.(f.fid) in
  Circuits.Arith.to_int
    (Array.init f.fwidth (fun i -> Cnf.Model.value m c.input_vars.(base + i)))

let decode c m = List.map (fun f -> (f.fname, field_value c m f)) c.cfields
let stimulus_bits c = Array.length c.input_vars
