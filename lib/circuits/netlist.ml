type node =
  | Input of int
  | Const of bool
  | Not of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Mux of int * int * int

type t = {
  name : string;
  nodes : node array;
  outputs : int array;
  num_inputs : int;
}

let eval_all t inputs =
  if Array.length inputs <> t.num_inputs then
    invalid_arg
      (Printf.sprintf "Netlist.simulate(%s): expected %d inputs, got %d" t.name
         t.num_inputs (Array.length inputs));
  let values = Array.make (Array.length t.nodes) false in
  Array.iteri
    (fun i node ->
      values.(i) <-
        (match node with
        | Input k -> inputs.(k)
        | Const b -> b
        | Not a -> not values.(a)
        | And (a, b) -> values.(a) && values.(b)
        | Or (a, b) -> values.(a) || values.(b)
        | Xor (a, b) -> values.(a) <> values.(b)
        | Mux (s, a, b) -> if values.(s) then values.(a) else values.(b)))
    t.nodes;
  values

let simulate t inputs =
  let values = eval_all t inputs in
  Array.map (fun o -> values.(o)) t.outputs

let num_gates t =
  Array.fold_left
    (fun acc n -> match n with Input _ | Const _ -> acc | _ -> acc + 1)
    0 t.nodes

module Builder = struct
  type t = {
    bname : string;
    mutable bnodes : node list; (* reversed *)
    mutable size : int;
    mutable boutputs : int list; (* reversed *)
    mutable inputs : int;
  }

  let create name = { bname = name; bnodes = []; size = 0; boutputs = []; inputs = 0 }

  let add b node =
    b.bnodes <- node :: b.bnodes;
    b.size <- b.size + 1;
    b.size - 1

  let check b s =
    if s < 0 || s >= b.size then invalid_arg "Netlist.Builder: dangling signal"

  let input b =
    let k = b.inputs in
    b.inputs <- k + 1;
    add b (Input k)

  let const b v = add b (Const v)

  let not_ b a =
    check b a;
    add b (Not a)

  let and_ b x y =
    check b x;
    check b y;
    add b (And (x, y))

  let or_ b x y =
    check b x;
    check b y;
    add b (Or (x, y))

  let xor_ b x y =
    check b x;
    check b y;
    add b (Xor (x, y))

  let mux b ~sel x y =
    check b sel;
    check b x;
    check b y;
    add b (Mux (sel, x, y))

  let nand_ b x y = not_ b (and_ b x y)
  let xnor_ b x y = not_ b (xor_ b x y)

  let fold_balanced op b = function
    | [] -> invalid_arg "Netlist.Builder: empty signal list"
    | first :: rest -> List.fold_left (op b) first rest

  let and_list b = function [] -> const b true | l -> fold_balanced and_ b l
  let or_list b = function [] -> const b false | l -> fold_balanced or_ b l
  let xor_list b = function [] -> const b false | l -> fold_balanced xor_ b l

  let output b s =
    check b s;
    b.boutputs <- s :: b.boutputs

  let finish b =
    {
      name = b.bname;
      nodes = Array.of_list (List.rev b.bnodes);
      outputs = Array.of_list (List.rev b.boutputs);
      num_inputs = b.inputs;
    }
end
