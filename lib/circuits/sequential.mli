(** Sequential circuits and bounded-model-checking unrolling.

    A sequential circuit is described by its combinational step
    netlist under the convention:

    - netlist inputs: current state bits (first [state_width] inputs),
      then the external inputs of one step;
    - netlist outputs: next state bits (first [state_width] outputs),
      then the observable outputs of one step.

    {!unroll} composes [steps] copies of the step netlist into one
    combinational netlist whose primary inputs are the initial state
    followed by each step's external inputs — exactly the bit-blasted
    BMC construction behind the paper's "s1196a_7_4"-style benchmarks
    (an ISCAS89 circuit unrolled 7 times with properties over 4
    steps, etc.). *)

type t = {
  name : string;
  step : Netlist.t;
  state_width : int;
  input_width : int;  (** external inputs per step *)
  observable_width : int;
}

val create : name:string -> state_width:int -> input_width:int -> Netlist.t -> t
(** Validates the in/out arity convention. *)

val unroll : ?observe_last_only:bool -> steps:int -> t -> Netlist.t
(** Combinational unrolling. Outputs are every step's observables (or
    only the final step's when [observe_last_only], default) followed
    by the final state bits. *)
