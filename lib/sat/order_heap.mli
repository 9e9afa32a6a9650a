(** Indexed binary max-heap over variables, ordered by a mutable
    activity score — the VSIDS decision queue.

    The heap stores variable indices [1 .. n]; activities live in an
    external float array that callers mutate through {!update}. *)

type t

val create : int -> float array -> t
(** [create n activity] builds an empty heap for variables [1 .. n]
    with scores read from [activity] (indexed by variable). *)

val in_heap : t -> int -> bool
val insert : t -> int -> unit
(** No-op if the variable is already present. *)

val update : t -> int -> unit
(** Re-establish heap order after the variable's activity increased. *)

val pop_max : t -> int
(** Remove and return the variable with the highest activity, or [-1]
    when the heap is empty. *)

val size : t -> int
val rebuild : t -> int list -> unit
(** Clear and re-insert the given variables. *)

val snapshot : t -> int array * int array
(** [(heap, indices)] copies for the audit sweep: heap contents root
    first, and the full variable -> slot index map ([-1] = absent). *)

val corrupt_swap : t -> int -> int -> bool
(** @deprecated Test-only fault injection for the audit mutation
    tests: swaps two heap slots while deliberately leaving the index
    map stale. Returns [false] (state untouched) when the slots do not
    name two distinct in-range positions. Never call this outside
    tests. *)
