(** Growable arrays (the workhorse container of the solver).

    A [Vec] owns a backing array that doubles on demand; elements past
    [size] hold the [dummy] supplied at creation and must not be
    observed. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val size : 'a t -> int
val capacity : 'a t -> int
(** Current backing-array length; [size t <= capacity t] always. *)

val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element; raises [Invalid_argument] on
    an empty vector. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink t n] drops elements so that exactly [n] remain. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array
(** A fresh array of the [size] elements, in order. *)

val exists : ('a -> bool) -> 'a t -> bool
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
