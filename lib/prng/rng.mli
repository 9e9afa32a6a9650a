(** Deterministic, splittable pseudo-random number generator.

    The paper's implementation uses C++ [random_device]; we substitute a
    seeded xoshiro256** generator (public-domain algorithm by Blackman
    and Vigna) so that every experiment in this repository is exactly
    reproducible from its seed.  Streams can be {!split} so that
    independent components (hash selection, cell selection, witness
    selection) consume independent randomness. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed, expanding it
    through splitmix64 so that nearby seeds yield unrelated streams. *)

val split : t -> t
(** [split t] derives a new generator whose future output is
    statistically independent of [t]'s, advancing [t]. Successive
    splits from one parent yield pairwise-independent streams; use
    this when the number of consumers is discovered dynamically. *)

val of_stream : seed:int -> int -> t
(** [of_stream ~seed index] is the [index]-th member of the stream
    family keyed by [seed] (a pure function of the pair — unlike
    {!split} it does not advance any parent state). The master seed is
    whitened through splitmix64 and offset by [index] times an odd
    constant before the usual four-word expansion, so streams with
    nearby indices are as unrelated as generators from independent
    seeds, and stream [index] is identical no matter how many sibling
    streams exist or in what order they are created. This is the
    seeding discipline of the parallel sampling engine: sample [i]
    always consumes stream [(seed, i)], making batch output invariant
    under the worker count.
    @raise Invalid_argument when [index < 0]. *)

val copy : t -> t
(** Duplicate the current state (both copies then produce the same
    stream — useful in tests). *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val bool : t -> bool
(** A uniformly random boolean. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0].
    Uses rejection sampling, so there is no modulo bias. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniformly random element of a non-empty list. *)

val self_test : unit -> bool
(** Checks the generator against the reference xoshiro256** vectors. *)
