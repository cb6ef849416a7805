(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256++ generator seeded through splitmix64, so
    that Monte Carlo experiments are reproducible across runs and machines
    independently of the OCaml [Random] module's internals.

    {2 Representation and cost}

    A generator is one unboxed 48-byte block: the four 64-bit xoshiro
    words, the polar method's cached second output and its pending flag.
    {!uint64}, {!float}, {!uniform}, {!normal} and {!gaussian} are
    inlined where the compiler can inline across modules (release
    builds), and then allocate nothing: the state words and the floats
    stay in registers.  {!create} and {!keyed} allocate the block and
    nothing else.  The output sequences, the polar method's rejections
    and its spare are bit-identical to the earlier record-of-[Int64]
    implementation (pinned by hex goldens in the test suite). *)

type t
(** Mutable generator state (abstract; see above). *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed; the state is
    expanded with splitmix64 so that small nearby seeds give independent
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream, advancing [t].
    Used to hand independent streams to parallel experiments. *)

val keyed : int -> key:int -> t
(** [keyed seed ~key] is the [key]-th stream of the run identified by
    [seed]: a pure function of [(seed, key)], with no shared state between
    streams.  Unlike {!split} (which advances the parent and therefore
    depends on creation order), keyed streams can be created in any order
    — or concurrently on worker domains — and always produce the same
    draws.  This is the seeding discipline behind the deterministic
    batched Monte Carlo engine ({!Sta.Mcsta}): one stream per gate, so
    results are independent of batch size and domain count. *)

val copy : t -> t
(** [copy t] is an independent clone of the current state, including a
    pending polar-method spare. *)

val uint64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [[0, 1)] with 53-bit resolution. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform on [[lo, hi)]. *)

val int : t -> int -> int
(** [int t n] is uniform on [[0, n)]; requires [n > 0]. *)

val normal : t -> float
(** Standard normal draw (Marsaglia polar method): every other call
    returns the spare of the previous pair. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal draw with the given mean and standard deviation. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
