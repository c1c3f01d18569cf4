(** Deterministic splitmix64 PRNG.

    All randomness in the project (workload input generation, test
    corpora) flows through explicitly seeded instances, so every
    experiment and every test is reproducible bit-for-bit. *)

type t

val create : int -> t

val copy : t -> t

(** Uniform in [0, bound).  @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform in [0, 1). *)
val float : t -> float

(** True with probability [p]. *)
val chance : t -> float -> bool

(** @raise Invalid_argument on an empty array. *)
val pick : t -> 'a array -> 'a

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit
