(** Two-level data cache with an Itanium-like latency profile.

    Integer L1D hits cost {!Srp_ir.Machine_model.lat_l1} = 2 cycles and
    floating-point loads bypass L1 at {!Srp_ir.Machine_model.lat_fp} = 9
    cycles — both numbers straight from section 4 of the paper, and the
    reason its FP benchmarks gain the most from eliminating loads. *)

type t

(** One level: [size_bytes] of [line]-byte lines in [ways]-way LRU sets. *)
type level

(** @raise Invalid_argument unless [ways >= 1] and both the line size and
    the set count [size_bytes / (line * ways)] are powers of two (the set
    index is a mask). *)
val level : size_bytes:int -> ways:int -> line:int -> level

(** 16 KiB 4-way L1, 256 KiB 8-way L2, 64-byte lines, LRU. *)
val create : unit -> t

(** Latency of a load at an address; allocates lines and updates the hit
    and miss counters. *)
val load_latency : t -> Counters.t -> fp:bool -> int -> int

(** A store refreshes line state; its own latency is hidden (store
    buffering). *)
val store_touch : t -> int -> unit
