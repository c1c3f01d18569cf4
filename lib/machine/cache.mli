(** Two-level data cache with an Itanium-like latency profile.

    Integer L1D hits cost {!Srp_ir.Machine_model.lat_l1} = 2 cycles and
    floating-point loads bypass L1 at {!Srp_ir.Machine_model.lat_fp} = 9
    cycles — both numbers straight from section 4 of the paper, and the
    reason its FP benchmarks gain the most from eliminating loads. *)

type t

(** 16 KiB 4-way L1, 256 KiB 8-way L2, 64-byte lines, LRU. *)
val create : unit -> t

(** Latency of a load at an address; allocates lines and updates the hit
    and miss counters. *)
val load_latency : t -> Counters.t -> fp:bool -> int64 -> int

(** A store refreshes line state; its own latency is hidden (store
    buffering). *)
val store_touch : t -> int64 -> unit
