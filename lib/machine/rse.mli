(** Register Stack Engine model (paper Figure 11).

    Every function allocates its integer register frame at the prologue;
    a fixed pool of physical stacked registers (default
    {!Srp_ir.Machine_model.rse_pool}) backs the frames of the whole call
    stack.  Overflow spills the oldest frames to the backing store, a
    return that re-exposes a spilled frame fills it back, each at
    {!Srp_ir.Machine_model.rse_cycles_per_reg} per register.
    The paper's observation — promotion widens frames slightly, so RSE
    traffic can rise by tens of percent while remaining a vanishing
    fraction of execution — reproduces through this model. *)

type t

val create : ?phys_total:int -> unit -> t

(** Allocate a frame of [nregs] registers; returns spill cycles and
    updates the counters. *)
val call : t -> Counters.t -> nregs:int -> int

(** Return from the innermost frame; returns fill cycles. *)
val ret : t -> Counters.t -> int

(** Stacked registers resident in the physical file (would need a spill
    to evict) — the timeline sampler's "rse_dirty". *)
val dirty : t -> int

(** Stacked registers currently saved to the backing store — the
    sampler's "rse_clean". *)
val clean : t -> int
