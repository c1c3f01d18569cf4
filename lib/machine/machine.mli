(** The machine: functional execution of target code interleaved with an
    in-order pipeline timing model (a 733 MHz Itanium in spirit) that
    charges exactly the numbers of {!Srp_ir.Machine_model} and the
    per-opcode tables of {!Srp_target.Insn}.

    - Issue groups hold up to 6 instructions with at most 2 memory ops and
      2 FP ops per cycle; a register scoreboard stalls issue until operands
      are ready, and stalls whose critical operand came from memory count
      as data-access cycles (the paper's Figure 8 metric).
    - ld.c checks issue as no-ops on a hit (paper section 1) and reload on
      a miss; chk.a failures branch to their recovery routine with a trap
      penalty (section 2.5).
    - ld.sa defers faults via NaT bits; consuming an unchecked NaT value
      raises {!Machine_error} — a compiler bug, not a program fault.
    - Memory is the same region-tracked store as the IR interpreter's, so
      outputs are bit-comparable for differential testing. *)

exception Machine_error of string

exception Out_of_fuel

type t

(** Load a target program: globals placed and initialized, counters zero.
    [fuel] bounds retired instructions (default 200M).  [trace] attaches a
    bounded per-cycle event sink (retires, stalls, ALAT arm/evict/
    invalidate/check events, RSE traffic) — free when absent.  [timeline]
    attaches a periodic occupancy sampler ({!Timeline}); also free when
    absent, and read-only when present (counters and output stay
    bit-identical). *)
val create :
  ?fuel:int -> ?trace:Srp_obs.Trace.sink -> ?timeline:Timeline.t ->
  Srp_target.Insn.program -> t

(** Execute [main]; returns its exit value.  Total cycles land in the
    counters. *)
val run : t -> int64

(** Everything the program printed (print_int/print_float). *)
val output : t -> string

val counters : t -> Counters.t

(** Per-site event attribution accumulated during {!run}: every ALAT
    insert/eviction/invalidation, check and retired load/store charged to
    its originating IR site (the pfmon event-sampling stand-in).  Per-event
    totals equal the corresponding global counters. *)
val site_stats : t -> Srp_obs.Site_hist.t

(** [run_program prog] = create + run; returns
    (exit code, output, counters). *)
val run_program :
  ?fuel:int -> ?trace:Srp_obs.Trace.sink -> ?timeline:Timeline.t ->
  Srp_target.Insn.program -> int64 * string * Counters.t
