(** Machine timeline sampling (schema [srp-timeline-v1]).

    A bounded periodic sampler: every [interval] cycles one JSON-lines
    row records live ALAT entries, RSE dirty/clean stacked registers,
    issue-slot utilization and per-window cache misses — a time axis
    for the end-of-run counter sums.  Rows ride a {!Srp_obs.Trace}
    sink and share its truncation convention.  Default off; attach via
    [Machine.create ~timeline].

    The machine is event-driven, so a sample lands at the first cycle
    boundary at or after each interval mark, and the cache column is
    misses accumulated over the window (the model tracks no in-flight
    miss state).  The sampler only reads machine state: enabling it
    leaves every counter and program output bit-identical. *)

type t

(** [create ?interval sink] (default interval 1000 cycles) writes a
    header row ([{"ev":"timeline.header","schema":"srp-timeline-v1",
    "interval":N}]) and returns the sampler.  Raises [Invalid_argument]
    if [interval < 1]. *)
val create : ?interval:int -> Srp_obs.Trace.sink -> t

(** Has [cycle] crossed the next interval mark?  The machine asks on
    every cycle advance and, when it has, asks {!admit} before it builds
    a {!row}. *)
val due : t -> cycle:int -> bool

(** [admit t ~cycle] asks the sink whether it will write a row at
    [cycle] ({!Srp_obs.Trace.admit}), before the machine reads the state
    the row needs.  A refused row counts one drop and moves the next mark
    strictly past [cycle], as a written one would.  Each [true] must be
    followed by exactly one {!row}. *)
val admit : t -> cycle:int -> bool

(** Emit one row for the machine state at [cycle] and move the next mark
    strictly past it.  The machine also asks for one closing row at the
    end of a run, so programs shorter than one interval still produce a
    timeline. *)
val row :
  t -> cycle:int -> alat_live:int -> rse_dirty:int -> rse_clean:int ->
  instrs:int -> l1_misses:int -> l2_misses:int -> unit
