(* Machine timeline sampling (schema srp-timeline-v1).

   The counters are end-of-run sums; a timeline gives the Figure-8-style
   narrative a time axis: every [interval] cycles (default 1000) one
   JSON-lines row records the machine's occupancy state — live ALAT
   entries, RSE dirty (resident) vs. clean (backed-store) stacked
   registers, issue-slot utilization and cache misses over the window.
   The machine is event-driven rather than cycle-stepped, so samples are
   taken at the first cycle boundary *at or after* each interval mark
   (a multi-cycle stall lands one row, at its end); for the same reason
   the cache column is misses-per-window, not an instantaneous
   outstanding-miss count — the model has no in-flight state to probe.

   Rows ride the bounded `Trace` sink, so a runaway run truncates with
   the same `{"ev":"truncated","dropped":N}` record as an event trace.
   The sampler only *reads* machine state — enabling it cannot perturb
   a single counter (the differential test pins this). *)

module Trace = Srp_obs.Trace

let k_schema = Trace.key "schema"
let k_interval = Trace.key "interval"
let k_alat_live = Trace.key "alat_live"
let k_rse_dirty = Trace.key "rse_dirty"
let k_rse_clean = Trace.key "rse_clean"
let k_issue_util = Trace.key "issue_util"
let k_l1_misses = Trace.key "l1_misses"
let k_l2_misses = Trace.key "l2_misses"

type t = {
  sink : Trace.sink;
  interval : int;
  mutable next_at : int; (* first cycle eligible for the next sample *)
  (* previous sample's cumulative values, for the per-window deltas *)
  mutable last_cycle : int;
  mutable last_instrs : int;
  mutable last_l1_misses : int;
  mutable last_l2_misses : int;
}

let create ?(interval = 1000) (sink : Trace.sink) : t =
  if interval < 1 then
    Fmt.invalid_arg "Timeline.create: interval %d" interval;
  (* header row: lets a reader identify the schema and spacing without
     out-of-band context *)
  if Trace.admit sink then begin
    Trace.start sink ~cycle:0 "timeline.header";
    Trace.str sink k_schema "srp-timeline-v1";
    Trace.int sink k_interval interval;
    Trace.finish sink
  end;
  { sink; interval; next_at = interval; last_cycle = 0; last_instrs = 0;
    last_l1_misses = 0; last_l2_misses = 0 }

(* The first mark strictly ahead of [cycle], on the interval grid. *)
let next_mark t cycle = ((cycle / t.interval) + 1) * t.interval

let row t ~cycle ~alat_live ~rse_dirty ~rse_clean ~instrs ~l1_misses
    ~l2_misses =
  let dcycles = cycle - t.last_cycle in
  let issue_util =
    if dcycles <= 0 then 0.0
    else
      float_of_int (instrs - t.last_instrs)
      /. float_of_int (Srp_ir.Machine_model.issue_width * dcycles)
  in
  let s = t.sink in
  Trace.start s ~cycle "timeline";
  Trace.int s k_alat_live alat_live;
  Trace.int s k_rse_dirty rse_dirty;
  Trace.int s k_rse_clean rse_clean;
  Trace.float s k_issue_util issue_util;
  Trace.int s k_l1_misses (l1_misses - t.last_l1_misses);
  Trace.int s k_l2_misses (l2_misses - t.last_l2_misses);
  Trace.finish s;
  t.last_cycle <- cycle;
  t.last_instrs <- instrs;
  t.last_l1_misses <- l1_misses;
  t.last_l2_misses <- l2_misses;
  t.next_at <- next_mark t cycle

(* Will the sink write a row at [cycle]?  A refused row moves the next
   mark as a written one would, so the sink counts exactly one drop per
   row it would have written.  The [last_*] values stay put: they only
   feed written rows, and once the sink refuses one it refuses every
   later one. *)
let admit t ~cycle =
  Trace.admit t.sink
  || begin
    t.next_at <- next_mark t cycle;
    false
  end

(* Has the cycle crossed the next interval mark?  The machine asks on
   every cycle advance, and reads its state for a [row] only then and only
   if the sink [admit]s the row. *)
let due t ~cycle = cycle >= t.next_at
