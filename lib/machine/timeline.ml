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

module J = Srp_obs.Json

type t = {
  sink : Srp_obs.Trace.sink;
  interval : int;
  mutable next_at : int; (* first cycle eligible for the next sample *)
  (* previous sample's cumulative values, for the per-window deltas *)
  mutable last_cycle : int;
  mutable last_instrs : int;
  mutable last_l1_misses : int;
  mutable last_l2_misses : int;
}

let create ?(interval = 1000) (sink : Srp_obs.Trace.sink) : t =
  if interval < 1 then
    Fmt.invalid_arg "Timeline.create: interval %d" interval;
  (* header row: lets a reader identify the schema and spacing without
     out-of-band context *)
  Srp_obs.Trace.emit sink ~cycle:0 "timeline.header"
    [ ("schema", J.String "srp-timeline-v1"); ("interval", J.Int interval) ];
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
  Srp_obs.Trace.emit t.sink ~cycle "timeline"
    [ ("alat_live", J.Int alat_live);
      ("rse_dirty", J.Int rse_dirty);
      ("rse_clean", J.Int rse_clean);
      ("issue_util", J.Float issue_util);
      ("l1_misses", J.Int (l1_misses - t.last_l1_misses));
      ("l2_misses", J.Int (l2_misses - t.last_l2_misses)) ];
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
  Srp_obs.Trace.admit t.sink
  || begin
    t.next_at <- next_mark t cycle;
    false
  end

(* Has the cycle crossed the next interval mark?  The machine asks on
   every cycle advance, and reads its state for a [row] only then and only
   if the sink [admit]s the row. *)
let due t ~cycle = cycle >= t.next_at
