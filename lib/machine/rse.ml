(* Register Stack Engine model (paper Figure 11).

   Each function allocates its integer register frame at the prologue; a
   fixed pool of physical stacked registers backs the frames of the whole
   call stack.  When an allocation overflows the physical file, the RSE
   spills the oldest frames' registers to the backing store; when a return
   re-exposes a spilled frame, the RSE fills it back, each register
   costing Machine_model.rse_cycles_per_reg either way.  rse_cycles is
   the spill+fill traffic — the paper's observation is that promotion
   grows frames slightly, so rse_cycles can rise by tens of percent while
   remaining a vanishing fraction of total cycles.

   The default pool is Machine_model.rse_pool (24, a scaled-down stand-in
   for Itanium's 96); tests that model the real machine pass
   ~phys_total:96 explicitly. *)

module Model = Srp_ir.Machine_model

type frame = { nregs : int; mutable spilled : int (* regs currently in backing store *) }

type t = {
  mutable stack : frame list; (* innermost first *)
  mutable phys_used : int; (* registers of unspilled (parts of) frames *)
  phys_total : int;
}

let create ?(phys_total = Model.rse_pool) () =
  { stack = []; phys_used = 0; phys_total }

(* Occupancy views for the timeline sampler: dirty = stacked registers
   resident in the physical file (the RSE would have to spill them),
   clean = stacked registers currently saved to the backing store. *)
let dirty t = t.phys_used
let clean t = List.fold_left (fun acc f -> acc + f.spilled) 0 t.stack

(* Allocate a frame of [nregs]; returns cycles spent spilling. *)
let call t (c : Counters.t) ~nregs : int =
  let f = { nregs; spilled = 0 } in
  t.stack <- f :: t.stack;
  t.phys_used <- t.phys_used + nregs;
  if c.Counters.max_stacked_regs < t.phys_used then
    c.Counters.max_stacked_regs <- t.phys_used;
  let spilled = ref 0 in
  if t.phys_used > t.phys_total then begin
    (* spill oldest frames until the new frame fits *)
    let rec spill_oldest = function
      | [] -> ()
      | fs ->
        if t.phys_used <= t.phys_total then ()
        else begin
          let oldest = List.nth fs (List.length fs - 1) in
          let resident = oldest.nregs - oldest.spilled in
          if resident = 0 then
            spill_oldest (List.filteri (fun i _ -> i < List.length fs - 1) fs)
          else begin
            let need = t.phys_used - t.phys_total in
            let n = min resident need in
            oldest.spilled <- oldest.spilled + n;
            t.phys_used <- t.phys_used - n;
            spilled := !spilled + n;
            c.Counters.rse_spilled_regs <- c.Counters.rse_spilled_regs + n;
            if t.phys_used > t.phys_total then
              spill_oldest (List.filteri (fun i _ -> i < List.length fs - 1) fs)
          end
        end
    in
    spill_oldest t.stack
  end;
  let cycles = !spilled * Model.rse_cycles_per_reg in
  c.Counters.rse_cycles <- c.Counters.rse_cycles + cycles;
  cycles

(* Return from the innermost frame; returns cycles spent filling the
   caller's spilled registers. *)
let ret t (c : Counters.t) : int =
  match t.stack with
  | [] -> 0
  | f :: rest ->
    t.phys_used <- t.phys_used - (f.nregs - f.spilled);
    t.stack <- rest;
    let fill_cost =
      match rest with
      | caller :: _ when caller.spilled > 0 ->
        let n = caller.spilled in
        caller.spilled <- 0;
        t.phys_used <- t.phys_used + n;
        c.Counters.rse_filled_regs <- c.Counters.rse_filled_regs + n;
        n * Model.rse_cycles_per_reg
      | _ -> 0
    in
    c.Counters.rse_cycles <- c.Counters.rse_cycles + fill_cost;
    fill_cost
