(* The modeled machine: every latency, port, penalty and pool size the
   simulator charges, defined once, plus the two prices the promoter's
   ledger adds on top (the check issue tax and the register round trip,
   at the end).  The simulator (srp_machine) executes from these numbers,
   the list scheduler (srp_target) schedules against them, and the
   promoter's cost model (srp_core) prices only from them, so the
   compiler's prices cannot drift from the machine's charges.  Facts about
   individual opcodes (result latencies, issue classes) live next to the
   opcodes in Srp_target.Insn; the bundle templates live in
   Srp_target.Bundle.slots.

   A 733 MHz Itanium in spirit; the load latencies are the ones the paper
   quotes in section 4. *)

(* --- issue --- *)

let issue_width = 6 (* instructions per issue group (one cycle) *)
let mem_ports = 2 (* memory ops per cycle *)
let fp_ports = 2 (* FP ops per cycle *)

(* bundle-wise dispersal: up to two bundles per cycle, whose templates may
   reserve at most 2 M, 2 F and 3 B units across the window *)
let bundles_per_cycle = 2
let m_ports = 2
let f_ports = 2
let b_ports = 3

(* --- load latencies (cycles until the loaded value is ready) --- *)

let lat_l1 = 2 (* integer L1D hit *)
let lat_fp = 9 (* FP loads bypass L1 and are served from L2 *)
let lat_l2 = 13 (* integer L1 miss, L2 hit *)
let lat_mem = 150 (* L2 miss *)

(* the L1-hit latency one load of [mty] costs: what promoting it saves *)
let load_latency : Mem_ty.t -> int = function
  | Mem_ty.I64 -> lat_l1
  | Mem_ty.F64 -> lat_fp

(* --- penalties --- *)

(* static misprediction (backward taken / forward not taken) flush *)
let mispredict_penalty = 6

(* a failed chk.a flushes like a mispredict, then a light trap vectors
   into the recovery code: 10 cycles of dispatch on top of the flush *)
let check_recovery_penalty = mispredict_penalty + 10

(* the allocator runtime behind one alloc (malloc) *)
let alloc_cycles = 20

(* --- register stack engine --- *)

(* Physical stacked registers backing the frames of the whole call stack:
   a scaled-down stand-in for Itanium's 96, matching the scaled-down
   kernels (at 96 no kernel's call stack ever overflows, which would make
   the RSE columns identically zero). *)
let rse_pool = 24

(* backing-store traffic: cycles per register spilled, and per register
   filled back *)
let rse_cycles_per_reg = 1

(* --- promotion prices derived from the machine --- *)

(* Amortized cycles one *executed* check costs even when it hits: a ld.c
   needs no memory slot and retires in zero latency, but it still occupies
   bundle space, keeps its ALAT entry live, and feeds the RSE an extra
   stacked register.  A quarter cycle per execution matches the overhead
   measured on the kernel suite; whole-cycle charges over-tax checks that
   ride in otherwise short issue groups. *)
let check_issue_cost = 0.25

(* The marginal price of one register claimed over the RSE pool: a spill
   plus a fill at the RSE's per-register rate.  The float class is not
   RSE-stacked but is charged the same round trip (a memory spill and
   reload per occurrence). *)
let spill_cost = 2 * rse_cycles_per_reg
