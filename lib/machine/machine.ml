(* The machine: functional execution of target code interleaved with an
   in-order pipeline timing model (a 733 MHz Itanium in spirit).  Every
   number it charges comes from Srp_ir.Machine_model (widths, ports,
   penalties) and Insn (per-opcode latencies and issue classes).

   Timing model: instructions issue in order; an issue group holds up to
   [issue_width] instructions with at most [mem_ports] memory ops and
   [fp_ports] FP ops per cycle.  A scoreboard of per-register ready times
   stalls issue until operands are ready; stall cycles whose critical
   operand was produced by a memory operation count as data-access cycles
   (the paper's second metric in Figure 8).  Taken-branch redirects cost
   one bubble; mispredictions (static backward-taken/forward-not-taken)
   cost a [mispredict_penalty] flush.

   Functional model: memory is the same region-tracked store the IR
   interpreter uses, so outputs are bit-comparable for differential
   testing.  NaT bits give ld.sa its deferred-fault semantics; reading a
   NaT register anywhere but a check is a simulator error (it would mean
   the compiler consumed an unchecked speculative value). *)

open Srp_target
module Value = Srp_profile.Value
module Memory = Srp_profile.Memory
module Location = Srp_alias.Location
module Site_hist = Srp_obs.Site_hist
module Trace = Srp_obs.Trace
module J = Srp_obs.Json
module Model = Srp_ir.Machine_model

exception Machine_error of string

let merror fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

exception Out_of_fuel

(* A function with each call site's callee resolved once per program:
   [callees.(pc)] is the target of the [Call] at [pc], [None] elsewhere and
   for a call to an unknown function (an error only if it executes). *)
type rfunc = { func : Insn.func; callees : rfunc option array }

type frame = {
  uid : int;
  func : Insn.func;
  callees : rfunc option array; (* of [func] *)
  iregs : Value.t array;
  fregs : Value.t array;
  inat : bool array;
  fnat : bool array;
  iready : int array; (* scoreboard: cycle the register value is ready *)
  fready : int array;
  imem : bool array; (* producer was a memory op *)
  fmem : bool array;
}

type t = {
  mem : Memory.t;
  globals : Value.t option array; (* symbol id -> address, as a value *)
  funcs : (string, rfunc) Hashtbl.t;
  alat : Alat.t;
  cache : Cache.t;
  rse : Rse.t;
  c : Counters.t;
  site_stats : Site_hist.t;
  trace : Trace.sink option;
  timeline : Timeline.t option;
  output : Buffer.t;
  mutable cycle : int;
  mutable group_slots : int; (* instructions issued in the current cycle *)
  mutable group_mem : int;
  mutable group_fp : int;
  (* bundle-wise dispersal state (only driven for bundled functions): how
     many bundles entered the current issue group, the M/F/B ports their
     templates reserve, and whether the last dispersed bundle carried an
     end-of-group stop bit *)
  mutable group_bundles : int;
  mutable group_m_ports : int;
  mutable group_f_ports : int;
  mutable group_b_ports : int;
  mutable pending_stop : bool;
  mutable frame_uid : int;
  mutable fuel : int;
  mutable sp : int64;
}

(* The (M, F, B) dispersal ports each template reserves — pads reserve
   their slot's unit too: dispersal routes by template, not by what the
   syllable turns out to do.  Counted once from Bundle.slots. *)
let template_ports : Insn.template -> int * int * int =
  let ports t =
    let s = Bundle.slots t in
    let n u = Array.fold_left (fun k x -> if x = u then k + 1 else k) 0 s in
    (n Bundle.M, n Bundle.F, n Bundle.B)
  in
  let mii = ports Insn.MII and mmi = ports Insn.MMI and mib = ports Insn.MIB
  and mmb = ports Insn.MMB and mfi = ports Insn.MFI and mmf = ports Insn.MMF
  and mbb = ports Insn.MBB and bbb = ports Insn.BBB in
  function
  | Insn.MII -> mii | Insn.MMI -> mmi | Insn.MIB -> mib | Insn.MMB -> mmb
  | Insn.MFI -> mfi | Insn.MMF -> mmf | Insn.MBB -> mbb | Insn.BBB -> bbb

let resolve_funcs (prog : Insn.program) : (string, rfunc) Hashtbl.t =
  let funcs = Hashtbl.create (Hashtbl.length prog.Insn.funcs) in
  Hashtbl.iter
    (fun name (func : Insn.func) ->
      Hashtbl.replace funcs name
        { func; callees = Array.make (Array.length func.Insn.code) None })
    prog.Insn.funcs;
  Hashtbl.iter
    (fun _ (rf : rfunc) ->
      Array.iteri
        (fun pc -> function
          | Insn.Call { callee; _ } -> rf.callees.(pc) <- Hashtbl.find_opt funcs callee
          | _ -> ())
        rf.func.Insn.code)
    funcs;
  funcs

let create ?(fuel = 200_000_000) ?trace ?timeline (prog : Insn.program) : t =
  let mem = Memory.create () in
  let n_ids =
    List.fold_left (fun n (s, _) -> max n (Srp_ir.Symbol.id s + 1)) 0 prog.Insn.globals
  in
  let globals = Array.make n_ids None in
  List.iter
    (fun (s, init) ->
      let base =
        Memory.alloc mem ~size:(Srp_ir.Symbol.size_bytes s) ~loc:(Location.Sym s)
      in
      globals.(Srp_ir.Symbol.id s) <- Some (Value.Vint base);
      (match init with
      | Srp_ir.Program.Init_zero -> ()
      | Srp_ir.Program.Init_ints vs ->
        Array.iteri
          (fun i v ->
            Memory.store mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vint v))
          vs
      | Srp_ir.Program.Init_floats vs ->
        Array.iteri
          (fun i v ->
            Memory.store mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vflt v))
          vs))
    prog.Insn.globals;
  { mem; globals; funcs = resolve_funcs prog; alat = Alat.create ();
    cache = Cache.create (); rse = Rse.create (); c = Counters.create ();
    site_stats = Site_hist.create (); trace; timeline;
    output = Buffer.create 256;
    cycle = 0; group_slots = 0; group_mem = 0; group_fp = 0;
    group_bundles = 0; group_m_ports = 0; group_f_ports = 0;
    group_b_ports = 0; pending_stop = false; frame_uid = 0;
    fuel; sp = 0x4000_0000L }

(* --- observability helpers --- *)

(* Per-site event attribution (pfmon stand-in): every ALAT-relevant event
   is charged to the IR site that caused it. *)
let ev m ~site e = Site_hist.record m.site_stats ~site e

(* Every call site tests [traced] before building its field list, so an
   unobserved run builds no trace records at all. *)
let traced m = m.trace != None

let tr m kind fields =
  match m.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~cycle:m.cycle kind fields

let hex a = Printf.sprintf "0x%Lx" a

let op_name : Insn.insn -> string = function
  | Insn.Movl _ -> "movl"
  | Insn.Gaddr _ -> "gaddr"
  | Insn.Mov _ -> "mov"
  | Insn.Alu _ -> "alu"
  | Insn.Falu _ -> "falu"
  | Insn.Fcmp _ -> "fcmp"
  | Insn.Itof _ -> "itof"
  | Insn.Ftoi _ -> "ftoi"
  | Insn.Ld { kind = Insn.K_ld; _ } -> "ld"
  | Insn.Ld { kind = Insn.K_ld_a; _ } -> "ld.a"
  | Insn.Ld { kind = Insn.K_ld_sa; _ } -> "ld.sa"
  | Insn.Ld { kind = Insn.K_ld_c { clear = true }; _ } -> "ld.c.clr"
  | Insn.Ld { kind = Insn.K_ld_c { clear = false }; _ } -> "ld.c.nc"
  | Insn.St _ -> "st"
  | Insn.Chk_a _ -> "chk.a"
  | Insn.Invala_e _ -> "invala.e"
  | Insn.Sel _ -> "sel"
  | Insn.Br _ -> "br"
  | Insn.Brc _ -> "brc"
  | Insn.Call _ -> "call"
  | Insn.Ret _ -> "ret"
  | Insn.Alloc _ -> "alloc"
  | Insn.Print _ -> "print"
  | Insn.Nop -> "nop"

(* --- timing helpers --- *)

(* Timeline hook: fires on every cycle advance, read-only — it cannot
   perturb a counter (the on/off differential test holds the machine
   bit-identical either way). *)
let sample m =
  match m.timeline with
  | None -> ()
  | Some tl ->
    Timeline.maybe_sample tl ~cycle:m.cycle
      ~alat_live:(Alat.occupancy m.alat)
      ~rse_dirty:(Rse.dirty m.rse) ~rse_clean:(Rse.clean m.rse)
      ~instrs:m.c.Counters.instrs_retired
      ~l1_misses:m.c.Counters.l1_misses ~l2_misses:m.c.Counters.l2_misses

let new_group m =
  if m.group_slots > 0 then begin
    m.cycle <- m.cycle + 1;
    m.group_slots <- 0;
    m.group_mem <- 0;
    m.group_fp <- 0;
    m.group_bundles <- 0;
    m.group_m_ports <- 0;
    m.group_f_ports <- 0;
    m.group_b_ports <- 0;
    m.pending_stop <- false;
    sample m
  end

let advance_cycles m n =
  if n > 0 then begin
    new_group m;
    m.cycle <- m.cycle + n;
    sample m
  end

(* Stall until [ready]; attribute to data access if [mem_src]. *)
let wait_until m ~ready ~mem_src =
  if ready > m.cycle then begin
    new_group m;
    if ready > m.cycle then begin
      let stall = ready - m.cycle in
      m.cycle <- ready;
      if mem_src then
        m.c.Counters.data_access_cycles <- m.c.Counters.data_access_cycles + stall;
      if traced m then tr m "stall" [ ("n", J.Int stall); ("mem", J.Bool mem_src) ];
      sample m
    end
  end

(* The site a split stall is charged to: the first site-carrying syllable
   of the delayed bundle, -1 when the bundle has none (pads, pure ALU). *)
let bundle_site (code : Insn.insn array) pc =
  let site_of : Insn.insn -> int option = function
    | Insn.Ld { site; _ } | Insn.St { site; _ } | Insn.Chk_a { site; _ }
    | Insn.Brc { site; _ } | Insn.Alloc { site; _ } ->
      Some site
    | _ -> None
  in
  let rec go k =
    if k > 2 || pc + k >= Array.length code then -1
    else match site_of code.(pc + k) with Some s -> s | None -> go (k + 1)
  in
  go 0

(* Bundle-wise dispersal, run whenever execution reaches slot 0 of a
   bundle.  A third bundle in the cycle rolls the group over naturally; a
   *second* bundle blocked by the previous bundle's stop bit or by a
   template port conflict ends the group early — a split, the stall the
   flat-stream model never paid. *)
let enter_bundle m code pc (b : Insn.bundle) =
  let pm, pf, pb = template_ports b.Insn.tmpl in
  if m.group_bundles >= Model.bundles_per_cycle then new_group m
  else if
    m.group_bundles = 1
    && (m.pending_stop
       || m.group_m_ports + pm > Model.m_ports
       || m.group_f_ports + pf > Model.f_ports
       || m.group_b_ports + pb > Model.b_ports)
  then begin
    let was_stop = m.pending_stop in
    m.c.Counters.split_stalls <- m.c.Counters.split_stalls + 1;
    ev m ~site:(bundle_site code pc) Srp_obs.Site_hist.Split_stalls;
    if traced m then tr m "split" [ ("pc", J.Int pc); ("stop", J.Bool was_stop) ];
    new_group m
  end;
  m.group_bundles <- m.group_bundles + 1;
  m.group_m_ports <- m.group_m_ports + pm;
  m.group_f_ports <- m.group_f_ports + pf;
  m.group_b_ports <- m.group_b_ports + pb;
  m.pending_stop <- b.Insn.stop;
  m.c.Counters.bundles_retired <- m.c.Counters.bundles_retired + 1

(* Issue one instruction, taking a memory and/or FP port by its class. *)
let issue_slot m (ins : Insn.insn) =
  let mem = Insn.takes_mem ins and fp = Insn.takes_fp ins in
  if
    m.group_slots >= Model.issue_width
    || (mem && m.group_mem >= Model.mem_ports)
    || (fp && m.group_fp >= Model.fp_ports)
  then new_group m;
  m.group_slots <- m.group_slots + 1;
  if mem then m.group_mem <- m.group_mem + 1;
  if fp then m.group_fp <- m.group_fp + 1;
  m.c.Counters.instrs_retired <- m.c.Counters.instrs_retired + 1;
  m.fuel <- m.fuel - 1;
  if m.fuel <= 0 then raise Out_of_fuel

(* --- register access --- *)

let read_int fr m r : Value.t =
  if fr.inat.(r) then merror "read of NaT integer register r%d" r;
  wait_until m ~ready:fr.iready.(r) ~mem_src:fr.imem.(r);
  fr.iregs.(r)

let read_fp fr m r : Value.t =
  if fr.fnat.(r) then merror "read of NaT float register f%d" r;
  wait_until m ~ready:fr.fready.(r) ~mem_src:fr.fmem.(r);
  fr.fregs.(r)

let write_int fr r v ~ready ~mem =
  fr.iregs.(r) <- v;
  fr.inat.(r) <- false;
  fr.iready.(r) <- ready;
  fr.imem.(r) <- mem

let write_fp fr r v ~ready ~mem =
  fr.fregs.(r) <- v;
  fr.fnat.(r) <- false;
  fr.fready.(r) <- ready;
  fr.fmem.(r) <- mem

let read_src fr m (s : Insn.src) : Value.t =
  match s with
  | Insn.SReg r -> read_int fr m r
  | Insn.SImm i -> Value.Vint i
  | Insn.SFrg f -> read_fp fr m f
  | Insn.SFim x -> Value.Vflt x

let write_dest fr (d : Insn.dest) v ~ready ~mem =
  match d with
  | Insn.DInt r -> write_int fr r v ~ready ~mem
  | Insn.DFlt f -> write_fp fr f v ~ready ~mem

(* --- ALU semantics --- *)

let ialu_eval (op : Insn.ialu) a b : Value.t =
  let open Srp_ir.Ops in
  let irop =
    match op with
    | Insn.Aadd -> Add | Insn.Asub -> Sub | Insn.Amul -> Mul
    | Insn.Adiv -> Div | Insn.Arem -> Rem | Insn.Aand -> And
    | Insn.Aor -> Or | Insn.Axor -> Xor | Insn.Ashl -> Shl
    | Insn.Ashr -> Shr | Insn.Acmp_eq -> Eq | Insn.Acmp_ne -> Ne
    | Insn.Acmp_lt -> Lt | Insn.Acmp_le -> Le | Insn.Acmp_gt -> Gt
    | Insn.Acmp_ge -> Ge
  in
  Value.binop irop a b

let falu_eval (op : Insn.falu) a b : Value.t =
  let open Srp_ir.Ops in
  let irop =
    match op with
    | Insn.FAadd -> FAdd | Insn.FAsub -> FSub | Insn.FAmul -> FMul
    | Insn.FAdiv -> FDiv
  in
  Value.binop irop a b

let fcmp_eval (op : Insn.fcmp) a b : Value.t =
  let open Srp_ir.Ops in
  let irop =
    match op with
    | Insn.FCeq -> FEq | Insn.FCne -> FNe | Insn.FClt -> FLt
    | Insn.FCle -> FLe | Insn.FCgt -> FGt | Insn.FCge -> FGe
  in
  Value.binop irop a b

(* coerce a raw memory value to the view the destination register expects *)
let coerce_loaded (d : Insn.dest) (v : Value.t) : Value.t =
  match d, v with
  | Insn.DFlt _, Value.Vint 0L -> Value.Vflt 0.0 (* zero-initialized cell *)
  | Insn.DFlt _, Value.Vint bits -> Value.Vflt (Int64.float_of_bits bits)
  | Insn.DInt _, Value.Vflt x -> Value.Vint (Int64.bits_of_float x)
  | _, v -> v

let alat_tag fr (d : Insn.dest) : Alat.tag =
  match d with
  | Insn.DInt r -> Alat.int_tag ~frame:fr.uid r
  | Insn.DFlt f -> Alat.fp_tag ~frame:fr.uid f

(* The data access of every load kind: cache timing, the value, and the
   retired-load counts. *)
let do_load m fr (dst : Insn.dest) a site =
  let fp = match dst with Insn.DFlt _ -> true | Insn.DInt _ -> false in
  let lat = Cache.load_latency m.cache m.c ~fp a in
  let v = coerce_loaded dst (Memory.load m.mem a) in
  m.c.Counters.loads_retired <- m.c.Counters.loads_retired + 1;
  ev m ~site Site_hist.Loads_retired;
  if fp then begin
    m.c.Counters.fp_loads_retired <- m.c.Counters.fp_loads_retired + 1;
    ev m ~site Site_hist.Fp_loads_retired
  end;
  write_dest fr dst v ~ready:(m.cycle + lat) ~mem:true

(* Arm an ALAT entry and attribute the insert (and any capacity eviction,
   charged to the evicted entry's arming site). *)
let arm m tag a site =
  m.c.Counters.alat_inserts <- m.c.Counters.alat_inserts + 1;
  ev m ~site Site_hist.Alat_inserts;
  match Alat.insert ~site m.alat tag a with
  | None -> ()
  | Some victim_site ->
    m.c.Counters.alat_evictions <- m.c.Counters.alat_evictions + 1;
    ev m ~site:victim_site Site_hist.Alat_evictions;
    if traced m then
      tr m "alat.evict" [ ("site", J.Int site); ("victim", J.Int victim_site) ]

(* --- execution --- *)

let rec exec_function m (rf : rfunc) (args : Value.t list) : Value.t option =
  let func = rf.func in
  m.frame_uid <- m.frame_uid + 1;
  let fr =
    { uid = m.frame_uid; func; callees = rf.callees;
      iregs = Array.make (max 1 func.Insn.nregs) (Value.Vint 0L);
      fregs = Array.make (max 1 func.Insn.nfregs) (Value.Vflt 0.0);
      inat = Array.make (max 1 func.Insn.nregs) false;
      fnat = Array.make (max 1 func.Insn.nfregs) false;
      iready = Array.make (max 1 func.Insn.nregs) 0;
      fready = Array.make (max 1 func.Insn.nfregs) 0;
      imem = Array.make (max 1 func.Insn.nregs) false;
      fmem = Array.make (max 1 func.Insn.nfregs) false }
  in
  (* stack frame memory: a descending stack whose addresses are reused
     across calls, as on real hardware — ALAT partial tags of frame slots
     must be stable, not sweep the tag space *)
  let frame_size = ((func.Insn.frame_bytes + 7) / 8 * 8) + 8 in
  let saved_sp = m.sp in
  m.sp <- Int64.sub m.sp (Int64.of_int frame_size);
  let frame_base =
    Memory.alloc_at m.mem ~base:m.sp ~size:func.Insn.frame_bytes
      ~loc:(Location.Heap (-1) (* anonymous stack region *))
  in
  fr.iregs.(Insn.sp) <- Value.Vint frame_base;
  (* argument arrival *)
  List.iteri
    (fun i v ->
      match List.nth_opt func.Insn.formals i with
      | Some (_, Insn.DInt r) -> fr.iregs.(r) <- v
      | Some (_, Insn.DFlt f) -> fr.fregs.(f) <- v
      | None -> ())
    args;
  (* RSE charge for the new register frame *)
  let spill = Rse.call m.rse m.c ~nregs:func.Insn.nregs in
  if spill > 0 && traced m then
    tr m "rse.spill" [ ("regs", J.Int spill); ("f", J.String func.Insn.name) ];
  advance_cycles m spill;
  let result = exec_from m fr 0 in
  let fill = Rse.ret m.rse m.c in
  if fill > 0 && traced m then tr m "rse.fill" [ ("regs", J.Int fill) ];
  advance_cycles m fill;
  Alat.purge_frame m.alat ~frame:fr.uid;
  Memory.free m.mem frame_base;
  m.sp <- saved_sp;
  result

and exec_from m fr pc : Value.t option =
  if pc < 0 || pc >= Array.length fr.func.Insn.code then
    merror "%s: pc %d out of range" fr.func.Insn.name pc;
  (* bundle-wise fetch: crossing into slot 0 disperses the next bundle *)
  (match fr.func.Insn.bundles with
  | Some bs when pc mod 3 = 0 ->
    enter_bundle m fr.func.Insn.code pc bs.(pc / 3)
  | _ -> ());
  let ins = fr.func.Insn.code.(pc) in
  (* per-instruction retire record *)
  if traced m then
    tr m "i"
      [ ("f", J.String fr.func.Insn.name); ("pc", J.Int pc);
        ("op", J.String (op_name ins)) ];
  match ins with
  | Insn.Movl { dst; imm } ->
    issue_slot m ins;
    write_int fr dst (Value.Vint imm) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Gaddr { dst; sym } ->
    issue_slot m ins;
    let known = sym >= 0 && sym < Array.length m.globals in
    let addr =
      match if known then m.globals.(sym) else None with
      | Some a -> a
      | None -> merror "unknown global symbol id %d" sym
    in
    write_int fr dst addr ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Mov { dst; src } ->
    let v = read_src fr m src in
    issue_slot m ins;
    write_dest fr dst (coerce_loaded dst v) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Alu { op; dst; a; b } ->
    let va = read_src fr m a and vb = read_src fr m b in
    issue_slot m ins;
    write_int fr dst (ialu_eval op va vb)
      ~ready:(m.cycle + Insn.ialu_latency op) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Falu { op; dst; a; b } ->
    let va = read_src fr m a and vb = read_src fr m b in
    issue_slot m ins;
    write_fp fr dst (falu_eval op va vb)
      ~ready:(m.cycle + Insn.falu_latency op) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Fcmp { op; dst; a; b } ->
    let va = read_src fr m a and vb = read_src fr m b in
    issue_slot m ins;
    write_int fr dst (fcmp_eval op va vb)
      ~ready:(m.cycle + Insn.fcmp_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Itof { dst; src } ->
    let v = read_src fr m src in
    issue_slot m ins;
    write_fp fr dst (Value.Vflt (Int64.to_float (Value.to_int v)))
      ~ready:(m.cycle + Insn.cvt_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Ftoi { dst; src } ->
    let v = read_src fr m src in
    issue_slot m ins;
    write_int fr dst (Value.Vint (Int64.of_float (Value.to_flt v)))
      ~ready:(m.cycle + Insn.cvt_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Ld { kind; dst; base; site } -> exec_load m fr pc ins kind dst base site
  | Insn.St { src; base; site } ->
    let v = read_src fr m src in
    let a = Value.to_int (read_int fr m base) in
    issue_slot m ins;
    Memory.store m.mem a v;
    Cache.store_touch m.cache a;
    m.c.Counters.stores_retired <- m.c.Counters.stores_retired + 1;
    ev m ~site Site_hist.Stores_retired;
    let victims = Alat.store_probe_sites m.alat a in
    let inv = List.length victims in
    m.c.Counters.alat_store_invalidations <-
      m.c.Counters.alat_store_invalidations + inv;
    (* the invalidation is charged to the load site whose entry died *)
    List.iter (fun vs -> ev m ~site:vs Site_hist.Alat_store_invalidations) victims;
    if inv > 0 && traced m then
      tr m "alat.inval"
        [ ("site", J.Int site); ("addr", J.String (hex a));
          ("victims", J.Arr (List.map (fun s -> J.Int s) victims)) ];
    exec_from m fr (pc + 1)
  | Insn.Chk_a { tag; recovery; site } ->
    issue_slot m ins;
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    if Alat.check m.alat (alat_tag fr tag) ~clear:false then exec_from m fr (pc + 1)
    else begin
      (* branch to recovery: a light trap plus pipeline redirect *)
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      if traced m then
        tr m "chk.a.fail" [ ("site", J.Int site); ("recovery", J.Int recovery) ];
      advance_cycles m Model.check_recovery_penalty;
      exec_from m fr recovery
    end
  | Insn.Invala_e { tag } ->
    issue_slot m ins;
    m.c.Counters.invala_retired <- m.c.Counters.invala_retired + 1;
    Alat.remove m.alat (alat_tag fr tag);
    exec_from m fr (pc + 1)
  | Insn.Sel { dst; cond; if_true; if_false } ->
    let vc = read_int fr m cond in
    let vt = read_src fr m if_true and vf = read_src fr m if_false in
    issue_slot m ins;
    let v = if Value.truthy vc then vt else vf in
    write_dest fr dst (coerce_loaded dst v) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Br { target } ->
    issue_slot m ins;
    new_group m; (* taken-branch redirect *)
    exec_from m fr target
  | Insn.Brc { cond; ifso; ifnot; site } ->
    let vc = read_int fr m cond in
    issue_slot m ins;
    let taken = Value.truthy vc in
    let target = if taken then ifso else ifnot in
    (* Static prediction: backward taken, forward not taken, decided by the
       branch *direction* (ifso relative to the branch pc) — a taken forward
       branch flushes even when ifso = pc + 1.  A correctly predicted branch
       still pays a 1-bubble front-end redirect unless it falls through. *)
    let predicted_taken = ifso < pc in
    if taken <> predicted_taken then begin
      m.c.Counters.branch_mispredicts <- m.c.Counters.branch_mispredicts + 1;
      ev m ~site Site_hist.Branch_mispredicts;
      if traced m then
        tr m "br.mispredict"
          [ ("site", J.Int site); ("pc", J.Int pc); ("taken", J.Bool taken) ];
      advance_cycles m Model.mispredict_penalty
    end
    else if target <> pc + 1 then new_group m;
    exec_from m fr target
  | Insn.Call { callee; args; ret } -> (
    let vargs = List.map (read_src fr m) args in
    issue_slot m ins;
    new_group m;
    let g =
      match fr.callees.(pc) with
      | Some g -> g
      | None -> merror "call to unknown function %s" callee
    in
    let r = exec_function m g vargs in
    new_group m;
    (match ret, r with
    | Some d, Some v -> write_dest fr d (coerce_loaded d v) ~ready:(m.cycle + 1) ~mem:false
    | Some _, None -> merror "%s returned no value" callee
    | None, _ -> ());
    exec_from m fr (pc + 1))
  | Insn.Ret { value } ->
    let v = Option.map (read_src fr m) value in
    issue_slot m ins;
    new_group m;
    v
  | Insn.Alloc { dst; nbytes; site } ->
    let n = Int64.to_int (Value.to_int (read_src fr m nbytes)) in
    issue_slot m ins;
    advance_cycles m Model.alloc_cycles;
    let base = Memory.alloc m.mem ~size:(max 8 n) ~loc:(Location.Heap site) in
    write_int fr dst (Value.Vint base) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Print { what; as_float } ->
    let v = read_src fr m what in
    issue_slot m ins;
    if as_float then Buffer.add_string m.output (Fmt.str "%.6f\n" (Value.to_flt v))
    else Buffer.add_string m.output (Fmt.str "%Ld\n" (Value.to_int v));
    exec_from m fr (pc + 1)
  | Insn.Nop ->
    issue_slot m ins;
    m.c.Counters.nops_emitted <- m.c.Counters.nops_emitted + 1;
    exec_from m fr (pc + 1)

and exec_load m fr pc ins (kind : Insn.ld_kind) (dst : Insn.dest) base site :
    Value.t option =
  let a = Value.to_int (read_int fr m base) in
  issue_slot m ins;
  (match kind with
  | Insn.K_ld -> do_load m fr dst a site
  | Insn.K_ld_a ->
    do_load m fr dst a site;
    if traced m then tr m "alat.arm" [ ("site", J.Int site); ("addr", J.String (hex a)) ];
    arm m (alat_tag fr dst) a site
  | Insn.K_ld_sa -> (
    (* control-speculative: defer faults with NaT, no ALAT entry on fault *)
    match Memory.location_of_addr m.mem a with
    | Some _ ->
      do_load m fr dst a site;
      arm m (alat_tag fr dst) a site
    | None -> (
      if traced m then tr m "ld.sa.nat" [ ("site", J.Int site) ];
      (* IA-64: a deferred fault also invalidates any matching ALAT entry,
         so a later ld.c on this register misses and reloads instead of
         validating a stale entry left by a previous occupant of the
         (possibly reused) register *)
      Alat.remove m.alat (alat_tag fr dst);
      match dst with
      | Insn.DInt r -> fr.inat.(r) <- true
      | Insn.DFlt f -> fr.fnat.(f) <- true))
  | Insn.K_ld_c { clear } ->
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    let tag = alat_tag fr dst in
    if Alat.check m.alat tag ~clear then begin
      (* hit: the register already holds valid data; zero-latency *)
      (match dst with
      | Insn.DInt r -> if fr.inat.(r) then merror "ld.c hit on NaT register"
      | Insn.DFlt f -> if fr.fnat.(f) then merror "ld.c hit on NaT register")
    end
    else begin
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      if traced m then
        tr m "ld.c.miss" [ ("site", J.Int site); ("addr", J.String (hex a)) ];
      do_load m fr dst a site;
      if not clear then arm m tag a site
    end);
  exec_from m fr (pc + 1)

(* --- entry points --- *)

let run (m : t) : int64 =
  Srp_obs.Stats.time ~pass:"machine" "simulate" @@ fun () ->
  let main =
    match Hashtbl.find_opt m.funcs "main" with
    | Some f -> f
    | None -> merror "no main function"
  in
  let r = exec_function m main [] in
  new_group m;
  m.c.Counters.cycles <- m.cycle;
  (match m.timeline with
  | None -> ()
  | Some tl ->
    Timeline.final tl ~cycle:m.cycle
      ~alat_live:(Alat.occupancy m.alat)
      ~rse_dirty:(Rse.dirty m.rse) ~rse_clean:(Rse.clean m.rse)
      ~instrs:m.c.Counters.instrs_retired
      ~l1_misses:m.c.Counters.l1_misses ~l2_misses:m.c.Counters.l2_misses);
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"machine" "instructions_retired")
    m.c.Counters.instrs_retired;
  match r with Some v -> Value.to_int v | None -> 0L

let output m = Buffer.contents m.output
let counters m = m.c
let site_stats m = m.site_stats

(* Compile-and-run convenience used everywhere downstream. *)
let run_program ?fuel ?trace ?timeline (prog : Insn.program) :
    int64 * string * Counters.t =
  let m = create ?fuel ?trace ?timeline prog in
  let code = run m in
  (code, output m, counters m)
