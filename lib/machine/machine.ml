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
   the compiler consumed an unchecked speculative value).

   Representation: a frame's integer file is a [Bytes.t] of int64 words
   and its float file a [float array], so register values never box; each
   register also has one scoreboard word (ready cycle, memory-producer
   bit, NaT bit).  A memory operand's address is converted to a native int
   once and goes to [Memory], [Cache] and [Alat] as that int; an int64 no
   int holds is in no region.  Loads and stores move raw bits between a
   memory page's word and a register through the 8-byte [word] buffer
   ([Memory.load_bits], [Memory.store_bits]), with no region search; a
   float store tags its word, which only the interpreter reads back.
   Values are [Value.t] only across [Call]/[Ret].  Operand readers
   come in two flavours: typed ([src_int], [src_flt]), where an operand of
   the other file is the interpreter's type error, and bitwise
   ([src_bits], [src_fview]), for [Mov] and [Sel], which reinterpret the
   other file's bits as loads from memory do.  An instruction reads its
   operands left to right, then issues, then writes its result, so a stall
   is attributed to the same operand it always was.

   Everything the timing model needs to know about an instruction or a
   bundle apart from its operands is decoded once per program, in
   [resolve_funcs]: each pc's issue class, each bundle's packed dispersal
   ports and stop bit, and the site a split stall of the bundle is charged
   to.

   Observation only reads machine state.  With no event trace ([Trace])
   attached, a trace call site tests one [None]; with one, it asks the
   sink to admit the event before it builds the record, so an event past
   the sink's bound costs one drop count.  A timeline row is built only
   when it is due and its sink admits it. *)

open Srp_target
module Value = Srp_profile.Value
module Memory = Srp_profile.Memory
module Location = Srp_alias.Location
module Site_hist = Srp_obs.Site_hist
module Trace = Srp_obs.Trace
module Model = Srp_ir.Machine_model

exception Machine_error of string

let merror fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

exception Out_of_fuel

(* Issue-class bits of [rfunc.issue]. *)
let port_mem = 1
let port_fp = 2

(* A function with every per-instruction fact the machine would otherwise
   re-derive on each execution, decoded once per program:
   - [callees.(pc)]: the target of the [Call] at [pc]; [None] elsewhere and
     for a call to an unknown function (an error only if it executes);
   - [issue.(pc)]: the issue class, [port_mem] and/or [port_fp];
   - [ports.(pc)]: for slot 0 of a bundle, its template's M/F/B dispersal
     ports and stop bit packed as [m lor (f lsl 2) lor (b lsl 4) lor
     (stop lsl 6)]; -1 on every other pc and throughout a flat function;
   - [split_site.(pc / 3)]: the site a split stall of that bundle is
     charged to. *)
type rfunc = {
  func : Insn.func;
  callees : rfunc option array;
  issue : int array;
  ports : int array;
  split_site : int array;
}

(* A register's scoreboard word: the cycle its value is ready, shifted
   left by two, with [mem_bit] set when a memory op produced the value and
   [nat_bit] while the register holds a deferred fault (ld.sa's NaT). *)
let nat_bit = 1
let mem_bit = 2

type frame = {
  uid : int;
  rf : rfunc;
  iregs : Bytes.t; (* register r at byte 8r, a native-endian int64 *)
  fregs : float array;
  iscore : int array; (* scoreboard words, one per register *)
  fscore : int array;
}

type t = {
  mem : Memory.t;
  globals : int64 option array; (* symbol id -> address *)
  funcs : (string, rfunc) Hashtbl.t;
  alat : Alat.t;
  cache : Cache.t;
  rse : Rse.t;
  c : Counters.t;
  site_stats : Site_hist.t;
  trace : Trace.sink option;
  timeline : Timeline.t option;
  output : Buffer.t;
  word : Bytes.t; (* one int64: a loaded or stored word in transit *)
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

(* --- decoding --- *)

let issue_class (ins : Insn.insn) =
  (if Insn.takes_mem ins then port_mem else 0)
  lor if Insn.takes_fp ins then port_fp else 0

(* The dispersal word of a bundle: the (M, F, B) ports its template
   reserves — pads reserve their slot's unit too: dispersal routes by
   template, not by what the syllable turns out to do — and its stop bit.
   Counted from Bundle.slots. *)
let dispersal (b : Insn.bundle) =
  let s = Bundle.slots b.Insn.tmpl in
  let n u = Array.fold_left (fun k x -> if x = u then k + 1 else k) 0 s in
  n Bundle.M lor (n Bundle.F lsl 2) lor (n Bundle.B lsl 4)
  lor if b.Insn.stop then 1 lsl 6 else 0

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

let decode (func : Insn.func) =
  let code = func.Insn.code in
  let n = Array.length code in
  let ports = Array.make n (-1) in
  let split_site =
    match func.Insn.bundles with
    | None -> [||]
    | Some bs ->
      Array.iteri (fun i b -> ports.(3 * i) <- dispersal b) bs;
      Array.init (Array.length bs) (fun i -> bundle_site code (3 * i))
  in
  { func; callees = Array.make n None; issue = Array.map issue_class code;
    ports; split_site }

let resolve_funcs (prog : Insn.program) : (string, rfunc) Hashtbl.t =
  let funcs = Hashtbl.create (Hashtbl.length prog.Insn.funcs) in
  Hashtbl.iter (fun name func -> Hashtbl.replace funcs name (decode func))
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
      globals.(Srp_ir.Symbol.id s) <- Some base;
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
    output = Buffer.create 256; word = Bytes.create 8;
    cycle = 0; group_slots = 0; group_mem = 0; group_fp = 0;
    group_bundles = 0; group_m_ports = 0; group_f_ports = 0;
    group_b_ports = 0; pending_stop = false; frame_uid = 0;
    fuel; sp = 0x4000_0000L }

(* --- observability helpers --- *)

(* Per-site event attribution (pfmon stand-in): every ALAT-relevant event
   is charged to the IR site that caused it. *)
let ev m ~site e = Site_hist.record m.site_stats ~site e

(* Every trace call site matches [Some s when Trace.admit s] before it
   writes a field, so a run with no sink writes no record, and an event
   past the sink's bound costs one drop count and no record.  Each
   admitted event is written as exactly one [Trace.start] ... [Trace.finish]
   record, or the sink's [emitted] and [dropped] stop being exact.  The
   field keys are encoded once, here. *)
let k_n = Trace.key "n"
let k_mem = Trace.key "mem"
let k_pc = Trace.key "pc"
let k_stop = Trace.key "stop"
let k_site = Trace.key "site"
let k_victim = Trace.key "victim"
let k_addr = Trace.key "addr"
let k_regs = Trace.key "regs"
let k_f = Trace.key "f"
let k_op = Trace.key "op"
let k_victims = Trace.key "victims"
let k_recovery = Trace.key "recovery"
let k_taken = Trace.key "taken"

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

(* The per-instruction retire record, kept out of [exec_from]'s body. *)
let trace_retire s ~cycle rf pc ins =
  Trace.start s ~cycle "i";
  Trace.str s k_f rf.func.Insn.name;
  Trace.int s k_pc pc;
  Trace.str s k_op (op_name ins);
  Trace.finish s

(* --- timing helpers --- *)

let timeline_row m tl =
  Timeline.row tl ~cycle:m.cycle
    ~alat_live:(Alat.occupancy m.alat)
    ~rse_dirty:(Rse.dirty m.rse) ~rse_clean:(Rse.clean m.rse)
    ~instrs:m.c.Counters.instrs_retired
    ~l1_misses:m.c.Counters.l1_misses ~l2_misses:m.c.Counters.l2_misses

(* Timeline hook: fires on every cycle advance, read-only — it cannot
   perturb a counter (the on/off differential test holds the machine
   bit-identical either way).  The state is read only when a row is due
   and its sink will write it: the ALAT occupancy and the RSE clean count
   are scans. *)
let sample m =
  match m.timeline with
  | Some tl
    when Timeline.due tl ~cycle:m.cycle && Timeline.admit tl ~cycle:m.cycle ->
    timeline_row m tl
  | _ -> ()

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

(* Stall until [ready], a cycle still ahead; attribute to data access if
   [mem_src]. *)
let stall_until m ~ready ~mem_src =
  new_group m;
  if ready > m.cycle then begin
    let stall = ready - m.cycle in
    m.cycle <- ready;
    if mem_src then
      m.c.Counters.data_access_cycles <- m.c.Counters.data_access_cycles + stall;
    (match m.trace with
    | Some s when Trace.admit s ->
      Trace.start s ~cycle:m.cycle "stall";
      Trace.int s k_n stall;
      Trace.bool s k_mem mem_src;
      Trace.finish s
    | _ -> ());
    sample m
  end

let[@inline] wait_until m ~ready ~mem_src =
  if ready > m.cycle then stall_until m ~ready ~mem_src

(* Bundle-wise dispersal, run whenever execution reaches slot 0 of a
   bundle, with that bundle's dispersal word.  A third bundle in the cycle
   rolls the group over naturally; a *second* bundle blocked by the
   previous bundle's stop bit or by a template port conflict ends the
   group early — a split, the stall the flat-stream model never paid. *)
let enter_bundle m rf pc word =
  let pm = word land 3 and pf = (word lsr 2) land 3 and pb = (word lsr 4) land 3 in
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
    ev m ~site:rf.split_site.(pc / 3) Srp_obs.Site_hist.Split_stalls;
    (match m.trace with
    | Some s when Trace.admit s ->
      Trace.start s ~cycle:m.cycle "split";
      Trace.int s k_pc pc;
      Trace.bool s k_stop was_stop;
      Trace.finish s
    | _ -> ());
    new_group m
  end;
  m.group_bundles <- m.group_bundles + 1;
  m.group_m_ports <- m.group_m_ports + pm;
  m.group_f_ports <- m.group_f_ports + pf;
  m.group_b_ports <- m.group_b_ports + pb;
  m.pending_stop <- word land (1 lsl 6) <> 0;
  m.c.Counters.bundles_retired <- m.c.Counters.bundles_retired + 1

(* Issue one instruction, taking a memory and/or FP port by its class. *)
let[@inline] issue_slot m cls =
  let mem = cls land port_mem <> 0 and fp = cls land port_fp <> 0 in
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

(* --- register access ---

   The readers and writers below are inlined into [exec_from], so an int64
   or float travels from one register to the next without a box. *)

(* A register value is read or written only right after its scoreboard
   word, whose bounds-checked access proves the register exists (the word
   arrays have one slot per register), so the value access goes
   unchecked. *)
external get_int64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_int64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] score ~ready ~mem = (ready lsl 2) lor if mem then mem_bit else 0

let[@inline] read_int fr m r : int64 =
  let s = fr.iscore.(r) in
  if s land nat_bit <> 0 then merror "read of NaT integer register r%d" r;
  wait_until m ~ready:(s lsr 2) ~mem_src:(s land mem_bit <> 0);
  get_int64 fr.iregs (r lsl 3)

let[@inline] read_flt fr m f : float =
  let s = fr.fscore.(f) in
  if s land nat_bit <> 0 then merror "read of NaT float register f%d" f;
  wait_until m ~ready:(s lsr 2) ~mem_src:(s land mem_bit <> 0);
  Array.unsafe_get fr.fregs f

let[@inline] write_int fr r (v : int64) ~ready ~mem =
  fr.iscore.(r) <- score ~ready ~mem;
  set_int64 fr.iregs (r lsl 3) v

let[@inline] write_flt fr f (v : float) ~ready ~mem =
  fr.fscore.(f) <- score ~ready ~mem;
  Array.unsafe_set fr.fregs f v

(* The interpreter's type errors, with its text: an operand of the other
   file where the instruction wants this one. *)
let int_expected x : int64 = Value.to_int (Value.Vflt x)
let flt_expected i : float = Value.to_flt (Value.Vint i)

(* typed readers *)
let[@inline] src_int fr m (s : Insn.src) : int64 =
  match s with
  | Insn.SReg r -> read_int fr m r
  | Insn.SImm i -> i
  | Insn.SFrg f -> int_expected (read_flt fr m f)
  | Insn.SFim x -> int_expected x

let[@inline] src_flt fr m (s : Insn.src) : float =
  match s with
  | Insn.SFrg f -> read_flt fr m f
  | Insn.SFim x -> x
  | Insn.SReg r -> flt_expected (read_int fr m r)
  | Insn.SImm i -> flt_expected i

(* bitwise readers: the other file's bits, reinterpreted *)
let[@inline] src_bits fr m (s : Insn.src) : int64 =
  match s with
  | Insn.SReg r -> read_int fr m r
  | Insn.SImm i -> i
  | Insn.SFrg f -> Int64.bits_of_float (read_flt fr m f)
  | Insn.SFim x -> Int64.bits_of_float x

let[@inline] src_fview fr m (s : Insn.src) : float =
  match s with
  | Insn.SFrg f -> read_flt fr m f
  | Insn.SFim x -> x
  | Insn.SReg r -> Int64.float_of_bits (read_int fr m r)
  | Insn.SImm i -> Int64.float_of_bits i

(* An operand as a value, for [Call] and [Ret]. *)
let src_value fr m (s : Insn.src) : Value.t =
  match s with
  | Insn.SReg r -> Value.Vint (read_int fr m r)
  | Insn.SImm i -> Value.Vint i
  | Insn.SFrg f -> Value.Vflt (read_flt fr m f)
  | Insn.SFim x -> Value.Vflt x

(* A value into a register of either file, reinterpreting its bits when
   the file differs. *)
let[@inline] write_value fr (d : Insn.dest) (v : Value.t) ~ready ~mem =
  match d with
  | Insn.DInt r ->
    let bits = match v with Value.Vint i -> i | Value.Vflt x -> Int64.bits_of_float x in
    write_int fr r bits ~ready ~mem
  | Insn.DFlt f ->
    let x = match v with Value.Vflt x -> x | Value.Vint i -> Int64.float_of_bits i in
    write_flt fr f x ~ready ~mem

(* --- ALU semantics: Value.binop's, on unboxed operands --- *)

let[@inline] of_bool b = if b then 1L else 0L

let[@inline] ialu (op : Insn.ialu) (x : int64) (y : int64) : int64 =
  match op with
  | Insn.Aadd -> Int64.add x y
  | Insn.Asub -> Int64.sub x y
  | Insn.Amul -> Int64.mul x y
  | Insn.Adiv ->
    if Int64.equal y 0L then Value.err "integer division by zero";
    Int64.div x y
  | Insn.Arem ->
    if Int64.equal y 0L then Value.err "integer remainder by zero";
    Int64.rem x y
  | Insn.Aand -> Int64.logand x y
  | Insn.Aor -> Int64.logor x y
  | Insn.Axor -> Int64.logxor x y
  | Insn.Ashl -> Int64.shift_left x (Int64.to_int y land 63)
  | Insn.Ashr -> Int64.shift_right x (Int64.to_int y land 63)
  | Insn.Acmp_eq -> of_bool (Int64.equal x y)
  | Insn.Acmp_ne -> of_bool (not (Int64.equal x y))
  | Insn.Acmp_lt -> of_bool (Int64.compare x y < 0)
  | Insn.Acmp_le -> of_bool (Int64.compare x y <= 0)
  | Insn.Acmp_gt -> of_bool (Int64.compare x y > 0)
  | Insn.Acmp_ge -> of_bool (Int64.compare x y >= 0)

let[@inline] falu (op : Insn.falu) (x : float) (y : float) : float =
  match op with
  | Insn.FAadd -> x +. y
  | Insn.FAsub -> x -. y
  | Insn.FAmul -> x *. y
  | Insn.FAdiv -> x /. y

let[@inline] fcmp (op : Insn.fcmp) (x : float) (y : float) : int64 =
  match op with
  | Insn.FCeq -> of_bool (x = y)
  | Insn.FCne -> of_bool (x <> y)
  | Insn.FClt -> of_bool (x < y)
  | Insn.FCle -> of_bool (x <= y)
  | Insn.FCgt -> of_bool (x > y)
  | Insn.FCge -> of_bool (x >= y)

let alat_tag fr (d : Insn.dest) : Alat.tag =
  match d with
  | Insn.DInt r -> Alat.int_tag ~frame:fr.uid r
  | Insn.DFlt f -> Alat.fp_tag ~frame:fr.uid f

(* The data access of every load kind: cache timing, the word's bits into
   the destination's file (a float file reads them as a float, so a
   zero-initialized word is 0.0), and the retired-load counts. *)
let do_load m fr (dst : Insn.dest) a site =
  let fp = match dst with Insn.DFlt _ -> true | Insn.DInt _ -> false in
  let lat = Cache.load_latency m.cache m.c ~fp a in
  Memory.load_bits m.mem a m.word 0;
  m.c.Counters.loads_retired <- m.c.Counters.loads_retired + 1;
  ev m ~site Site_hist.Loads_retired;
  if fp then begin
    m.c.Counters.fp_loads_retired <- m.c.Counters.fp_loads_retired + 1;
    ev m ~site Site_hist.Fp_loads_retired
  end;
  let bits = get_int64 m.word 0 and ready = m.cycle + lat in
  match dst with
  | Insn.DInt r -> write_int fr r bits ~ready ~mem:true
  | Insn.DFlt f -> write_flt fr f (Int64.float_of_bits bits) ~ready ~mem:true

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
    match m.trace with
    | Some s when Trace.admit s ->
      Trace.start s ~cycle:m.cycle "alat.evict";
      Trace.int s k_site site;
      Trace.int s k_victim victim_site;
      Trace.finish s
    | _ -> ()

(* ld.sa's deferred fault: the destination gets a NaT and loses its ALAT
   entry. *)
let defer_fault m fr (dst : Insn.dest) site =
  (match m.trace with
  | Some s when Trace.admit s ->
    Trace.start s ~cycle:m.cycle "ld.sa.nat";
    Trace.int s k_site site;
    Trace.finish s
  | _ -> ());
  (* IA-64: a deferred fault also invalidates any matching ALAT entry, so
     a later ld.c on this register misses and reloads instead of
     validating a stale entry left by a previous occupant of the (possibly
     reused) register *)
  Alat.remove m.alat (alat_tag fr dst);
  match dst with
  | Insn.DInt r -> fr.iscore.(r) <- fr.iscore.(r) lor nat_bit
  | Insn.DFlt f -> fr.fscore.(f) <- fr.fscore.(f) lor nat_bit

(* ld.c's check, counted, and its failure counted on a miss.  A hit means
   the register already holds valid data, at no latency. *)
let ld_c_hits m fr tag (dst : Insn.dest) site ~clear =
  m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
  ev m ~site Site_hist.Checks_retired;
  if Alat.check m.alat tag ~clear then begin
    (match dst with
    | Insn.DInt r ->
      if fr.iscore.(r) land nat_bit <> 0 then merror "ld.c hit on NaT register"
    | Insn.DFlt f ->
      if fr.fscore.(f) land nat_bit <> 0 then merror "ld.c hit on NaT register");
    true
  end
  else begin
    m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
    ev m ~site Site_hist.Check_failures;
    false
  end

(* [alat.arm] and [ld.c.miss]: a load site and the address it loads. *)
let trace_load m kind site addr =
  match m.trace with
  | Some s when Trace.admit s ->
    Trace.start s ~cycle:m.cycle kind;
    Trace.int s k_site site;
    Trace.hex s k_addr addr;
    Trace.finish s
  | _ -> ()

(* A load of every kind at native-int address [a]. *)
let load_at m fr (kind : Insn.ld_kind) (dst : Insn.dest) a site =
  match kind with
  | Insn.K_ld -> do_load m fr dst a site
  | Insn.K_ld_a ->
    do_load m fr dst a site;
    trace_load m "alat.arm" site (Int64.of_int a);
    arm m (alat_tag fr dst) a site
  | Insn.K_ld_sa ->
    (* control-speculative: defer faults with NaT, no ALAT entry on fault *)
    if Memory.mapped m.mem a then begin
      do_load m fr dst a site;
      arm m (alat_tag fr dst) a site
    end
    else defer_fault m fr dst site
  | Insn.K_ld_c { clear } ->
    let tag = alat_tag fr dst in
    if not (ld_c_hits m fr tag dst site ~clear) then begin
      trace_load m "ld.c.miss" site (Int64.of_int a);
      do_load m fr dst a site;
      if not clear then arm m tag a site
    end

(* A load at an address no int holds, so in no region: ld.sa defers the
   fault and an ld.c that hits touches no memory; any other load faults. *)
let load_wild m fr (kind : Insn.ld_kind) (dst : Insn.dest) (v : int64) site =
  match kind with
  | Insn.K_ld_sa -> defer_fault m fr dst site
  | Insn.K_ld_c { clear } ->
    if not (ld_c_hits m fr (alat_tag fr dst) dst site ~clear) then begin
      trace_load m "ld.c.miss" site v;
      Memory.unmapped v
    end
  | Insn.K_ld | Insn.K_ld_a -> Memory.unmapped v

(* --- execution --- *)

(* Argument arrival: the [i]th argument into the [i]th formal's register.
   Extra arguments are ignored; formals without one stay zero. *)
let rec bind_args fr formals (args : Value.t list) =
  match (formals, args) with
  | (_, d) :: formals, v :: args ->
    write_value fr d v ~ready:0 ~mem:false;
    bind_args fr formals args
  | _ -> ()

let rec exec_function m (rf : rfunc) (args : Value.t list) : Value.t option =
  let func = rf.func in
  m.frame_uid <- m.frame_uid + 1;
  let ni = max 1 func.Insn.nregs and nf = max 1 func.Insn.nfregs in
  let fr =
    { uid = m.frame_uid; rf;
      iregs = Bytes.make (8 * ni) '\000'; fregs = Array.make nf 0.0;
      iscore = Array.make ni 0; fscore = Array.make nf 0 }
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
  write_int fr Insn.sp frame_base ~ready:0 ~mem:false;
  bind_args fr func.Insn.formals args;
  (* RSE charge for the new register frame *)
  let spill = Rse.call m.rse m.c ~nregs:func.Insn.nregs in
  (match m.trace with
  | Some s when spill > 0 && Trace.admit s ->
    Trace.start s ~cycle:m.cycle "rse.spill";
    Trace.int s k_regs spill;
    Trace.str s k_f func.Insn.name;
    Trace.finish s
  | _ -> ());
  advance_cycles m spill;
  let result = exec_from m fr 0 in
  let fill = Rse.ret m.rse m.c in
  (match m.trace with
  | Some s when fill > 0 && Trace.admit s ->
    Trace.start s ~cycle:m.cycle "rse.fill";
    Trace.int s k_regs fill;
    Trace.finish s
  | _ -> ());
  advance_cycles m fill;
  Alat.purge_frame m.alat ~frame:fr.uid;
  Memory.free m.mem frame_base;
  m.sp <- saved_sp;
  result

and exec_from m fr pc : Value.t option =
  let rf = fr.rf in
  let code = rf.func.Insn.code in
  if pc < 0 || pc >= Array.length code then
    merror "%s: pc %d out of range" rf.func.Insn.name pc;
  (* [ports] and [issue] have one slot per pc of [code] *)
  let word = Array.unsafe_get rf.ports pc in
  (* bundle-wise fetch: crossing into slot 0 disperses the next bundle *)
  if word >= 0 then enter_bundle m rf pc word;
  let ins = Array.unsafe_get code pc in
  let cls = Array.unsafe_get rf.issue pc in
  (match m.trace with
  | Some s when Trace.admit s -> trace_retire s ~cycle:m.cycle rf pc ins
  | _ -> ());
  match ins with
  | Insn.Movl { dst; imm } ->
    issue_slot m cls;
    write_int fr dst imm ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Gaddr { dst; sym } ->
    issue_slot m cls;
    let known = sym >= 0 && sym < Array.length m.globals in
    let addr =
      match if known then m.globals.(sym) else None with
      | Some a -> a
      | None -> merror "unknown global symbol id %d" sym
    in
    write_int fr dst addr ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Mov { dst = Insn.DInt r; src } ->
    let v = src_bits fr m src in
    issue_slot m cls;
    write_int fr r v ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Mov { dst = Insn.DFlt f; src } ->
    let v = src_fview fr m src in
    issue_slot m cls;
    write_flt fr f v ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Alu { op; dst; a; b } ->
    let x = src_int fr m a in
    let y = src_int fr m b in
    issue_slot m cls;
    write_int fr dst (ialu op x y) ~ready:(m.cycle + Insn.ialu_latency op) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Falu { op; dst; a; b } ->
    let x = src_flt fr m a in
    let y = src_flt fr m b in
    issue_slot m cls;
    write_flt fr dst (falu op x y) ~ready:(m.cycle + Insn.falu_latency op) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Fcmp { op; dst; a; b } ->
    let x = src_flt fr m a in
    let y = src_flt fr m b in
    issue_slot m cls;
    write_int fr dst (fcmp op x y) ~ready:(m.cycle + Insn.fcmp_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Itof { dst; src } ->
    let v = src_int fr m src in
    issue_slot m cls;
    write_flt fr dst (Int64.to_float v) ~ready:(m.cycle + Insn.cvt_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Ftoi { dst; src } ->
    let v = src_flt fr m src in
    issue_slot m cls;
    write_int fr dst (Int64.of_float v) ~ready:(m.cycle + Insn.cvt_latency) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Ld { kind; dst; base; site } -> exec_load m fr pc cls kind dst base site
  | Insn.St { src; base; site } ->
    let bits = src_bits fr m src in
    let v = read_int fr m base in
    issue_slot m cls;
    let a = Int64.to_int v in
    if not (Int64.equal (Int64.of_int a) v) then Memory.unmapped v;
    set_int64 m.word 0 bits;
    let float =
      match src with Insn.SFrg _ | Insn.SFim _ -> true | Insn.SReg _ | Insn.SImm _ -> false
    in
    Memory.store_bits m.mem a m.word 0 ~float;
    Cache.store_touch m.cache a;
    m.c.Counters.stores_retired <- m.c.Counters.stores_retired + 1;
    ev m ~site Site_hist.Stores_retired;
    (match Alat.store_probe_sites m.alat a with
    | [] -> ()
    | victims ->
      m.c.Counters.alat_store_invalidations <-
        m.c.Counters.alat_store_invalidations + List.length victims;
      (* the invalidation is charged to the load site whose entry died *)
      List.iter (fun vs -> ev m ~site:vs Site_hist.Alat_store_invalidations) victims;
      match m.trace with
      | Some s when Trace.admit s ->
        Trace.start s ~cycle:m.cycle "alat.inval";
        Trace.int s k_site site;
        Trace.hex s k_addr (Int64.of_int a);
        Trace.ints s k_victims victims;
        Trace.finish s
      | _ -> ());
    exec_from m fr (pc + 1)
  | Insn.Chk_a { tag; recovery; site } ->
    issue_slot m cls;
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    if Alat.check m.alat (alat_tag fr tag) ~clear:false then exec_from m fr (pc + 1)
    else begin
      (* branch to recovery: a light trap plus pipeline redirect *)
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      (match m.trace with
      | Some s when Trace.admit s ->
        Trace.start s ~cycle:m.cycle "chk.a.fail";
        Trace.int s k_site site;
        Trace.int s k_recovery recovery;
        Trace.finish s
      | _ -> ());
      advance_cycles m Model.check_recovery_penalty;
      exec_from m fr recovery
    end
  | Insn.Invala_e { tag } ->
    issue_slot m cls;
    m.c.Counters.invala_retired <- m.c.Counters.invala_retired + 1;
    Alat.remove m.alat (alat_tag fr tag);
    exec_from m fr (pc + 1)
  | Insn.Sel { dst = Insn.DInt r; cond; if_true; if_false } ->
    let c = read_int fr m cond in
    let t = src_bits fr m if_true in
    let f = src_bits fr m if_false in
    issue_slot m cls;
    write_int fr r (if Int64.equal c 0L then f else t) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Sel { dst = Insn.DFlt d; cond; if_true; if_false } ->
    let c = read_int fr m cond in
    let t = src_fview fr m if_true in
    let f = src_fview fr m if_false in
    issue_slot m cls;
    write_flt fr d (if Int64.equal c 0L then f else t) ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Br { target } ->
    issue_slot m cls;
    new_group m; (* taken-branch redirect *)
    exec_from m fr target
  | Insn.Brc { cond; ifso; ifnot; site } ->
    let c = read_int fr m cond in
    issue_slot m cls;
    let taken = not (Int64.equal c 0L) in
    let target = if taken then ifso else ifnot in
    (* Static prediction: backward taken, forward not taken, decided by the
       branch *direction* (ifso relative to the branch pc) — a taken forward
       branch flushes even when ifso = pc + 1.  A correctly predicted branch
       still pays a 1-bubble front-end redirect unless it falls through. *)
    let predicted_taken = ifso < pc in
    if taken <> predicted_taken then begin
      m.c.Counters.branch_mispredicts <- m.c.Counters.branch_mispredicts + 1;
      ev m ~site Site_hist.Branch_mispredicts;
      (match m.trace with
      | Some s when Trace.admit s ->
        Trace.start s ~cycle:m.cycle "br.mispredict";
        Trace.int s k_site site;
        Trace.int s k_pc pc;
        Trace.bool s k_taken taken;
        Trace.finish s
      | _ -> ());
      advance_cycles m Model.mispredict_penalty
    end
    else if target <> pc + 1 then new_group m;
    exec_from m fr target
  | Insn.Call { callee; args; ret } -> (
    let vargs = List.map (src_value fr m) args in
    issue_slot m cls;
    new_group m;
    let g =
      match fr.rf.callees.(pc) with
      | Some g -> g
      | None -> merror "call to unknown function %s" callee
    in
    let r = exec_function m g vargs in
    new_group m;
    (match ret, r with
    | Some d, Some v -> write_value fr d v ~ready:(m.cycle + 1) ~mem:false
    | Some _, None -> merror "%s returned no value" callee
    | None, _ -> ());
    exec_from m fr (pc + 1))
  | Insn.Ret { value } ->
    let v = Option.map (src_value fr m) value in
    issue_slot m cls;
    new_group m;
    v
  | Insn.Alloc { dst; nbytes; site } ->
    let n = src_int fr m nbytes in
    issue_slot m cls;
    advance_cycles m Model.alloc_cycles;
    let base = Memory.malloc m.mem ~nbytes:n ~loc:(Location.Heap site) in
    write_int fr dst base ~ready:(m.cycle + 1) ~mem:false;
    exec_from m fr (pc + 1)
  | Insn.Print { what; as_float = true } ->
    let x = src_flt fr m what in
    issue_slot m cls;
    Buffer.add_string m.output (Fmt.str "%.6f\n" x);
    exec_from m fr (pc + 1)
  | Insn.Print { what; as_float = false } ->
    let i = src_int fr m what in
    issue_slot m cls;
    Buffer.add_string m.output (Fmt.str "%Ld\n" i);
    exec_from m fr (pc + 1)
  | Insn.Nop ->
    issue_slot m cls;
    m.c.Counters.nops_emitted <- m.c.Counters.nops_emitted + 1;
    exec_from m fr (pc + 1)

and exec_load m fr pc cls (kind : Insn.ld_kind) (dst : Insn.dest) base site :
    Value.t option =
  let v = read_int fr m base in
  issue_slot m cls;
  let a = Int64.to_int v in
  if Int64.equal (Int64.of_int a) v then load_at m fr kind dst a site
  else load_wild m fr kind dst v site;
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
  | Some tl when Timeline.admit tl ~cycle:m.cycle -> timeline_row m tl
  | _ -> ());
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
