(* Code generation: lower the (possibly promoted) CFG IR onto the target
   ISA.  Per function:

   1. Frame layout — every formal and local symbol gets an 8-aligned frame
      slot; user variables stay in memory (register promotion, not codegen,
      is what moves them into temps).
   2. Address materialization — each referenced symbol's address is
      computed once in the prologue (addl @gprel for globals, sp+slot for
      frame symbols) and held in a virtual register for the whole function;
      constant offsets fold into a per-use add.
   3. Formal spilling — arguments arrive in registers and are stored to
      their frame slots before the body runs, so loads of formals see
      memory like every other symbol reference.
   4. Instruction selection over virtual registers, with branch targets as
      symbolic labels.  The speculative IR lowers directly: promotion flags
      pick the load completer (ld / ld.a / ld.sa), [Check] with [C_ld_c]
      becomes a check load on the promotion temp's own register, [C_chk_a]
      becomes chk.a with an out-of-line recovery block, [Invala] becomes
      invala.e, and [Sw_check] becomes an address compare plus a select.
   5. chk.a recovery blocks are emitted after the function body: reload the
      checked temp with a fresh ld.a (re-arming its entry), re-execute the
      recorded dependent loads, and branch back to the instruction after
      the check (Ju et al., PACT'00 style recovery code).
   6. Label resolution to instruction indices, then linear-scan register
      allocation (Regalloc), pinning ALAT-involved temps to private
      physical registers so ALAT (frame, register) tags stay stable.

   The NaT/ALAT contract with the machine: an ld.sa whose address faults
   sets the destination's NaT bit instead of trapping; only a check load
   may see that register next (it reloads on the inevitable ALAT miss and
   clears the bit).  Codegen therefore never schedules a plain read of a
   speculative temp before its check — reloads of a promoted value always
   follow the check that ssapre placed on the same path. *)

open Srp_ir

(* --- emission buffer with symbolic labels --- *)

(* Branch targets inside the buffer hold label keys, patched to instruction
   indices once the whole function is laid out.  Block labels use their
   non-negative [Label.id]; synthetic labels (recovery entries and return
   points) count down from -1. *)
type buf = {
  mutable rev : Insn.insn list; (* reversed code *)
  mutable len : int;
  lbl_pos : (int, int) Hashtbl.t; (* label key -> instruction index *)
  mutable patches : int list; (* indices of insns holding label keys *)
  mutable next_lbl : int;
}

let emit b i =
  b.rev <- i :: b.rev;
  b.len <- b.len + 1

let emit_patched b i =
  b.patches <- b.len :: b.patches;
  emit b i

let fresh_lbl b =
  let l = b.next_lbl in
  b.next_lbl <- l - 1;
  l

let bind_lbl b l = Hashtbl.replace b.lbl_pos l b.len

let resolve b =
  let code = Array.of_list (List.rev b.rev) in
  let pos l =
    match Hashtbl.find_opt b.lbl_pos l with
    | Some p -> p
    | None -> Fmt.invalid_arg "Codegen: unresolved label %d" l
  in
  List.iter (fun idx -> code.(idx) <- Insn.map_targets pos code.(idx)) b.patches;
  code

(* --- per-function context --- *)

type pending_recovery = {
  rec_lbl : int;
  back_lbl : int;
  p_dst : Temp.t; (* checked pointer temp: reloaded + re-armed first *)
  p_addr : Ops.addr; (* its own memory cell *)
  p_site : int;
  p_instrs : Instr.instr list; (* dependent reloads recorded by ssapre *)
}

type ctx = {
  b : buf;
  mutable next_ireg : int; (* vreg 0 = sp *)
  mutable next_freg : int;
  temp_reg : (int, int) Hashtbl.t; (* Temp.id -> vreg (class from mty) *)
  sym_reg : (int, int) Hashtbl.t; (* Symbol.id -> int vreg with its address *)
  slot_of_sym : (int, int) Hashtbl.t;
  mutable pending : pending_recovery list;
  mutable pinned : Temp.t list; (* ALAT-involved temps *)
}

let fresh_ireg ctx =
  let r = ctx.next_ireg in
  ctx.next_ireg <- r + 1;
  r

let fresh_freg ctx =
  let f = ctx.next_freg in
  ctx.next_freg <- f + 1;
  f

let reg_of_temp ctx (t : Temp.t) : int =
  match Hashtbl.find_opt ctx.temp_reg (Temp.id t) with
  | Some r -> r
  | None ->
    let r =
      match Temp.mty t with
      | Mem_ty.I64 -> fresh_ireg ctx
      | Mem_ty.F64 -> fresh_freg ctx
    in
    Hashtbl.replace ctx.temp_reg (Temp.id t) r;
    r

let dest_of_temp ctx (t : Temp.t) : Insn.dest =
  match Temp.mty t with
  | Mem_ty.I64 -> Insn.DInt (reg_of_temp ctx t)
  | Mem_ty.F64 -> Insn.DFlt (reg_of_temp ctx t)

let ireg_of_temp ctx (t : Temp.t) : int =
  match dest_of_temp ctx t with
  | Insn.DInt r -> r
  | Insn.DFlt _ ->
    Fmt.invalid_arg "Codegen: float temp %%%d in integer position" (Temp.id t)

let sym_addr_reg ctx (s : Symbol.t) : int =
  match Hashtbl.find_opt ctx.sym_reg (Symbol.id s) with
  | Some r -> r
  | None ->
    Fmt.invalid_arg "Codegen: symbol %s has no materialized address"
      (Symbol.name s)

let src_of_operand ctx (o : Ops.operand) : Insn.src =
  match o with
  | Ops.Temp t -> (
    match Temp.mty t with
    | Mem_ty.I64 -> Insn.SReg (reg_of_temp ctx t)
    | Mem_ty.F64 -> Insn.SFrg (reg_of_temp ctx t))
  | Ops.Int i -> Insn.SImm i
  | Ops.Flt x -> Insn.SFim x
  | Ops.Sym_addr s -> Insn.SReg (sym_addr_reg ctx s)

(* Force an operand into an integer register (branch conditions, address
   bases). *)
let int_reg_of_operand ctx (o : Ops.operand) : int =
  match src_of_operand ctx o with
  | Insn.SReg r -> r
  | Insn.SImm i ->
    let r = fresh_ireg ctx in
    emit ctx.b (Insn.Movl { dst = r; imm = i });
    r
  | Insn.SFrg _ | Insn.SFim _ ->
    Fmt.invalid_arg "Codegen: float operand in integer position"

(* Effective address of an IR addr, as an integer register. *)
let addr_reg ctx (a : Ops.addr) : int =
  let base =
    match a.Ops.base with
    | Ops.Sym s -> sym_addr_reg ctx s
    | Ops.Reg t -> ireg_of_temp ctx t
  in
  if a.Ops.offset = 0 then base
  else begin
    let r = fresh_ireg ctx in
    emit ctx.b
      (Insn.Alu
         { op = Insn.Aadd; dst = r; a = Insn.SReg base;
           b = Insn.SImm (Int64.of_int a.Ops.offset) });
    r
  end

(* --- prescan: referenced symbols and ALAT-pinned temps --- *)

let prescan (f : Func.t) : Symbol.t list * Temp.t list =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let pinned = ref [] in
  let note_sym s =
    if not (Hashtbl.mem seen (Symbol.id s)) then begin
      Hashtbl.replace seen (Symbol.id s) ();
      order := s :: !order
    end
  in
  let note_addr (a : Ops.addr) =
    match a.Ops.base with Ops.Sym s -> note_sym s | Ops.Reg _ -> ()
  in
  let note_op = function Ops.Sym_addr s -> note_sym s | _ -> () in
  let pin t = pinned := t :: !pinned in
  let rec scan (ins : Instr.instr) =
    match ins with
    | Instr.Load { dst; addr; promo; _ } ->
      note_addr addr;
      if promo <> Instr.P_none then pin dst
    | Instr.Store { src; addr; _ } ->
      note_op src;
      note_addr addr
    | Instr.Bin { a; b; _ } ->
      note_op a;
      note_op b
    | Instr.Un { a; _ } -> note_op a
    | Instr.Mov { src; _ } -> note_op src
    | Instr.Call { args; _ } -> List.iter note_op args
    | Instr.Alloc { nbytes; _ } -> note_op nbytes
    | Instr.Check { dst; addr; recovery; _ } ->
      pin dst;
      note_addr addr;
      List.iter scan recovery
    | Instr.Invala { dst } -> pin dst
    | Instr.Sw_check { addr; store_addr; stored; _ } ->
      note_addr addr;
      note_addr store_addr;
      note_op stored
  in
  List.iter
    (fun (blk : Block.t) ->
      List.iter scan blk.Block.instrs;
      match blk.Block.term with
      | Instr.Br { cond; _ } -> note_op cond
      | Instr.Ret (Some o) -> note_op o
      | Instr.Jump _ | Instr.Ret None -> ())
    (Func.blocks f);
  (* formals always need an address (the prologue spill), referenced or
     not *)
  List.iter note_sym (Func.formals f);
  (List.rev !order, !pinned)

(* --- instruction selection --- *)

let ialu_of_binop : Ops.binop -> Insn.ialu option = function
  | Ops.Add -> Some Insn.Aadd
  | Ops.Sub -> Some Insn.Asub
  | Ops.Mul -> Some Insn.Amul
  | Ops.Div -> Some Insn.Adiv
  | Ops.Rem -> Some Insn.Arem
  | Ops.And -> Some Insn.Aand
  | Ops.Or -> Some Insn.Aor
  | Ops.Xor -> Some Insn.Axor
  | Ops.Shl -> Some Insn.Ashl
  | Ops.Shr -> Some Insn.Ashr
  | Ops.Eq -> Some Insn.Acmp_eq
  | Ops.Ne -> Some Insn.Acmp_ne
  | Ops.Lt -> Some Insn.Acmp_lt
  | Ops.Le -> Some Insn.Acmp_le
  | Ops.Gt -> Some Insn.Acmp_gt
  | Ops.Ge -> Some Insn.Acmp_ge
  | _ -> None

let falu_of_binop : Ops.binop -> Insn.falu option = function
  | Ops.FAdd -> Some Insn.FAadd
  | Ops.FSub -> Some Insn.FAsub
  | Ops.FMul -> Some Insn.FAmul
  | Ops.FDiv -> Some Insn.FAdiv
  | _ -> None

let fcmp_of_binop : Ops.binop -> Insn.fcmp option = function
  | Ops.FEq -> Some Insn.FCeq
  | Ops.FNe -> Some Insn.FCne
  | Ops.FLt -> Some Insn.FClt
  | Ops.FLe -> Some Insn.FCle
  | Ops.FGt -> Some Insn.FCgt
  | Ops.FGe -> Some Insn.FCge
  | _ -> None

let kind_of_promo : Instr.promo -> Insn.ld_kind = function
  | Instr.P_none -> Insn.K_ld
  | Instr.P_ld_a -> Insn.K_ld_a
  | Instr.P_ld_sa -> Insn.K_ld_sa

(* Synthetic loads/stores (formal spills, recovery pointer reloads when the
   IR site is reused) keep real sites where available; codegen-invented
   memory ops carry site -1, which nothing downstream keys on. *)
let synth_site = -1

let lower_instr ctx (ins : Instr.instr) : unit =
  match ins with
  | Instr.Load { dst; addr; mty = _; site; promo } ->
    let base = addr_reg ctx addr in
    emit ctx.b
      (Insn.Ld
         { kind = kind_of_promo promo; dst = dest_of_temp ctx dst; base;
           site = Site.to_int site })
  | Instr.Store { src; addr; mty = _; site } ->
    let v = src_of_operand ctx src in
    let base = addr_reg ctx addr in
    emit ctx.b (Insn.St { src = v; base; site = Site.to_int site })
  | Instr.Bin { dst; op; a; b } -> (
    let va = src_of_operand ctx a and vb = src_of_operand ctx b in
    match (ialu_of_binop op, falu_of_binop op, fcmp_of_binop op) with
    | Some iop, _, _ ->
      emit ctx.b (Insn.Alu { op = iop; dst = ireg_of_temp ctx dst; a = va; b = vb })
    | _, Some fop, _ ->
      emit ctx.b
        (Insn.Falu { op = fop; dst = reg_of_temp ctx dst; a = va; b = vb })
    | _, _, Some cop ->
      emit ctx.b
        (Insn.Fcmp { op = cop; dst = ireg_of_temp ctx dst; a = va; b = vb })
    | None, None, None -> assert false)
  | Instr.Un { dst; op; a } -> (
    let v = src_of_operand ctx a in
    match op with
    | Ops.Neg ->
      emit ctx.b
        (Insn.Alu
           { op = Insn.Asub; dst = ireg_of_temp ctx dst; a = Insn.SImm 0L;
             b = v })
    | Ops.Not ->
      emit ctx.b
        (Insn.Alu
           { op = Insn.Axor; dst = ireg_of_temp ctx dst; a = v;
             b = Insn.SImm (-1L) })
    | Ops.FNeg ->
      (* IEEE-exact negation: -0.0 - x flips the sign for every x,
         including signed zeros and NaN payload propagation *)
      emit ctx.b
        (Insn.Falu
           { op = Insn.FAsub; dst = reg_of_temp ctx dst; a = Insn.SFim (-0.0);
             b = v })
    | Ops.I2F -> emit ctx.b (Insn.Itof { dst = reg_of_temp ctx dst; src = v })
    | Ops.F2I -> emit ctx.b (Insn.Ftoi { dst = ireg_of_temp ctx dst; src = v }))
  | Instr.Mov { dst; src } ->
    emit ctx.b
      (Insn.Mov { dst = dest_of_temp ctx dst; src = src_of_operand ctx src })
  | Instr.Call { dst; callee; args; site } -> (
    match callee, args, dst with
    | "print_int", [ a ], None ->
      emit ctx.b (Insn.Print { what = src_of_operand ctx a; as_float = false })
    | "print_float", [ a ], None ->
      emit ctx.b (Insn.Print { what = src_of_operand ctx a; as_float = true })
    | "malloc", [ n ], Some d ->
      (* lowering emits [Alloc] for malloc; accept a literal call too *)
      emit ctx.b
        (Insn.Alloc
           { dst = ireg_of_temp ctx d; nbytes = src_of_operand ctx n;
             site = Site.to_int site })
    | _ ->
      emit ctx.b
        (Insn.Call
           { callee; args = List.map (src_of_operand ctx) args;
             ret = Option.map (dest_of_temp ctx) dst }))
  | Instr.Alloc { dst; nbytes; site } ->
    emit ctx.b
      (Insn.Alloc
         { dst = ireg_of_temp ctx dst; nbytes = src_of_operand ctx nbytes;
           site = Site.to_int site })
  | Instr.Check { dst; addr; mty = _; site; kind = Instr.C_ld_c { clear }; _ }
    ->
    (* the check load targets the promotion temp's own (pinned) register:
       its ALAT tag is exactly the one the arming ld.a allocated *)
    let base = addr_reg ctx addr in
    emit ctx.b
      (Insn.Ld
         { kind = Insn.K_ld_c { clear }; dst = dest_of_temp ctx dst; base;
           site = Site.to_int site })
  | Instr.Check
      { dst; addr; mty = _; site; kind = Instr.C_chk_a _; recovery } ->
    let rec_lbl = fresh_lbl ctx.b in
    emit_patched ctx.b
      (Insn.Chk_a
         { tag = dest_of_temp ctx dst; recovery = rec_lbl;
           site = Site.to_int site });
    let back_lbl = fresh_lbl ctx.b in
    bind_lbl ctx.b back_lbl;
    ctx.pending <-
      { rec_lbl; back_lbl; p_dst = dst; p_addr = addr;
        p_site = Site.to_int site; p_instrs = recovery }
      :: ctx.pending
  | Instr.Invala { dst } ->
    emit ctx.b (Insn.Invala_e { tag = dest_of_temp ctx dst })
  | Instr.Sw_check { dst; addr; store_addr; stored; mty = _; site = _ } ->
    (* software run-time disambiguation: if the suspect store wrote our
       address, refresh the temp from the stored value, else keep it *)
    let a1 = addr_reg ctx addr in
    let a2 = addr_reg ctx store_addr in
    let c = fresh_ireg ctx in
    emit ctx.b
      (Insn.Alu
         { op = Insn.Acmp_eq; dst = c; a = Insn.SReg a1; b = Insn.SReg a2 });
    let dstd = dest_of_temp ctx dst in
    let self =
      match dstd with Insn.DInt r -> Insn.SReg r | Insn.DFlt f -> Insn.SFrg f
    in
    emit ctx.b
      (Insn.Sel
         { dst = dstd; cond = c; if_true = src_of_operand ctx stored;
           if_false = self })

(* Emit pending chk.a recovery blocks (after the function body).  A
   recovery block may itself contain checks, so drain until stable. *)
let rec flush_recovery ctx =
  match ctx.pending with
  | [] -> ()
  | { rec_lbl; back_lbl; p_dst; p_addr; p_site; p_instrs } :: rest ->
    ctx.pending <- rest;
    bind_lbl ctx.b rec_lbl;
    (* generic chk.a recovery prefix: reload the checked temp itself with a
       fresh ld.a, re-arming its ALAT entry *)
    let base = addr_reg ctx p_addr in
    emit ctx.b
      (Insn.Ld
         { kind = Insn.K_ld_a; dst = dest_of_temp ctx p_dst; base;
           site = p_site });
    List.iter (lower_instr ctx) p_instrs;
    emit_patched ctx.b (Insn.Br { target = back_lbl });
    flush_recovery ctx

(* --- function-level driver, split into phases ---

   Selection, register allocation, block layout and bundling are separate
   functions over explicit intermediate records so the staged pipeline
   (lib/driver) can cache each phase's output under its own
   content-addressed key; [gen_program] runs the same chain uncached.
   None of the phase functions mutates its input record or the arrays it
   carries, so cached intermediates can feed any number of downstream
   builds. *)

let round8 n = (n + 7) / 8 * 8

(* Instruction selection: everything up to (and excluding) register
   allocation — virtual registers, resolved branch targets, recovery
   blocks flushed after the body. *)
type selected = {
  sel_name : string;
  sel_formals : (Symbol.t * Insn.dest) list; (* dests are virtual *)
  sel_code : Insn.insn array;
  sel_body_len : int; (* recovery blocks start at this index *)
  sel_nivregs : int;
  sel_nfvregs : int;
  sel_live_in : int list;
  sel_flive_in : int list;
  sel_pinned : int list;
  sel_fpinned : int list;
  sel_frame_bytes : int; (* symbol slots only; spill slots extend it *)
  sel_slot_of_sym : (int, int) Hashtbl.t;
}

(* Post-regalloc: physical registers, spill code inserted, frame final. *)
type allocated = {
  al_name : string;
  al_formals : (Symbol.t * Insn.dest) list; (* dests are physical *)
  al_code : Insn.insn array;
  al_body_len : int;
  al_nregs : int;
  al_nfregs : int;
  al_frame_bytes : int;
  al_slot_of_sym : (int, int) Hashtbl.t;
}

let select_func (f : Func.t) : selected =
  let b =
    { rev = []; len = 0; lbl_pos = Hashtbl.create 16; patches = [];
      next_lbl = -1 }
  in
  let ctx =
    { b; next_ireg = 1 (* 0 = sp *); next_freg = 0;
      temp_reg = Hashtbl.create 64; sym_reg = Hashtbl.create 16;
      slot_of_sym = Hashtbl.create 16; pending = []; pinned = [] }
  in
  (* frame layout: formals first, then locals *)
  let frame_bytes =
    List.fold_left
      (fun off s ->
        Hashtbl.replace ctx.slot_of_sym (Symbol.id s) off;
        off + round8 (Symbol.size_bytes s))
      0
      (Func.formals f @ Func.locals f)
  in
  let referenced, pinned_temps = prescan f in
  (* prologue 1: materialize every referenced symbol address once *)
  List.iter
    (fun s ->
      let r = fresh_ireg ctx in
      (if Symbol.is_global s then
         emit b (Insn.Gaddr { dst = r; sym = Symbol.id s })
       else
         let slot = Hashtbl.find ctx.slot_of_sym (Symbol.id s) in
         emit b
           (Insn.Alu
              { op = Insn.Aadd; dst = r; a = Insn.SReg Insn.sp;
                b = Insn.SImm (Int64.of_int slot) }));
      Hashtbl.replace ctx.sym_reg (Symbol.id s) r)
    referenced;
  (* prologue 2: spill incoming formals to their frame slots *)
  let formals =
    List.map
      (fun s ->
        let d =
          match Symbol.mty s with
          | Mem_ty.I64 -> Insn.DInt (fresh_ireg ctx)
          | Mem_ty.F64 -> Insn.DFlt (fresh_freg ctx)
        in
        (s, d))
      (Func.formals f)
  in
  List.iter
    (fun (s, d) ->
      let v =
        match d with
        | Insn.DInt r -> Insn.SReg r
        | Insn.DFlt fr -> Insn.SFrg fr
      in
      emit b
        (Insn.St { src = v; base = sym_addr_reg ctx s; site = synth_site }))
    formals;
  (* body: blocks in layout order; a Jump to the next block falls through *)
  let blocks = Func.blocks f in
  let rec go = function
    | [] -> ()
    | (blk : Block.t) :: rest ->
      bind_lbl b (Label.id (Block.label blk));
      List.iter (lower_instr ctx) blk.Block.instrs;
      (match blk.Block.term with
      | Instr.Jump l -> (
        match rest with
        | next :: _ when Label.equal (Block.label next) l -> ()
        | _ -> emit_patched b (Insn.Br { target = Label.id l }))
      | Instr.Br { cond; ifso; ifnot; site } ->
        let c = int_reg_of_operand ctx cond in
        emit_patched b
          (Insn.Brc
             { cond = c; ifso = Label.id ifso; ifnot = Label.id ifnot;
               site = Srp_ir.Site.to_int site })
      | Instr.Ret o ->
        emit b (Insn.Ret { value = Option.map (src_of_operand ctx) o }));
      go rest
  in
  go blocks;
  (* recovery blocks start here; Layout keeps them out-of-line at the end *)
  let body_len = b.len in
  flush_recovery ctx;
  let code = resolve b in
  (* ALAT temps get private physical registers downstream *)
  let pinned_i, pinned_f =
    List.fold_left
      (fun (pi, pf) t ->
        match dest_of_temp ctx t with
        | Insn.DInt r -> (r :: pi, pf)
        | Insn.DFlt fr -> (pi, fr :: pf))
      ([], []) pinned_temps
  in
  let live_in, flive_in =
    List.fold_left
      (fun (li, fli) (_, d) ->
        match d with
        | Insn.DInt r -> (r :: li, fli)
        | Insn.DFlt fr -> (li, fr :: fli))
      ([], []) formals
  in
  { sel_name = Func.name f;
    sel_formals = formals;
    sel_code = code;
    sel_body_len = body_len;
    sel_nivregs = ctx.next_ireg;
    sel_nfvregs = ctx.next_freg;
    sel_live_in = live_in;
    sel_flive_in = flive_in;
    sel_pinned = pinned_i;
    sel_fpinned = pinned_f;
    sel_frame_bytes = frame_bytes;
    sel_slot_of_sym = ctx.slot_of_sym }

(* What the allocator (and its pressure estimate) reads of a selected
   function: spill slots go past the symbol slots. *)
let regalloc_input (s : selected) : Regalloc.input =
  { Regalloc.code = s.sel_code; nivregs = s.sel_nivregs;
    nfvregs = s.sel_nfvregs; live_in = s.sel_live_in;
    flive_in = s.sel_flive_in; pinned = s.sel_pinned;
    fpinned = s.sel_fpinned; spill_base = s.sel_frame_bytes }

let alloc_func ?(ra = Regalloc.default_policy) (s : selected) : allocated =
  let res =
    Srp_obs.Stats.time ~pass:"target" "regalloc" (fun () ->
        Regalloc.run ~policy:ra (regalloc_input s))
  in
  (* spill slots live past the symbol slots; splitting may grow the frame,
     slot coloring keeps the growth to the peak overlap *)
  let frame_bytes = s.sel_frame_bytes + res.Regalloc.spill_bytes in
  (* spill reloads/stores shift instruction indices: recovery code now
     starts where the old boundary landed *)
  let body_len = res.Regalloc.new_index.(s.sel_body_len) in
  Srp_obs.Stats.set_max
    (Srp_obs.Stats.counter ~pass:"target" "max_int_regs")
    res.Regalloc.nregs;
  let rst = res.Regalloc.stats in
  List.iter
    (fun (name, v) ->
      Srp_obs.Stats.add (Srp_obs.Stats.counter ~pass:"target" name) v)
    [ ("subranges", rst.Regalloc.subranges);
      ("webs", rst.Regalloc.webs);
      ("splits_inserted", rst.Regalloc.splits_inserted);
      ("spilled_webs", rst.Regalloc.spilled_webs);
      ("spill_slots", rst.Regalloc.spill_slots);
      ("spill_reloads", rst.Regalloc.reloads);
      ("spill_stores", rst.Regalloc.spill_stores);
      ("remat_webs", rst.Regalloc.remat_webs);
      ("remat_uses", rst.Regalloc.remat_uses) ];
  let remap_dest = function
    | Insn.DInt r -> Insn.DInt res.Regalloc.imap.(r)
    | Insn.DFlt fr -> Insn.DFlt res.Regalloc.fmap.(fr)
  in
  { al_name = s.sel_name;
    al_formals = List.map (fun (sym, d) -> (sym, remap_dest d)) s.sel_formals;
    al_code = res.Regalloc.code;
    al_body_len = body_len;
    al_nregs = res.Regalloc.nregs;
    al_nfregs = res.Regalloc.nfregs;
    al_frame_bytes = frame_bytes;
    al_slot_of_sym = s.sel_slot_of_sym }

let layout_func (a : allocated) : allocated =
  let ls = { Layout.loops_rotated = 0; blocks_moved = 0 } in
  let code =
    Srp_obs.Stats.time ~pass:"target" "layout" (fun () ->
        Layout.run ~stats:ls ~body_len:a.al_body_len a.al_code)
  in
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "loops_rotated")
    ls.Layout.loops_rotated;
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "blocks_moved")
    ls.Layout.blocks_moved;
  { a with al_code = code }

(* List scheduling after layout, before bundling: layout fixes the block
   order (and with it the predictor geometry), scheduling then reorders
   within each block, and the bundler packs the scheduled stream. *)
let sched_func (a : allocated) : allocated =
  let st = { Sched.blocks = 0; moved = 0; hoist = 0 } in
  let code =
    Srp_obs.Stats.time ~pass:"target" "sched" (fun () ->
        Sched.run ~stats:st a.al_code)
  in
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "sched_blocks")
    st.Sched.blocks;
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "sched_moved")
    st.Sched.moved;
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "sched_hoist_slots")
    st.Sched.hoist;
  { a with al_code = code }

let func_of_allocated (a : allocated) ~(bundles : Insn.bundle array option) :
    Insn.func =
  { Insn.name = a.al_name;
    formals = a.al_formals;
    code = a.al_code;
    bundles;
    nregs = a.al_nregs;
    nfregs = a.al_nfregs;
    frame_bytes = a.al_frame_bytes;
    slot_of_sym = a.al_slot_of_sym }

(* Bundling last: it only pads and remaps indices, so it composes with
   both regalloc's ALAT pinning and layout's block order. *)
let bundle_func (a : allocated) : Insn.func =
  let bst = { Bundle.bundles = 0; nops_added = 0; stops = 0 } in
  let code, bs =
    Srp_obs.Stats.time ~pass:"target" "bundle" (fun () ->
        Bundle.run ~stats:bst a.al_code)
  in
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "bundles_emitted")
    bst.Bundle.bundles;
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "bundle_nops")
    bst.Bundle.nops_added;
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"target" "bundle_stops")
    bst.Bundle.stops;
  func_of_allocated { a with al_code = code } ~bundles:(Some bs)

let flat_func (a : allocated) : Insn.func = func_of_allocated a ~bundles:None

(* Program-level phase drivers for the staged pipeline: each maps its
   per-function phase over a list in [func_order], so the driver can cache
   the whole program's intermediate under one stage key. *)

let select_program (prog : Program.t) : selected list =
  Srp_obs.Stats.time ~pass:"target" "codegen" (fun () ->
      List.map select_func (Program.funcs prog))

let alloc_program ?ra (sel : selected list) : allocated list =
  List.map (fun s -> alloc_func ?ra s) sel

let layout_program (al : allocated list) : allocated list =
  List.map layout_func al

let bundle_program ~(sched : bool) ~(bundle : bool) (al : allocated list) :
    Insn.func list =
  List.map
    (fun a ->
      let a = if sched then sched_func a else a in
      if bundle then bundle_func a else flat_func a)
    al

(* Final assembly is cheap (one hashtable build over shared [Insn.func]
   values) and happens outside the cache, per compile. *)
let assemble_program (prog : Program.t) (fns : Insn.func list) : Insn.program
    =
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Insn.func) -> Hashtbl.replace funcs f.Insn.name f) fns;
  { Insn.funcs;
    func_order = prog.Program.func_order;
    globals = Program.globals prog }

(* The whole chain in one call, for callers with no stage store: the same
   program-level phases the staged pipeline caches one by one. *)
let gen_program ?(layout = true) ?(sched = true) ?(bundle = true) ?ra
    (prog : Program.t) : Insn.program =
  let al = alloc_program ?ra (select_program prog) in
  let al = if layout then layout_program al else al in
  assemble_program prog (bundle_program ~sched ~bundle al)
