(* The target instruction set: a small IA-64-flavoured machine.

   Code is straight-line and indexed — branch targets, chk.a recovery
   entries and the implicit fall-through are all plain instruction indices,
   resolved by the code generator.  Integer and float registers live in
   separate files (r0..rN / f0..fN); [sp] is a fixed integer register that
   the machine preloads with the frame base address before the first
   instruction executes, and that codegen never writes.

   The speculative subset mirrors the paper:
   - [K_ld_a]   ld8.a    advanced load: loads and arms an ALAT entry keyed
                         by (frame, destination register)
   - [K_ld_sa]  ld8.sa   speculative advanced load: like ld.a but a faulting
                         address defers into the register's NaT bit
   - [K_ld_c]   ld8.c    check load: a no-op on an ALAT hit; on a miss it
                         reloads (and with the .nc completer re-arms)
   - [Chk_a]    chk.a    check with a recovery branch: on a miss control
                         transfers to [recovery], which re-executes the
                         dependent loads and branches back
   - [Invala_e] invala.e invalidates one ALAT entry, forcing the next check
                         of that register to reload (paper Figure 2) *)

type src =
  | SReg of int (* integer register *)
  | SImm of int64
  | SFrg of int (* float register *)
  | SFim of float

type dest = DInt of int | DFlt of int

type ialu =
  | Aadd | Asub | Amul | Adiv | Arem
  | Aand | Aor | Axor | Ashl | Ashr
  | Acmp_eq | Acmp_ne | Acmp_lt | Acmp_le | Acmp_gt | Acmp_ge

type falu = FAadd | FAsub | FAmul | FAdiv
type fcmp = FCeq | FCne | FClt | FCle | FCgt | FCge

type ld_kind = K_ld | K_ld_a | K_ld_sa | K_ld_c of { clear : bool }

type insn =
  | Movl of { dst : int; imm : int64 }
  | Gaddr of { dst : int; sym : int } (* materialize a global's address *)
  | Mov of { dst : dest; src : src }
  | Alu of { op : ialu; dst : int; a : src; b : src }
  | Falu of { op : falu; dst : int; a : src; b : src }
  | Fcmp of { op : fcmp; dst : int; a : src; b : src } (* integer 0/1 result *)
  | Itof of { dst : int; src : src }
  | Ftoi of { dst : int; src : src }
  | Ld of { kind : ld_kind; dst : dest; base : int; site : int }
  | St of { src : src; base : int; site : int }
  | Chk_a of { tag : dest; recovery : int; site : int }
  | Invala_e of { tag : dest }
  | Sel of { dst : dest; cond : int; if_true : src; if_false : src }
  | Br of { target : int }
  | Brc of { cond : int; ifso : int; ifnot : int; site : int }
  | Call of { callee : string; args : src list; ret : dest option }
  | Ret of { value : src option }
  | Alloc of { dst : int; nbytes : src; site : int } (* runtime malloc *)
  | Print of { what : src; as_float : bool } (* runtime print_int/print_float *)
  | Nop

(* The stack-pointer register: preloaded by the machine, read-only to
   generated code. *)
let sp = 0

(* --- dependence classification ---

   The pre-bundle list scheduler (sched.ml) and its independent checker in
   the test suite share these ground rules.

   [is_ordered]: instructions whose effects reach beyond the register
   files.  Cache replacement state observes the order of every memory
   access, the ALAT observes the order of arms / checks / invalidates and
   of the stores that evict entries, allocation bumps the heap pointer,
   and calls / prints touch the outside world.  The scheduler keeps these
   in their original total order — only register-to-register compute moves
   around them — which is what makes a scheduled stream bit-identical to
   the unscheduled one on every non-cycle architectural counter. *)
let is_ordered = function
  | Ld _ | St _ | Chk_a _ | Invala_e _ | Alloc _ | Call _ | Print _ -> true
  | Movl _ | Gaddr _ | Mov _ | Alu _ | Falu _ | Fcmp _ | Itof _ | Ftoi _
  | Sel _ | Br _ | Brc _ | Ret _ | Nop ->
    false

(* [is_terminal]: instructions that end a scheduling region and stay
   pinned at their pc.  Br/Brc/Ret transfer control outright; chk.a does
   too (its recovery block branches back to the instruction after it, so
   that instruction is a block leader).  Keeping terminals at unchanged
   indices means branch targets and the static predictor's taken/not-taken
   geometry survive scheduling untouched. *)
let is_terminal = function
  | Br _ | Brc _ | Ret _ | Chk_a _ -> true
  | _ -> false

(* --- control flow: the one statement of which pcs an instruction
   transfers control to.  Every backend pass reads and rewrites targets
   through these, so the chk.a recovery edge (paper section 2.4) is a
   branch edge everywhere br and br.cond are. --- *)

(* [Brc] lists the taken side first. *)
let targets = function
  | Br { target } -> [ target ]
  | Brc { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Chk_a { recovery; _ } -> [ recovery ]
  | _ -> []

(* Rebuild the targets through [f]; any other instruction is returned
   physically unchanged. *)
let map_targets f ins =
  match ins with
  | Br { target } -> Br { target = f target }
  | Brc r -> Brc { r with ifso = f r.ifso; ifnot = f r.ifnot }
  | Chk_a r -> Chk_a { r with recovery = f r.recovery }
  | _ -> ins

(* The pcs control may reach after [code.(pc)]: its targets, and the next
   pc unless it ends in br / br.cond / br.ret.  A chk.a has both: it falls
   through on a hit and enters its recovery block on a miss. *)
let successors (code : insn array) pc =
  let ins = code.(pc) in
  match ins with
  | Br _ | Brc _ | Ret _ -> targets ins
  | _ -> if pc + 1 < Array.length code then (pc + 1) :: targets ins else targets ins

(* Block leaders: pc 0, every target, and the pc after every terminal. *)
let leaders (code : insn array) =
  let n = Array.length code in
  let is_leader = Array.make n false in
  let mark t = if t >= 0 && t < n then is_leader.(t) <- true in
  mark 0;
  Array.iteri
    (fun pc ins ->
      if is_terminal ins then begin
        List.iter mark (targets ins);
        mark (pc + 1)
      end)
    code;
  is_leader

(* speculative loads the scheduler hoists preferentially *)
let is_advanced_load = function
  | Ld { kind = K_ld_a | K_ld_sa; _ } -> true
  | _ -> false

(* --- per-opcode timing: what the machine charges and the scheduler
   schedules against (machine-wide facts: Srp_ir.Machine_model) ---

   Result latency: cycles from issue until a dependent may issue.  Every
   opcode not listed here produces in one cycle, except loads, whose
   latency the cache decides. *)
let[@inline] ialu_latency = function Amul -> 3 | Adiv | Arem -> 20 | _ -> 1
let[@inline] falu_latency = function FAdiv -> 30 | _ -> 4
let fcmp_latency = 2
let cvt_latency = 4 (* itof / ftoi *)

(* Issue classes: loads and stores take a memory port, except check loads
   (an ALAT hit is processed like a no-op and never touches memory, paper
   section 1); the FP ports serve FP arithmetic, conversions, FP-sourced
   movs and FP loads. *)
let[@inline] takes_mem = function
  | Ld { kind = K_ld_c _; _ } -> false
  | Ld _ | St _ -> true
  | _ -> false

let[@inline] takes_fp = function
  | Falu _ | Fcmp _ | Itof _ | Ftoi _ -> true
  | Mov { src = SFrg _ | SFim _; _ } -> true
  | Ld { kind = K_ld_c _; _ } -> false
  | Ld { dst = DFlt _; _ } -> true
  | _ -> false

(* --- IA-64 bundles ---

   A bundle holds three syllables dispensed to M (memory), I (integer),
   F (floating-point) and B (branch) units, named by a template; the
   realistic subset below covers what our ISA needs.  Only the MII and
   MMI encodings carry an end-of-bundle stop bit in this subset, so the
   bundler pads with an all-nop MII;; when a stop is needed after a
   template that cannot carry one. *)

type template = MII | MMI | MIB | MMB | MFI | MMF | MBB | BBB

type bundle = { tmpl : template; stop : bool (* end-of-bundle ;; *) }

let template_name = function
  | MII -> "mii" | MMI -> "mmi" | MIB -> "mib" | MMB -> "mmb"
  | MFI -> "mfi" | MMF -> "mmf" | MBB -> "mbb" | BBB -> "bbb"

type func = {
  name : string;
  formals : (Srp_ir.Symbol.t * dest) list; (* arrival registers, in order *)
  code : insn array;
  bundles : bundle array option;
      (* bundle-wise view of [code]: when present, [Array.length code] is
         exactly [3 * Array.length bundles] and instruction [pc] is slot
         [pc mod 3] of bundle [pc / 3]; every branch / recovery target
         lands on a slot-0 boundary.  [None] = flat (unbundled) stream. *)
  nregs : int; (* integer registers used, sp included *)
  nfregs : int;
  frame_bytes : int;
  slot_of_sym : (int, int) Hashtbl.t; (* Symbol.id -> frame byte offset *)
}

type program = {
  funcs : (string, func) Hashtbl.t;
  func_order : string list;
  globals : (Srp_ir.Symbol.t * Srp_ir.Program.global_init) list;
}

(* --- assembly printer --- *)

let pp_dest ppf = function
  | DInt r -> Fmt.pf ppf "r%d" r
  | DFlt f -> Fmt.pf ppf "f%d" f

let pp_src ppf = function
  | SReg r -> Fmt.pf ppf "r%d" r
  | SImm i -> Fmt.pf ppf "%Ld" i
  | SFrg f -> Fmt.pf ppf "f%d" f
  | SFim x -> Fmt.pf ppf "%g" x

let ialu_name = function
  | Aadd -> "add" | Asub -> "sub" | Amul -> "mul" | Adiv -> "div"
  | Arem -> "rem" | Aand -> "and" | Aor -> "or" | Axor -> "xor"
  | Ashl -> "shl" | Ashr -> "shr"
  | Acmp_eq -> "cmp.eq" | Acmp_ne -> "cmp.ne" | Acmp_lt -> "cmp.lt"
  | Acmp_le -> "cmp.le" | Acmp_gt -> "cmp.gt" | Acmp_ge -> "cmp.ge"

let falu_name = function
  | FAadd -> "fadd" | FAsub -> "fsub" | FAmul -> "fmul" | FAdiv -> "fdiv"

let fcmp_name = function
  | FCeq -> "fcmp.eq" | FCne -> "fcmp.ne" | FClt -> "fcmp.lt"
  | FCle -> "fcmp.le" | FCgt -> "fcmp.gt" | FCge -> "fcmp.ge"

(* ld8 for the integer file, ldf8 for the float file, with the speculative
   completer: .a / .sa / .c.clr / .c.nc *)
let ld_name (kind : ld_kind) (dst : dest) =
  let base = match dst with DInt _ -> "ld8" | DFlt _ -> "ldf8" in
  let compl_ =
    match kind with
    | K_ld -> ""
    | K_ld_a -> ".a"
    | K_ld_sa -> ".sa"
    | K_ld_c { clear = true } -> ".c.clr"
    | K_ld_c { clear = false } -> ".c.nc"
  in
  base ^ compl_

let pp_insn ppf = function
  | Movl { dst; imm } -> Fmt.pf ppf "movl r%d = %Ld" dst imm
  | Gaddr { dst; sym } -> Fmt.pf ppf "addl r%d = @gprel(sym%d)" dst sym
  | Mov { dst; src } -> Fmt.pf ppf "mov %a = %a" pp_dest dst pp_src src
  | Alu { op; dst; a; b } ->
    Fmt.pf ppf "%s r%d = %a, %a" (ialu_name op) dst pp_src a pp_src b
  | Falu { op; dst; a; b } ->
    Fmt.pf ppf "%s f%d = %a, %a" (falu_name op) dst pp_src a pp_src b
  | Fcmp { op; dst; a; b } ->
    Fmt.pf ppf "%s r%d = %a, %a" (fcmp_name op) dst pp_src a pp_src b
  | Itof { dst; src } -> Fmt.pf ppf "setf.sig f%d = %a" dst pp_src src
  | Ftoi { dst; src } -> Fmt.pf ppf "fcvt.fx r%d = %a" dst pp_src src
  | Ld { kind; dst; base; site } ->
    Fmt.pf ppf "%s %a = [r%d]  ;; s%d" (ld_name kind dst) pp_dest dst base site
  | St { src; base; site } ->
    Fmt.pf ppf "st8 [r%d] = %a  ;; s%d" base pp_src src site
  | Chk_a { tag; recovery; site } ->
    Fmt.pf ppf "chk.a.nc %a, .%d  ;; s%d" pp_dest tag recovery site
  | Invala_e { tag } -> Fmt.pf ppf "invala.e %a" pp_dest tag
  | Sel { dst; cond; if_true; if_false } ->
    Fmt.pf ppf "sel %a = r%d ? %a : %a" pp_dest dst cond pp_src if_true
      pp_src if_false
  | Br { target } -> Fmt.pf ppf "br .%d" target
  | Brc { cond; ifso; ifnot; site } ->
    Fmt.pf ppf "br.cond r%d, .%d, .%d  ;; s%d" cond ifso ifnot site
  | Call { callee; args; ret } ->
    let pp_ret ppf = function
      | Some d -> Fmt.pf ppf "%a = " pp_dest d
      | None -> ()
    in
    Fmt.pf ppf "%abr.call %s(%a)" pp_ret ret callee
      (Srp_support.Pp_util.pp_list pp_src)
      args
  | Ret { value } ->
    (match value with
    | Some v -> Fmt.pf ppf "br.ret %a" pp_src v
    | None -> Fmt.string ppf "br.ret")
  | Alloc { dst; nbytes; site } ->
    Fmt.pf ppf "alloc r%d = %a bytes  ;; s%d" dst pp_src nbytes site
  | Print { what; as_float } ->
    Fmt.pf ppf "out.%s %a" (if as_float then "fp" else "int") pp_src what
  | Nop -> Fmt.string ppf "nop"

let pp_func ppf (f : func) =
  let pp_formal ppf (s, d) =
    Fmt.pf ppf "%a=%a" Srp_ir.Symbol.pp s pp_dest d
  in
  Fmt.pf ppf "%s(%a):  // %d iregs, %d fregs, frame %d bytes@." f.name
    (Srp_support.Pp_util.pp_list pp_formal)
    f.formals f.nregs f.nfregs f.frame_bytes;
  match f.bundles with
  | None -> Array.iteri (fun i ins -> Fmt.pf ppf "  .%-4d %a@." i pp_insn ins) f.code
  | Some bs ->
    Array.iteri
      (fun b { tmpl; stop } ->
        Fmt.pf ppf "  { .%s@." (template_name tmpl);
        for s = 0 to 2 do
          let i = (3 * b) + s in
          Fmt.pf ppf "  .%-4d   %a@." i pp_insn f.code.(i)
        done;
        Fmt.pf ppf "  %s@." (if stop then ";; }" else "}"))
      bs
