(* Operators, operands and memory addresses of the mid-level IR. *)

type binop =
  (* 64-bit integer *)
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  (* 64-bit float *)
  | FAdd | FSub | FMul | FDiv
  | FEq | FNe | FLt | FLe | FGt | FGe

type unop = Neg | Not | FNeg | I2F | F2I

type operand =
  | Temp of Temp.t
  | Int of int64
  | Flt of float
  | Sym_addr of Symbol.t (* address constant: &x, array decay *)

(* A memory address: base plus byte offset.  [Sym] bases with any constant
   offset are *direct* references (scalar symbols, fixed array slots, fields
   of a global struct); [Reg] bases are *indirect* references through a
   pointer-valued temp.  The distinction drives virtual-variable naming and
   Figure 9's direct/indirect classification. *)
type base = Sym of Symbol.t | Reg of Temp.t

type addr = { base : base; offset : int }

let addr_of_sym s = { base = Sym s; offset = 0 }
let addr_of_temp t = { base = Reg t; offset = 0 }

let is_direct a = match a.base with Sym _ -> true | Reg _ -> false

(* Result type of a binop: float compares produce integer 0/1. *)
let binop_result_mty = function
  | FAdd | FSub | FMul | FDiv -> Mem_ty.F64
  | _ -> Mem_ty.I64

let pp_binop ppf op =
  let s =
    match op with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
    | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
    | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
    | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
    | FEq -> "feq" | FNe -> "fne" | FLt -> "flt" | FLe -> "fle"
    | FGt -> "fgt" | FGe -> "fge"
  in
  Fmt.string ppf s

let pp_unop ppf op =
  let s =
    match op with
    | Neg -> "neg" | Not -> "not" | FNeg -> "fneg" | I2F -> "i2f" | F2I -> "f2i"
  in
  Fmt.string ppf s

let pp_operand ppf = function
  | Temp t -> Temp.pp ppf t
  | Int i -> Fmt.pf ppf "%Ld" i
  | Flt f -> Fmt.pf ppf "%h" f
  | Sym_addr s -> Fmt.pf ppf "&%a" Symbol.pp s

let pp_addr ppf a =
  match a.base, a.offset with
  | Sym s, 0 -> Fmt.pf ppf "[%a]" Symbol.pp s
  | Sym s, off -> Fmt.pf ppf "[%a+%d]" Symbol.pp s off
  | Reg t, 0 -> Fmt.pf ppf "[%a]" Temp.pp t
  | Reg t, off -> Fmt.pf ppf "[%a+%d]" Temp.pp t off
