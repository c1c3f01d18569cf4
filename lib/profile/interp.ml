(* IR interpreter.  Two jobs:
   1. Reference semantics for differential testing (its printed output must
      match the machine simulator's, at every optimization level).
   2. Alias-profile collection (the paper's instrumentation-based profiling
      tool, section 3.1): every dynamic memory access resolves to its
      abstract location and is recorded per site.

   Pre-promotion IR only: promotion-inserted Check/Invala instructions have
   machine semantics and are rejected here. *)

open Srp_ir
module Location = Srp_alias.Location

exception Out_of_fuel

type frame = {
  func : Func.t;
  temps : Value.t Temp.Tbl.t;
  frame_regions : (Symbol.t * int64) list; (* local/formal -> base address *)
}

type t = {
  prog : Program.t;
  mem : Memory.t;
  globals : (int, int64) Hashtbl.t; (* symbol id -> base address *)
  output : Buffer.t;
  profile : Alias_profile.t;
  mutable fuel : int;
  mutable steps : int;
  collect_profile : bool;
}

(* --- setup --- *)

let global_base t (s : Symbol.t) =
  match Hashtbl.find_opt t.globals (Symbol.id s) with
  | Some a -> a
  | None -> Value.err "unknown global %s" (Symbol.name s)

let init_global t (s : Symbol.t) (init : Program.global_init) =
  let base = Memory.alloc t.mem ~size:(Symbol.size_bytes s) ~loc:(Location.Sym s) in
  Hashtbl.replace t.globals (Symbol.id s) base;
  (match init with
  | Program.Init_zero -> ()
  | Program.Init_ints vs ->
    Array.iteri
      (fun i v -> Memory.store t.mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vint v))
      vs
  | Program.Init_floats vs ->
    Array.iteri
      (fun i v -> Memory.store t.mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vflt v))
      vs)

let create ?(fuel = 50_000_000) ?(collect_profile = true) (prog : Program.t) : t =
  let t =
    { prog; mem = Memory.create (); globals = Hashtbl.create 16;
      output = Buffer.create 256; profile = Alias_profile.create (); fuel;
      steps = 0; collect_profile }
  in
  List.iter (fun (s, init) -> init_global t s init) (Program.globals prog);
  t

(* --- evaluation --- *)

let sym_addr t frame (s : Symbol.t) : int64 =
  match Symbol.storage s with
  | Symbol.Global -> global_base t s
  | Symbol.Local | Symbol.Formal -> (
    match List.assq_opt s frame.frame_regions with
    | Some a -> a
    | None -> Value.err "no frame slot for %s in %s" (Symbol.name s) (Func.name frame.func))

let temp_val frame tmp =
  match Temp.Tbl.find_opt frame.temps tmp with
  | Some v -> v
  | None -> Value.err "read of undefined temp %s" (Temp.to_string tmp)

let eval_operand t frame (o : Ops.operand) : Value.t =
  match o with
  | Ops.Temp tmp -> temp_val frame tmp
  | Ops.Int i -> Value.Vint i
  | Ops.Flt f -> Value.Vflt f
  | Ops.Sym_addr s -> Value.Vint (sym_addr t frame s)

let eval_addr t frame (a : Ops.addr) : int64 =
  let base =
    match a.Ops.base with
    | Ops.Sym s -> sym_addr t frame s
    | Ops.Reg r -> Value.to_int (temp_val frame r)
  in
  Int64.add base (Int64.of_int a.Ops.offset)

let record_access t site addr =
  if t.collect_profile then
    match Memory.location_of_addr t.mem addr with
    | Some loc -> Alias_profile.record t.profile site loc
    | None -> () (* wild access; the load/store itself will fault *)

(* --- execution --- *)

let spend t =
  t.steps <- t.steps + 1;
  if t.steps > t.fuel then raise Out_of_fuel

let rec call_function t (callee : Func.t) (args : Value.t list) : Value.t option =
  (* build the frame: formals then locals, each a region *)
  let mk_region s =
    let base = Memory.alloc t.mem ~size:(Symbol.size_bytes s) ~loc:(Location.Sym s) in
    (s, base)
  in
  let formal_regions = List.map mk_region (Func.formals callee) in
  let local_regions = List.map mk_region (Func.locals callee) in
  let frame =
    { func = callee; temps = Temp.Tbl.create 32;
      frame_regions = formal_regions @ local_regions }
  in
  (* bind arguments into formal memory *)
  List.iter2
    (fun (s, base) v ->
      ignore s;
      Memory.store t.mem base v)
    formal_regions args;
  let result = run_block t frame (Func.entry callee) in
  List.iter (fun (_, base) -> Memory.free t.mem base) frame.frame_regions;
  result

and run_block t frame (label : Label.t) : Value.t option =
  if t.collect_profile then
    Alias_profile.record_block t.profile ~func:(Func.name frame.func)
      ~label_id:(Label.id label);
  let block = Func.find_block frame.func label in
  List.iter (exec_instr t frame) block.Block.instrs;
  spend t;
  match block.Block.term with
  | Instr.Jump l -> run_block t frame l
  | Instr.Br { cond; ifso; ifnot; site = _ } ->
    let v = eval_operand t frame cond in
    run_block t frame (if Value.truthy v then ifso else ifnot)
  | Instr.Ret None -> None
  | Instr.Ret (Some o) -> Some (eval_operand t frame o)

and exec_instr t frame (ins : Instr.instr) : unit =
  spend t;
  match ins with
  | Instr.Load { dst; addr; mty; site; _ } ->
    let a = eval_addr t frame addr in
    record_access t site a;
    Temp.Tbl.replace frame.temps dst (Memory.load_typed t.mem a mty)
  | Instr.Store { src; addr; site; _ } ->
    let v = eval_operand t frame src in
    let a = eval_addr t frame addr in
    (* direct accesses are recorded too: the dynamic mod sets of callees
       (used to speculate across calls) must see a callee's direct global
       stores, not just its indirect ones *)
    record_access t site a;
    Memory.store t.mem a v
  | Instr.Bin { dst; op; a; b } ->
    let va = eval_operand t frame a and vb = eval_operand t frame b in
    Temp.Tbl.replace frame.temps dst (Value.binop op va vb)
  | Instr.Un { dst; op; a } ->
    Temp.Tbl.replace frame.temps dst (Value.unop op (eval_operand t frame a))
  | Instr.Mov { dst; src } ->
    Temp.Tbl.replace frame.temps dst (eval_operand t frame src)
  | Instr.Alloc { dst; nbytes; site } ->
    let n = Int64.to_int (Value.to_int (eval_operand t frame nbytes)) in
    if n < 0 then Value.err "malloc of negative size";
    let base = Memory.alloc t.mem ~size:n ~loc:(Location.Heap site) in
    Temp.Tbl.replace frame.temps dst (Value.Vint base)
  | Instr.Call { dst; callee; args; _ } -> (
    let vargs = List.map (eval_operand t frame) args in
    match callee with
    | "print_int" ->
      let v = List.hd vargs in
      Buffer.add_string t.output (Fmt.str "%Ld\n" (Value.to_int v))
    | "print_float" ->
      let v = List.hd vargs in
      Buffer.add_string t.output (Fmt.str "%.6f\n" (Value.to_flt v))
    | _ -> (
      let g = Program.find_func t.prog callee in
      match call_function t g vargs, dst with
      | Some v, Some d -> Temp.Tbl.replace frame.temps d v
      | _, None -> ()
      | None, Some _ -> Value.err "void return used as a value in call to %s" callee))
  | Instr.Check _ | Instr.Invala _ | Instr.Sw_check _ ->
    Value.err "interpreter: promoted IR is not interpretable (use the machine simulator)"

(* Run main; returns the program's exit value. *)
let run (t : t) : int64 =
  let main = Program.main t.prog in
  match call_function t main [] with
  | Some v -> Value.to_int v
  | None -> 0L

let output t = Buffer.contents t.output
let profile t = t.profile
let steps t = t.steps

(* Convenience: interpret a program and return (exit code, output, profile). *)
let run_program ?fuel ?collect_profile prog =
  let t = create ?fuel ?collect_profile prog in
  let code = run t in
  (code, output t, profile t)
