(* Lowering: typed AST -> mid-level IR.

   The cardinal rule: every user variable stays in memory (explicit
   Load/Store on its symbol).  Lowering never caches a variable in a temp
   across statements — register promotion (lib/core) is the pass that earns
   that, and the baseline-vs-speculative comparison depends on both starting
   from the same memory-form IR.  Temps are single-assignment expression
   intermediates; merges of values (&&, ||, ?:) go through compiler scratch
   locals so the single-def discipline holds. *)

open Srp_ir

type ctx = {
  prog : Program.t;
  structs : Struct_env.t;
  func : Func.t;
  syms : (string, Symbol.t) Hashtbl.t; (* unique name -> symbol *)
  mutable cur : Block.t;
  mutable loop_stack : (Label.t * Label.t) list; (* (continue, break) *)
  mutable scratch : int;
}

exception Lower_error of string

let lerror fmt = Fmt.kstr (fun s -> raise (Lower_error s)) fmt

let emit ctx i = Block.append ctx.cur i

let fresh_temp ctx mty = Func.fresh_temp ctx.func mty

let fresh_site ctx = Site.Gen.fresh ctx.prog.Program.site_gen

let start_block ctx b = ctx.cur <- b

(* Terminate the current block and continue in [next]. *)
let finish ctx term next =
  ctx.cur.Block.term <- term;
  start_block ctx next

let find_sym ctx name =
  match Hashtbl.find_opt ctx.syms name with
  | Some s -> s
  | None -> lerror "lower: unresolved symbol %s" name

let scratch_local ctx mty =
  ctx.scratch <- ctx.scratch + 1;
  let name = Fmt.str "$t%d" ctx.scratch in
  let s =
    Symbol.Gen.fresh ctx.prog.Program.sym_gen ~name ~storage:Symbol.Local
      ~mty ~size_bytes:8 ~is_scalar:true
  in
  Func.add_local ctx.func s;
  Hashtbl.replace ctx.syms name s;
  s

let sizeof ctx ty = Struct_env.sizeof ctx.structs Ast.no_pos ty

let mty_of ty = Struct_env.mty_of_ty Ast.no_pos ty

let is_aggregate = function Ast.Tarr _ | Ast.Tstruct _ -> true | _ -> false

(* Load the value at [addr]. *)
let load ctx addr mty =
  let dst = fresh_temp ctx mty in
  emit ctx (Instr.Load { dst; addr; mty; site = fresh_site ctx; promo = Instr.P_none });
  Ops.Temp dst

(* Materialize an address as an integer operand (pointer value). *)
let addr_to_operand ctx (a : Ops.addr) : Ops.operand =
  match a.Ops.base, a.Ops.offset with
  | Ops.Sym s, 0 ->
    Symbol.mark_addr_taken s;
    Ops.Sym_addr s
  | Ops.Sym s, off ->
    Symbol.mark_addr_taken s;
    let dst = fresh_temp ctx Mem_ty.I64 in
    emit ctx (Instr.Bin { dst; op = Ops.Add; a = Ops.Sym_addr s; b = Ops.Int (Int64.of_int off) });
    Ops.Temp dst
  | Ops.Reg t, 0 -> Ops.Temp t
  | Ops.Reg t, off ->
    let dst = fresh_temp ctx Mem_ty.I64 in
    emit ctx (Instr.Bin { dst; op = Ops.Add; a = Ops.Temp t; b = Ops.Int (Int64.of_int off) });
    Ops.Temp dst

(* Turn a pointer-valued operand into an addr base. *)
let operand_to_addr ctx (o : Ops.operand) : Ops.addr =
  match o with
  | Ops.Temp t -> Ops.addr_of_temp t
  | Ops.Sym_addr s -> Ops.addr_of_sym s
  | Ops.Int _ | Ops.Flt _ ->
    (* e.g. *(int* )0 — materialize through a temp; will fault at runtime *)
    let dst = fresh_temp ctx Mem_ty.I64 in
    emit ctx (Instr.Mov { dst; src = o });
    Ops.addr_of_temp dst

let binop_ir ~float_ (op : Ast.binop) : Ops.binop =
  match op, float_ with
  | Ast.Badd, false -> Ops.Add
  | Ast.Bsub, false -> Ops.Sub
  | Ast.Bmul, false -> Ops.Mul
  | Ast.Bdiv, false -> Ops.Div
  | Ast.Brem, _ -> Ops.Rem
  | Ast.Band, _ -> Ops.And
  | Ast.Bor, _ -> Ops.Or
  | Ast.Bxor, _ -> Ops.Xor
  | Ast.Bshl, _ -> Ops.Shl
  | Ast.Bshr, _ -> Ops.Shr
  | Ast.Beq, false -> Ops.Eq
  | Ast.Bne, false -> Ops.Ne
  | Ast.Blt, false -> Ops.Lt
  | Ast.Ble, false -> Ops.Le
  | Ast.Bgt, false -> Ops.Gt
  | Ast.Bge, false -> Ops.Ge
  | Ast.Badd, true -> Ops.FAdd
  | Ast.Bsub, true -> Ops.FSub
  | Ast.Bmul, true -> Ops.FMul
  | Ast.Bdiv, true -> Ops.FDiv
  | Ast.Beq, true -> Ops.FEq
  | Ast.Bne, true -> Ops.FNe
  | Ast.Blt, true -> Ops.FLt
  | Ast.Ble, true -> Ops.FLe
  | Ast.Bgt, true -> Ops.FGt
  | Ast.Bge, true -> Ops.FGe
  | (Ast.Bland | Ast.Blor), _ -> assert false (* handled by control flow *)

(* --- expressions --- *)

let rec rvalue ctx (e : Typed_ast.texpr) : Ops.operand =
  let open Typed_ast in
  match e.tdesc with
  | Tint_lit v -> Ops.Int v
  | Tfloat_lit v -> Ops.Flt v
  | Tvar name ->
    let s = find_sym ctx name in
    if is_aggregate e.tty then begin
      (* array/struct decays to its address *)
      Symbol.mark_addr_taken s;
      Ops.Sym_addr s
    end
    else load ctx (Ops.addr_of_sym s) (Symbol.mty s)
  | Tcast_i2f a ->
    let v = rvalue ctx a in
    let dst = fresh_temp ctx Mem_ty.F64 in
    emit ctx (Instr.Un { dst; op = Ops.I2F; a = v });
    Ops.Temp dst
  | Tcast_f2i a ->
    let v = rvalue ctx a in
    let dst = fresh_temp ctx Mem_ty.I64 in
    emit ctx (Instr.Un { dst; op = Ops.F2I; a = v });
    Ops.Temp dst
  | Tun (op, a) -> (
    let v = rvalue ctx a in
    match op, a.tty with
    | Ast.Uneg, Ast.Tdouble ->
      let dst = fresh_temp ctx Mem_ty.F64 in
      emit ctx (Instr.Un { dst; op = Ops.FNeg; a = v });
      Ops.Temp dst
    | Ast.Uneg, _ ->
      let dst = fresh_temp ctx Mem_ty.I64 in
      emit ctx (Instr.Un { dst; op = Ops.Neg; a = v });
      Ops.Temp dst
    | Ast.Unot, _ ->
      (* !x = (x == 0) on the boolean view of x *)
      let b = to_bool ctx v a.tty in
      let dst = fresh_temp ctx Mem_ty.I64 in
      emit ctx (Instr.Bin { dst; op = Ops.Eq; a = b; b = Ops.Int 0L });
      Ops.Temp dst
    | Ast.Ubnot, _ ->
      let dst = fresh_temp ctx Mem_ty.I64 in
      emit ctx (Instr.Un { dst; op = Ops.Not; a = v });
      Ops.Temp dst)
  | Tbin ((Ast.Bland | Ast.Blor) as op, a, b) -> lower_shortcircuit ctx op a b
  | Tbin (op, a, b) -> (
    (* pointer arithmetic scaling *)
    match e.tty, a.tty, b.tty with
    | Ast.Tptr elt, _, Ast.Tint when op = Ast.Badd || op = Ast.Bsub ->
      let elt_size = sizeof ctx elt in
      let base = rvalue ctx a in
      let idx = rvalue ctx b in
      let scaled = fresh_temp ctx Mem_ty.I64 in
      emit ctx
        (Instr.Bin { dst = scaled; op = Ops.Mul; a = idx; b = Ops.Int (Int64.of_int elt_size) });
      let dst = fresh_temp ctx Mem_ty.I64 in
      let irop = if op = Ast.Badd then Ops.Add else Ops.Sub in
      emit ctx (Instr.Bin { dst; op = irop; a = base; b = Ops.Temp scaled });
      Ops.Temp dst
    | _ ->
      let float_ = a.tty = Ast.Tdouble || b.tty = Ast.Tdouble in
      let va = rvalue ctx a in
      let vb = rvalue ctx b in
      let irop = binop_ir ~float_ op in
      let dst = fresh_temp ctx (Ops.binop_result_mty irop) in
      emit ctx (Instr.Bin { dst; op = irop; a = va; b = vb });
      Ops.Temp dst)
  | Tderef _ | Tindex _ | Tfield _ | Tarrow _ ->
    if is_aggregate e.tty then
      (* aggregate lvalue in value context: its address *)
      addr_to_operand ctx (lvalue_addr ctx e)
    else
      let addr = lvalue_addr ctx e in
      load ctx addr (mty_of e.tty)
  | Taddr a -> addr_to_operand ctx (lvalue_addr ctx a)
  | Tcall (name, args) -> (
    match lower_call ctx name args (Some e.tty) with
    | Some v -> v
    | None -> lerror "void call used as a value")
  | Tcond (c, a, b) ->
    (* route both arms through a scratch local; promotion cleans it up *)
    let mty = if e.tty = Ast.Tdouble then Mem_ty.F64 else Mem_ty.I64 in
    let s = scratch_local ctx mty in
    let cond = lower_cond ctx c in
    let bt = Func.fresh_block ~hint:"ct" ctx.func in
    let bf = Func.fresh_block ~hint:"cf" ctx.func in
    let bj = Func.fresh_block ~hint:"cj" ctx.func in
    finish ctx
      (Instr.Br
         { cond; ifso = Block.label bt; ifnot = Block.label bf;
           site = fresh_site ctx })
      bt;
    let va = rvalue ctx a in
    emit ctx (Instr.Store { src = va; addr = Ops.addr_of_sym s; mty; site = fresh_site ctx });
    finish ctx (Instr.Jump (Block.label bj)) bf;
    let vb = rvalue ctx b in
    emit ctx (Instr.Store { src = vb; addr = Ops.addr_of_sym s; mty; site = fresh_site ctx });
    finish ctx (Instr.Jump (Block.label bj)) bj;
    load ctx (Ops.addr_of_sym s) mty

(* Coerce an operand to a 0/1 integer given its MiniC type. *)
and to_bool ctx (v : Ops.operand) (ty : Ast.ty) : Ops.operand =
  match ty with
  | Ast.Tdouble ->
    let dst = fresh_temp ctx Mem_ty.I64 in
    emit ctx (Instr.Bin { dst; op = Ops.FNe; a = v; b = Ops.Flt 0.0 });
    Ops.Temp dst
  | _ -> v

(* Evaluate [e] for control flow: an integer operand, 0 = false. *)
and lower_cond ctx (e : Typed_ast.texpr) : Ops.operand =
  let v = rvalue ctx e in
  to_bool ctx v e.Typed_ast.tty

and lower_shortcircuit ctx op a b : Ops.operand =
  let s = scratch_local ctx Mem_ty.I64 in
  let store v =
    emit ctx
      (Instr.Store { src = v; addr = Ops.addr_of_sym s; mty = Mem_ty.I64; site = fresh_site ctx })
  in
  let beval = Func.fresh_block ~hint:"sc" ctx.func in
  let bshort = Func.fresh_block ~hint:"sc" ctx.func in
  let bj = Func.fresh_block ~hint:"scj" ctx.func in
  let ca = lower_cond ctx a in
  (match op with
  | Ast.Bland ->
    finish ctx
      (Instr.Br
         { cond = ca; ifso = Block.label beval; ifnot = Block.label bshort;
           site = fresh_site ctx })
      bshort;
    store (Ops.Int 0L)
  | Ast.Blor ->
    finish ctx
      (Instr.Br
         { cond = ca; ifso = Block.label bshort; ifnot = Block.label beval;
           site = fresh_site ctx })
      bshort;
    store (Ops.Int 1L)
  | _ -> assert false);
  finish ctx (Instr.Jump (Block.label bj)) beval;
  let cb = lower_cond ctx b in
  (* normalize to 0/1 *)
  let dst = fresh_temp ctx Mem_ty.I64 in
  emit ctx (Instr.Bin { dst; op = Ops.Ne; a = cb; b = Ops.Int 0L });
  store (Ops.Temp dst);
  finish ctx (Instr.Jump (Block.label bj)) bj;
  load ctx (Ops.addr_of_sym s) Mem_ty.I64

(* Address of an lvalue.  Constant offsets accumulate into the [addr]
   offset so [g.f] and [a[3]] stay *direct* references. *)
and lvalue_addr ctx (e : Typed_ast.texpr) : Ops.addr =
  let open Typed_ast in
  match e.tdesc with
  | Tvar name ->
    let s = find_sym ctx name in
    Ops.addr_of_sym s
  | Tderef a -> operand_to_addr ctx (rvalue ctx a)
  | Tindex (a, i) -> (
    let elt_size = sizeof ctx e.tty in
    let base_addr =
      if is_aggregate a.tty then lvalue_addr ctx a
      else operand_to_addr ctx (rvalue ctx a) (* pointer value *)
    in
    match i.tdesc with
    | Tint_lit n ->
      { base_addr with Ops.offset = base_addr.Ops.offset + (Int64.to_int n * elt_size) }
    | _ ->
      let vi = rvalue ctx i in
      let scaled = fresh_temp ctx Mem_ty.I64 in
      emit ctx
        (Instr.Bin { dst = scaled; op = Ops.Mul; a = vi; b = Ops.Int (Int64.of_int elt_size) });
      let base_op = addr_to_operand ctx base_addr in
      let sum = fresh_temp ctx Mem_ty.I64 in
      emit ctx (Instr.Bin { dst = sum; op = Ops.Add; a = base_op; b = Ops.Temp scaled });
      Ops.addr_of_temp sum)
  | Tfield (a, f) ->
    let base = lvalue_addr ctx a in
    { base with Ops.offset = base.Ops.offset + f.Struct_env.f_offset }
  | Tarrow (a, f) ->
    let p = rvalue ctx a in
    let base = operand_to_addr ctx p in
    { base with Ops.offset = base.Ops.offset + f.Struct_env.f_offset }
  | _ -> lerror "not an lvalue"

and lower_call ctx name args (ret_ty : Ast.ty option) : Ops.operand option =
  let vargs = List.map (rvalue ctx) args in
  match name with
  | "malloc" -> (
    match vargs with
    | [ n ] ->
      let dst = fresh_temp ctx Mem_ty.I64 in
      emit ctx (Instr.Alloc { dst; nbytes = n; site = fresh_site ctx });
      Some (Ops.Temp dst)
    | _ -> lerror "malloc arity")
  | "print_int" | "print_float" ->
    emit ctx (Instr.Call { dst = None; callee = name; args = vargs; site = fresh_site ctx });
    None
  | _ ->
    let dst =
      match ret_ty with
      | Some Ast.Tvoid | None -> None
      | Some Ast.Tdouble -> Some (fresh_temp ctx Mem_ty.F64)
      | Some _ -> Some (fresh_temp ctx Mem_ty.I64)
    in
    emit ctx (Instr.Call { dst; callee = name; args = vargs; site = fresh_site ctx });
    Option.map (fun t -> Ops.Temp t) dst

(* --- statements --- *)

let rec lower_stmt ctx (s : Typed_ast.tstmt) : unit =
  let open Typed_ast in
  match s with
  | TSdecl (ty, uname, init) ->
    let is_scalar = not (is_aggregate ty) in
    let mty = if ty = Ast.Tdouble then Mem_ty.F64 else Mem_ty.I64 in
    let sym =
      Symbol.Gen.fresh ctx.prog.Program.sym_gen ~name:uname
        ~storage:Symbol.Local ~mty ~size_bytes:(sizeof ctx ty) ~is_scalar
    in
    Func.add_local ctx.func sym;
    Hashtbl.replace ctx.syms uname sym;
    Option.iter
      (fun e ->
        let v = rvalue ctx e in
        emit ctx
          (Instr.Store { src = v; addr = Ops.addr_of_sym sym; mty; site = fresh_site ctx }))
      init
  | TSassign (lhs, rhs) ->
    let v = rvalue ctx rhs in
    let addr = lvalue_addr ctx lhs in
    let mty = mty_of lhs.tty in
    emit ctx (Instr.Store { src = v; addr; mty; site = fresh_site ctx })
  | TSexpr e -> (
    match e.tdesc with
    | Tcall (name, args) -> ignore (lower_call ctx name (args : texpr list) (Some e.tty))
    | _ -> ignore (rvalue ctx e))
  | TSif (c, then_, else_) ->
    let cond = lower_cond ctx c in
    let bt = Func.fresh_block ~hint:"then" ctx.func in
    let bf = Func.fresh_block ~hint:"else" ctx.func in
    let bj = Func.fresh_block ~hint:"endif" ctx.func in
    finish ctx
      (Instr.Br
         { cond; ifso = Block.label bt; ifnot = Block.label bf;
           site = fresh_site ctx })
      bt;
    List.iter (lower_stmt ctx) then_;
    finish ctx (Instr.Jump (Block.label bj)) bf;
    List.iter (lower_stmt ctx) else_;
    finish ctx (Instr.Jump (Block.label bj)) bj
  | TSwhile (c, body) ->
    let bhead = Func.fresh_block ~hint:"while" ctx.func in
    let bbody = Func.fresh_block ~hint:"body" ctx.func in
    let bexit = Func.fresh_block ~hint:"endwhile" ctx.func in
    finish ctx (Instr.Jump (Block.label bhead)) bhead;
    let cond = lower_cond ctx c in
    finish ctx
      (Instr.Br
         { cond; ifso = Block.label bbody; ifnot = Block.label bexit;
           site = fresh_site ctx })
      bbody;
    ctx.loop_stack <- (Block.label bhead, Block.label bexit) :: ctx.loop_stack;
    List.iter (lower_stmt ctx) body;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    finish ctx (Instr.Jump (Block.label bhead)) bexit
  | TSdo (body, c) ->
    let bbody = Func.fresh_block ~hint:"do" ctx.func in
    let bcond = Func.fresh_block ~hint:"docond" ctx.func in
    let bexit = Func.fresh_block ~hint:"enddo" ctx.func in
    finish ctx (Instr.Jump (Block.label bbody)) bbody;
    ctx.loop_stack <- (Block.label bcond, Block.label bexit) :: ctx.loop_stack;
    List.iter (lower_stmt ctx) body;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    finish ctx (Instr.Jump (Block.label bcond)) bcond;
    let cond = lower_cond ctx c in
    finish ctx
      (Instr.Br
         { cond; ifso = Block.label bbody; ifnot = Block.label bexit;
           site = fresh_site ctx })
      bexit
  | TSreturn e ->
    let v = Option.map (rvalue ctx) e in
    let dead = Func.fresh_block ~hint:"dead" ctx.func in
    finish ctx (Instr.Ret v) dead
  | TSbreak -> (
    match ctx.loop_stack with
    | (_, bexit) :: _ ->
      let dead = Func.fresh_block ~hint:"dead" ctx.func in
      finish ctx (Instr.Jump bexit) dead
    | [] -> lerror "break outside a loop")
  | TScontinue -> (
    match ctx.loop_stack with
    | (bcont, _) :: _ ->
      let dead = Func.fresh_block ~hint:"dead" ctx.func in
      finish ctx (Instr.Jump bcont) dead
    | [] -> lerror "continue outside a loop")
  | TSblock body -> List.iter (lower_stmt ctx) body

(* --- constant evaluation for global initializers --- *)

let rec const_int (e : Typed_ast.texpr) : int64 =
  let open Typed_ast in
  match e.tdesc with
  | Tint_lit v -> v
  | Tun (Ast.Uneg, a) -> Int64.neg (const_int a)
  | Tbin (Ast.Badd, a, b) -> Int64.add (const_int a) (const_int b)
  | Tbin (Ast.Bsub, a, b) -> Int64.sub (const_int a) (const_int b)
  | Tbin (Ast.Bmul, a, b) -> Int64.mul (const_int a) (const_int b)
  | Tcast_f2i a -> Int64.of_float (const_float a)
  | _ -> lerror "global initializer must be a constant integer expression"

and const_float (e : Typed_ast.texpr) : float =
  let open Typed_ast in
  match e.tdesc with
  | Tfloat_lit v -> v
  | Tint_lit v -> Int64.to_float v
  | Tun (Ast.Uneg, a) -> -.const_float a
  | Tbin (Ast.Badd, a, b) -> const_float a +. const_float b
  | Tbin (Ast.Bsub, a, b) -> const_float a -. const_float b
  | Tbin (Ast.Bmul, a, b) -> const_float a *. const_float b
  | Tcast_i2f a -> Int64.to_float (const_int a)
  | _ -> lerror "global initializer must be a constant float expression"

(* --- program --- *)

let lower_func ctx_prog structs syms (tf : Typed_ast.tfunc) : Func.t =
  let prog = ctx_prog in
  let temp_gen = Temp.Gen.create () in
  let label_gen = Label.Gen.create () in
  let formals =
    List.map
      (fun (ty, uname) ->
        let mty = if ty = Ast.Tdouble then Mem_ty.F64 else Mem_ty.I64 in
        Symbol.Gen.fresh prog.Program.sym_gen ~name:uname
          ~storage:Symbol.Formal ~mty ~size_bytes:8 ~is_scalar:true)
      tf.Typed_ast.tf_formals
  in
  let ret_mty =
    match tf.Typed_ast.tf_ret with
    | Ast.Tvoid -> None
    | Ast.Tdouble -> Some Mem_ty.F64
    | _ -> Some Mem_ty.I64
  in
  let func = Func.create ~name:tf.Typed_ast.tf_name ~formals ~ret_mty ~temp_gen ~label_gen in
  let local_syms = Hashtbl.copy syms in
  List.iter (fun s -> Hashtbl.replace local_syms (Symbol.name s) s) formals;
  let ctx =
    { prog; structs; func; syms = local_syms;
      cur = Func.find_block func (Func.entry func); loop_stack = []; scratch = Hashtbl.hash tf.Typed_ast.tf_name land 0xffff }
  in
  List.iter (lower_stmt ctx) tf.Typed_ast.tf_body;
  (* fall-through return *)
  (match ctx.cur.Block.term, ret_mty with
  | Instr.Ret None, Some _ -> ctx.cur.Block.term <- Instr.Ret (Some (Ops.Int 0L))
  | _ -> ());
  func

let lower_program (tp : Typed_ast.tprogram) : Program.t =
  let prog = Program.create () in
  let structs = tp.Typed_ast.tp_structs in
  let syms = Hashtbl.create 32 in
  (* globals *)
  List.iter
    (fun (g : Typed_ast.tglobal) ->
      let ty = g.Typed_ast.tg_ty in
      let is_scalar = not (is_aggregate ty) in
      let mty =
        match ty with
        | Ast.Tdouble | Ast.Tarr (Ast.Tdouble, _) -> Mem_ty.F64
        | _ -> Mem_ty.I64
      in
      let sym =
        Symbol.Gen.fresh prog.Program.sym_gen ~name:g.Typed_ast.tg_name
          ~storage:Symbol.Global ~mty
          ~size_bytes:(Struct_env.sizeof structs Ast.no_pos ty) ~is_scalar
      in
      Hashtbl.replace syms g.Typed_ast.tg_name sym;
      let init =
        match g.Typed_ast.tg_init, ty with
        | None, _ -> Program.Init_zero
        | Some (Typed_ast.TIscalar e), Ast.Tdouble ->
          Program.Init_floats (Program.Payload.of_array [| const_float e |])
        | Some (Typed_ast.TIscalar e), _ ->
          Program.Init_ints (Program.Payload.of_array [| const_int e |])
        | Some (Typed_ast.TIlist es), (Ast.Tarr (Ast.Tdouble, _) | Ast.Tdouble) ->
          Program.Init_floats
            (Program.Payload.of_array (Array.of_list (List.map const_float es)))
        | Some (Typed_ast.TIlist es), _ ->
          Program.Init_ints
            (Program.Payload.of_array (Array.of_list (List.map const_int es)))
      in
      Program.add_global prog sym init)
    tp.Typed_ast.tp_globals;
  (* functions *)
  List.iter
    (fun tf -> Program.add_func prog (lower_func prog structs syms tf))
    tp.Typed_ast.tp_funcs;
  prog

(* A front-end error as text: [LINE:COL: message] for the positioned
   ones, the bare message for lowering errors; [None] for any other
   exception (a bug, not a bad source). *)
let error_message (e : exn) : string option =
  match e with
  | Lexer.Lex_error (msg, p) | Parser.Parse_error (msg, p)
  | Typecheck.Type_error (msg, p) ->
    Some (Fmt.str "%a: %s" Ast.pp_pos p msg)
  | Lower_error msg -> Some msg
  | _ -> None

(* Front door: source text -> verified IR program.  Critical edges are
   split here, before any profiling run, so the block set (and hence the
   profile's block counts) is identical between the profiling compile and
   the optimizing compile. *)
let compile_source (src : string) : Program.t =
  let module Stats = Srp_obs.Stats in
  let ast = Stats.time ~pass:"frontend" "parse" (fun () -> Parser.parse_program src) in
  let tp =
    Stats.time ~pass:"frontend" "typecheck" (fun () -> Typecheck.check_program ast)
  in
  let prog = Stats.time ~pass:"frontend" "lower" (fun () -> lower_program tp) in
  if Program.find_func_opt prog "main" = None then lerror "no function main";
  Stats.time ~pass:"frontend" "verify" (fun () ->
      List.iter Loops.split_critical_edges (Program.funcs prog);
      Verify.check_program prog);
  Stats.add
    (Stats.counter ~pass:"frontend" "functions_lowered")
    (List.length (Program.funcs prog));
  prog
