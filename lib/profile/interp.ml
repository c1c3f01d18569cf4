(* IR interpreter.  Two jobs:
   1. Reference semantics for differential testing (its printed output must
      match the machine simulator's, at every optimization level).
   2. Alias-profile collection (the paper's instrumentation-based profiling
      tool, section 3.1): every dynamic memory access resolves to its
      abstract location and is recorded per site.

   Pre-promotion IR only: promotion-inserted Check/Invala instructions have
   machine semantics and are rejected here.

   Representation: each function is decoded once per [t], on its first
   call.  Its blocks become an array, each terminator names its successors
   by index, and every temp, formal and local gets a slot in one
   [Value.t array] per frame (formals and locals hold their region's base).
   An operand is an immediate, a slot or a deferred fault: the address of
   a global is resolved at decoding, and a symbol with no region raises
   only when evaluated, as it did when looked up.  A callee is resolved on
   the call's first execution.  Every load and store reaches its word by
   address, through [Memory]'s pages, as the machine does.

   Only the profile needs an access's location.  A direct access (a
   formal, local or global plus a constant offset inside the symbol) has
   its symbol's location fixed at decoding.  Any other access (indirect,
   or direct with an offset that leaves its symbol) asks the region table
   for one, and only when a profile is being collected.

   The profile is collected densely: each site has one record, referenced
   by its loads and stores, holding an execution count and one hit cell
   per location it touched, the last one in front; each decoded block
   counts its entries.  The counters are added to [Alias_profile.t] once,
   when [run] returns or raises, so a run cut short by a fault or by fuel
   leaves every block entered and every access made in the profile. *)

open Srp_ir
module Location = Srp_alias.Location

exception Out_of_fuel

(* Per-site profile counters.  [hot] is the cell last hit: one physical
   comparison settles a site that keeps touching one location. *)
type cell = { loc : Location.t; mutable hits : int }

type site = {
  id : Site.t;
  mutable count : int;
  mutable hot : cell;
  mutable cells : cell list; (* every location touched, [hot] included *)
}

type operand =
  | Imm of Value.t (* a constant, or the address of a global *)
  | Tmp of int * Temp.t (* slot; the temp names it in the undefined error *)
  | Frame of int (* slot holding a formal's or local's base *)
  | Fault of string (* a symbol with no region: raised when evaluated *)

type addr =
  | Direct of { slot : int; off : int64 } (* a formal or local *)
  | Absolute of int64 (* a global *)
  | Indirect of { base : operand; off : int64 }

(* An access's [at] is its location when decoding fixed it, or [None] if
   the profile must look it up. *)
type instr =
  | Load of { dst : int; addr : addr; mty : Mem_ty.t; site : site; at : Location.t option }
  | Store of { src : operand; addr : addr; site : site; at : Location.t option }
  | Bin of { dst : int; op : Ops.binop; a : operand; b : operand }
  | Un of { dst : int; op : Ops.unop; a : operand }
  | Mov of { dst : int; src : operand }
  | Alloc of { dst : int; nbytes : operand; loc : Location.t }
  | Print of { args : operand list; float : bool }
  | Call of {
      dst : int; (* -1: none *)
      callee : string;
      args : operand list;
      mutable target : func option;
    }
  | Promoted

and term =
  | Jump of int
  | Br of operand * int * int
  | Ret of operand
  | Ret_void
  | Missing of Label.t (* a label with no block: entered, then refused *)

and block = { label_id : int; mutable entries : int; instrs : instr array; term : term }

and func = {
  ir : Func.t;
  nsyms : int; (* slots [0, nsyms): formals then locals *)
  formal_slots : int list;
  sizes : int array; (* region bytes per symbol slot *)
  locs : Location.t array; (* location per symbol slot *)
  nslots : int;
  blocks : block array;
  entry : int;
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
  funcs : (string, func) Hashtbl.t; (* decoded so far *)
  sites : site Site.Tbl.t;
}

(* Slot sentinels, physically distinct from every value a program makes. *)
let undefined : Value.t = Value.Vflt (Sys.opaque_identity nan)
let void : Value.t = Value.Vflt (Sys.opaque_identity nan)
let no_cell = { loc = Location.Heap (-1); hits = 0 }

(* --- setup --- *)

let init_global t (s : Symbol.t) (init : Program.global_init) =
  let base = Memory.alloc t.mem ~size:(Symbol.size_bytes s) ~loc:(Location.Sym s) in
  Hashtbl.replace t.globals (Symbol.id s) base;
  (match init with
  | Program.Init_zero -> ()
  | Program.Init_ints vs ->
    Program.Payload.iteri
      (fun i v -> Memory.store t.mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vint v))
      vs
  | Program.Init_floats vs ->
    Program.Payload.iteri
      (fun i v -> Memory.store t.mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vflt v))
      vs)

let create ?(fuel = 50_000_000) ?(collect_profile = true) (prog : Program.t) : t =
  let t =
    { prog; mem = Memory.create (); globals = Hashtbl.create 16;
      output = Buffer.create 256; profile = Alias_profile.create (); fuel;
      steps = 0; collect_profile; funcs = Hashtbl.create 16;
      sites = Site.Tbl.create 64 }
  in
  List.iter (fun (s, init) -> init_global t s init) (Program.globals prog);
  t

(* --- decoding --- *)

let site_of t id =
  match Site.Tbl.find_opt t.sites id with
  | Some s -> s
  | None ->
    let s = { id; count = 0; hot = no_cell; cells = [] } in
    Site.Tbl.replace t.sites id s;
    s

let decode t (f : Func.t) : func =
  let syms = Array.of_list (Func.formals f @ Func.locals f) in
  let nsyms = Array.length syms in
  let nslots = ref nsyms in
  let temp_slots = Hashtbl.create 64 in
  let dst tmp =
    let id = Temp.id tmp in
    match Hashtbl.find_opt temp_slots id with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.replace temp_slots id i;
      i
  in
  let temp tmp = Tmp (dst tmp, tmp) in
  let locs = Array.map (fun s -> Location.Sym s) syms in
  (* a frame symbol is found by identity, first occurrence first *)
  let frame_slot s =
    let rec find i = if i = nsyms then None else if syms.(i) == s then Some i else find (i + 1) in
    find 0
  in
  let sym (s : Symbol.t) =
    match Symbol.storage s with
    | Symbol.Global -> (
      match Hashtbl.find_opt t.globals (Symbol.id s) with
      | Some a -> Imm (Value.Vint a)
      | None -> Fault (Fmt.str "unknown global %s" (Symbol.name s)))
    | Symbol.Local | Symbol.Formal -> (
      match frame_slot s with
      | Some i -> Frame i
      | None -> Fault (Fmt.str "no frame slot for %s in %s" (Symbol.name s) (Func.name f)))
  in
  let operand (o : Ops.operand) =
    match o with
    | Ops.Temp tmp -> temp tmp
    | Ops.Int i -> Imm (Value.Vint i)
    | Ops.Flt x -> Imm (Value.Vflt x)
    | Ops.Sym_addr s -> sym s
  in
  (* an access's address and, if the offset stays inside its symbol, the
     symbol's location *)
  let access (a : Ops.addr) =
    let off = Int64.of_int a.Ops.offset in
    let inside s loc =
      if Int64.compare off 0L >= 0 && Int64.compare off (Int64.of_int (Symbol.size_bytes s)) < 0
      then Some loc
      else None
    in
    match a.Ops.base with
    | Ops.Reg r -> (Indirect { base = temp r; off }, None)
    | Ops.Sym s -> (
      match sym s with
      | Frame slot -> (Direct { slot; off }, inside s locs.(slot))
      | Imm (Value.Vint base) ->
        (Absolute (Int64.add base off), inside s (Memory.location t.mem base))
      | base -> (Indirect { base; off }, None))
  in
  (* block indices: the first block of each label, then labels jumped to
     that have no block *)
  let index = Hashtbl.create 16 in
  let missing = ref [] in
  let nblocks = ref 0 in
  let label_index l =
    let id = Label.id l in
    match Hashtbl.find_opt index id with
    | Some i -> i
    | None ->
      let i = !nblocks in
      incr nblocks;
      Hashtbl.replace index id i;
      missing := l :: !missing;
      i
  in
  let firsts =
    List.filter
      (fun b ->
        let id = Label.id (Block.label b) in
        if Hashtbl.mem index id then false
        else begin
          Hashtbl.replace index id !nblocks;
          incr nblocks;
          true
        end)
      (Func.blocks f)
  in
  let instr (ins : Instr.instr) =
    match ins with
    | Instr.Load { dst = d; addr = a; mty; site; _ } ->
      let addr, at = access a in
      Load { dst = dst d; addr; mty; site = site_of t site; at }
    | Instr.Store { src; addr = a; site; _ } ->
      let src = operand src in
      let addr, at = access a in
      Store { src; addr; site = site_of t site; at }
    | Instr.Bin { dst = d; op; a; b } -> Bin { dst = dst d; op; a = operand a; b = operand b }
    | Instr.Un { dst = d; op; a } -> Un { dst = dst d; op; a = operand a }
    | Instr.Mov { dst = d; src } -> Mov { dst = dst d; src = operand src }
    | Instr.Alloc { dst = d; nbytes; site } ->
      Alloc { dst = dst d; nbytes = operand nbytes; loc = Location.Heap site }
    | Instr.Call { dst = d; callee; args; _ } -> (
      let args = List.map operand args in
      match callee with
      | "print_int" -> Print { args; float = false }
      | "print_float" -> Print { args; float = true }
      | _ ->
        Call { dst = Option.fold ~none:(-1) ~some:dst d; callee; args; target = None })
    | Instr.Check _ | Instr.Invala _ | Instr.Sw_check _ -> Promoted
  in
  let term (tm : Instr.terminator) =
    match tm with
    | Instr.Jump l -> Jump (label_index l)
    | Instr.Br { cond; ifso; ifnot; _ } ->
      Br (operand cond, label_index ifso, label_index ifnot)
    | Instr.Ret None -> Ret_void
    | Instr.Ret (Some o) -> Ret (operand o)
  in
  let decoded =
    List.map
      (fun b ->
        { label_id = Label.id (Block.label b); entries = 0;
          instrs = Array.of_list (List.map instr b.Block.instrs);
          term = term b.Block.term })
      firsts
  in
  let entry = label_index (Func.entry f) in
  let absent =
    List.rev_map
      (fun l -> { label_id = Label.id l; entries = 0; instrs = [||]; term = Missing l })
      !missing
  in
  { ir = f; nsyms;
    formal_slots = List.init (List.length (Func.formals f)) Fun.id;
    sizes = Array.map Symbol.size_bytes syms; locs; nslots = !nslots;
    blocks = Array.of_list (decoded @ absent); entry }

let func_of t name =
  match Hashtbl.find_opt t.funcs name with
  | Some fn -> fn
  | None ->
    let fn = decode t (Program.find_func t.prog name) in
    Hashtbl.replace t.funcs name fn;
    fn

(* --- profile --- *)

let hit site loc =
  site.count <- site.count + 1;
  let c = site.hot in
  if c.loc == loc then c.hits <- c.hits + 1
  else
    match List.find_opt (fun c -> Location.equal c.loc loc) site.cells with
    | Some c ->
      c.hits <- c.hits + 1;
      site.hot <- c
    | None ->
      let c = { loc; hits = 1 } in
      site.cells <- c :: site.cells;
      site.hot <- c

(* Record an access at [a] with the location [at] fixed at decoding, or
   else the region table's.  A wild access is not recorded; the load or
   store itself faults. *)
let[@inline] record t site at a =
  match at with
  | Some loc -> hit site loc
  | None -> (
    match Memory.location t.mem a with loc -> hit site loc | exception Not_found -> ())

(* Add the counters to the profile and zero them. *)
let flush t =
  let p = t.profile in
  Site.Tbl.iter
    (fun _ s ->
      Alias_profile.add_count p s.id s.count;
      s.count <- 0;
      List.iter
        (fun c ->
          Alias_profile.add_hits p s.id c.loc c.hits;
          c.hits <- 0)
        s.cells)
    t.sites;
  Hashtbl.iter
    (fun _ fn ->
      Array.iter
        (fun b ->
          Alias_profile.add_block_count p ~func:(Func.name fn.ir) ~label_id:b.label_id
            b.entries;
          b.entries <- 0)
        fn.blocks)
    t.funcs

(* --- execution --- *)

let[@inline] spend t =
  t.steps <- t.steps + 1;
  if t.steps > t.fuel then raise Out_of_fuel

let[@inline] eval fr = function
  | Imm v -> v
  | Tmp (i, tmp) ->
    let v = Array.unsafe_get fr i in
    if v == undefined then Value.err "read of undefined temp %s" (Temp.to_string tmp);
    v
  | Frame i -> Array.unsafe_get fr i
  | Fault msg -> Value.err "%s" msg

let[@inline] address fr = function
  | Direct { slot; off } -> Int64.add (Value.to_int (Array.unsafe_get fr slot)) off
  | Absolute a -> a
  | Indirect { base; off } -> Int64.add (Value.to_int (eval fr base)) off

let rec call t (fn : func) (args : Value.t list) : Value.t =
  (* the frame's slots: formals then locals, each holding its region's base *)
  let fr = Array.make fn.nslots undefined in
  for i = 0 to fn.nsyms - 1 do
    fr.(i) <- Value.Vint (Memory.alloc t.mem ~size:fn.sizes.(i) ~loc:fn.locs.(i))
  done;
  (* bind arguments into formal memory *)
  List.iter2 (fun i v -> Memory.store t.mem (Value.to_int fr.(i)) v) fn.formal_slots args;
  let result = run_block t fn fr fn.entry in
  for i = 0 to fn.nsyms - 1 do
    Memory.free t.mem (Value.to_int fr.(i))
  done;
  result

and run_block t fn fr bi : Value.t =
  let b = Array.unsafe_get fn.blocks bi in
  if t.collect_profile then b.entries <- b.entries + 1;
  let instrs = b.instrs in
  for i = 0 to Array.length instrs - 1 do
    exec_instr t fr (Array.unsafe_get instrs i)
  done;
  match b.term with
  | Jump l ->
    spend t;
    run_block t fn fr l
  | Br (cond, ifso, ifnot) ->
    spend t;
    run_block t fn fr (if Value.truthy (eval fr cond) then ifso else ifnot)
  | Ret o ->
    spend t;
    eval fr o
  | Ret_void ->
    spend t;
    void
  | Missing l ->
    (* the label has no block: [Func.find_block] raises its error *)
    ignore (Func.find_block fn.ir l);
    assert false

and exec_instr t fr (ins : instr) : unit =
  spend t;
  match ins with
  | Load { dst; addr; mty; site; at } ->
    let a = address fr addr in
    if t.collect_profile then record t site at a;
    fr.(dst) <- Memory.load_typed t.mem a mty
  | Store { src; addr; site; at } ->
    let v = eval fr src in
    let a = address fr addr in
    (* direct accesses are recorded too: the dynamic mod sets of callees
       (used to speculate across calls) must see a callee's direct global
       stores, not just its indirect ones *)
    if t.collect_profile then record t site at a;
    Memory.store t.mem a v
  | Bin { dst; op; a; b } ->
    let va = eval fr a in
    let vb = eval fr b in
    fr.(dst) <- Value.binop op va vb
  | Un { dst; op; a } -> fr.(dst) <- Value.unop op (eval fr a)
  | Mov { dst; src } -> fr.(dst) <- eval fr src
  | Alloc { dst; nbytes; loc } ->
    let n = Value.to_int (eval fr nbytes) in
    fr.(dst) <- Value.Vint (Memory.malloc t.mem ~nbytes:n ~loc)
  | Print { args; float } ->
    let v = List.hd (List.map (eval fr) args) in
    Buffer.add_string t.output
      (if float then Fmt.str "%.6f\n" (Value.to_flt v) else Fmt.str "%Ld\n" (Value.to_int v))
  | Call ({ dst; callee; args; target } as c) ->
    let vargs = List.map (eval fr) args in
    let fn =
      match target with
      | Some fn -> fn
      | None ->
        let fn = func_of t callee in
        c.target <- Some fn;
        fn
    in
    let v = call t fn vargs in
    if dst >= 0 then begin
      if v == void then Value.err "void return used as a value in call to %s" callee;
      fr.(dst) <- v
    end
  | Promoted ->
    Value.err "interpreter: promoted IR is not interpretable (use the machine simulator)"

(* Run main; returns the program's exit value. *)
let run (t : t) : int64 =
  Fun.protect
    ~finally:(fun () -> if t.collect_profile then flush t)
    (fun () ->
      let v = call t (func_of t "main") [] in
      if v == void then 0L else Value.to_int v)

let output t = Buffer.contents t.output
let profile t = t.profile
let steps t = t.steps

(* Convenience: interpret a program and return (exit code, output, profile). *)
let run_program ?fuel ?collect_profile prog =
  let t = create ?fuel ?collect_profile prog in
  let code = run t in
  (code, output t, profile t)
