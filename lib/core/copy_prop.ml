(* Copy propagation between promotion rounds.

   Round 1 rewrites each redundant scalar load as [Mov d = t]; loads that
   used [d] as an address base then read [load \[d\]].  Without propagation,
   two loads of *p end up with two different (single-use) address temps and
   round 2 cannot see they are the same expression.  Propagating copies
   whose source is itself a single-definition temp (or a constant) restores
   the unification: both loads become [load \[t\]] — this is the IR-level
   counterpart of the paper's bottom-up syntax-tree processing (p before
   *p, section 3.2).

   Sources with multiple definitions (promotion temps refreshed by checks)
   are never propagated: a check may change the temp's value, so "same
   temp" would no longer mean "same address".  This conservatism is exactly
   the paper's cascade restriction (section 4). *)

open Srp_ir

(* [a] with its base temp resolved: to another temp, or to a symbol when
   the pointer is a known symbol address (the access becomes direct). *)
let subst_addr resolve (a : Ops.addr) : Ops.addr =
  match a.Ops.base with
  | Ops.Sym _ -> a
  | Ops.Reg r -> (
    match resolve (Ops.Temp r) with
    | Ops.Temp r' -> { a with Ops.base = Ops.Reg r' }
    | Ops.Sym_addr s -> { Ops.base = Ops.Sym s; offset = a.Ops.offset }
    | Ops.Int _ | Ops.Flt _ -> a)

let run (f : Func.t) : unit =
  (* count static definitions per temp *)
  let def_counts = Expr.temp_def_counts f in
  let single_def t =
    match Temp.Tbl.find_opt def_counts t with Some 1 -> true | _ -> false
  in
  (* direct copy map: dst -> src, both sides single-def (or src constant) *)
  let copies = Temp.Tbl.create 32 in
  Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Instr.Mov { dst; src } when single_def dst -> (
        match src with
        | Ops.Temp s when single_def s -> Temp.Tbl.replace copies dst src
        | Ops.Int _ | Ops.Flt _ | Ops.Sym_addr _ -> Temp.Tbl.replace copies dst src
        | Ops.Temp _ -> ())
      | _ -> ())
    f;
  (* resolve chains (dst -> src -> src' ...) with a depth guard *)
  let rec resolve ?(depth = 0) (o : Ops.operand) : Ops.operand =
    if depth > 32 then o
    else
      match o with
      | Ops.Temp t -> (
        match Temp.Tbl.find_opt copies t with
        | Some src -> resolve ~depth:(depth + 1) src
        | None -> o)
      | Ops.Int _ | Ops.Flt _ | Ops.Sym_addr _ -> o
  in
  List.iter
    (fun blk ->
      blk.Block.instrs <-
        List.map
          (Instr.map_operands ~operand:resolve ~addr:(subst_addr resolve))
          blk.Block.instrs;
      blk.Block.term <- Instr.map_term_operands resolve blk.Block.term)
    (Func.blocks f)

(* Block-local copy propagation with *multi-definition* sources (promotion
   temps).  [Mov d = t] makes d an alias of t until either is redefined
   within the block; uses of d in that window read t instead.  This is what
   lets two loads of *w inside one loop iteration share w's promotion temp
   as their address base even though the temp is redefined every iteration
   — pointer-walking loops depend on it. *)
let run_local (f : Func.t) : unit =
  let subst_in_block (blk : Block.t) =
    let alias : Ops.operand Temp.Tbl.t = Temp.Tbl.create 8 in
    let kill_temp d =
      Temp.Tbl.remove alias d;
      (* any alias whose source is d dies too *)
      let stale =
        Temp.Tbl.fold
          (fun k v acc ->
            match v with
            | Ops.Temp s when Temp.equal s d -> k :: acc
            | _ -> acc)
          alias []
      in
      List.iter (Temp.Tbl.remove alias) stale
    in
    let res (o : Ops.operand) =
      match o with
      | Ops.Temp t -> ( match Temp.Tbl.find_opt alias t with Some v -> v | None -> o)
      | _ -> o
    in
    let rewrite (ins : Instr.instr) : Instr.instr =
      let ins' = Instr.map_operands ~operand:res ~addr:(subst_addr res) ins in
      List.iter kill_temp (Instr.defs ins');
      (match ins' with
      | Instr.Mov { dst; src = (Ops.Temp _ | Ops.Sym_addr _) as src } ->
        Temp.Tbl.replace alias dst src
      | _ -> ());
      ins'
    in
    blk.Block.instrs <- List.map rewrite blk.Block.instrs;
    blk.Block.term <- Instr.map_term_operands res blk.Block.term
  in
  List.iter subst_in_block (Func.blocks f)
