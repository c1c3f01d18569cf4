(* Steensgaard's near-linear, unification-based points-to analysis — the
   "equivalence class based alias analysis" the paper names as part of the
   ORC -O3 baseline (section 4).

   Every node has at most one points-to successor [alpha]; assignments
   unify.  Conditional unification is skipped (plain Steensgaard):
   precision is recovered later by the flow/type filters and, in the
   speculative compiler, by the dynamic alias profile. *)

open Srp_ir

type t = {
  env : Node_env.t;
  uf : Srp_support.Union_find.t;
  alpha : (int, int) Hashtbl.t; (* representative -> points-to node *)
  class_locs : (int, Location.Set.t) Hashtbl.t;
      (* representative -> the memory locations of its class; filled once
         the constraints are solved, since queries never unify *)
}

let reg t n =
  Srp_support.Union_find.ensure t.uf (n + 1);
  n

(* --- core unification machinery --- *)

let rec unify t a b =
  let ra = Srp_support.Union_find.find t.uf (reg t a) in
  let rb = Srp_support.Union_find.find t.uf (reg t b) in
  if ra <> rb then begin
    let ta = Hashtbl.find_opt t.alpha ra in
    let tb = Hashtbl.find_opt t.alpha rb in
    Hashtbl.remove t.alpha ra;
    Hashtbl.remove t.alpha rb;
    let r = Srp_support.Union_find.union t.uf ra rb in
    (match ta, tb with
    | None, None -> ()
    | Some x, None | None, Some x -> Hashtbl.replace t.alpha r x
    | Some x, Some y ->
      Hashtbl.replace t.alpha r x;
      unify t x y)
  end

(* The node the content of [n] points to, creating a fresh one if needed. *)
let points_to_node t n =
  let r = Srp_support.Union_find.find t.uf (reg t n) in
  match Hashtbl.find_opt t.alpha r with
  | Some x -> reg t x
  | None ->
    let x = reg t (Node_env.fresh_anon t.env) in
    Hashtbl.replace t.alpha r x;
    x

(* --- constraint generation --- *)

let run (prog : Program.t) : t =
  let env = Node_env.create () in
  (* Pre-register all symbols so the node table covers them even if a
     symbol is never referenced. *)
  List.iter (fun s -> ignore (Node_env.node_of_sym env s)) (Program.all_symbols prog);
  let t =
    { env; uf = Srp_support.Union_find.create 64; alpha = Hashtbl.create 64;
      class_locs = Hashtbl.create 0 }
  in
  let pt n = points_to_node t n in
  (* value node of an operand within function [fname] *)
  let operand_node fname (o : Ops.operand) : int option =
    match o with
    | Ops.Temp tmp -> Some (Node_env.node_of_temp env ~func:fname tmp)
    | Ops.Sym_addr s ->
      (* a fresh value node whose points-to target is the symbol *)
      let v = Node_env.fresh_anon env in
      unify t (pt v) (Node_env.node_of_sym env s);
      Some v
    | Ops.Int _ | Ops.Flt _ -> None
  in
  let addr_node fname (a : Ops.addr) : [ `Direct of int | `Indirect of int ] =
    match a.Ops.base with
    | Ops.Sym s -> `Direct (Node_env.node_of_sym env s)
    | Ops.Reg r -> `Indirect (Node_env.node_of_temp env ~func:fname r)
  in
  (* dst_node = src (value assignment) *)
  let do_assign dst_node (src : Ops.operand) fname =
    match operand_node fname src with
    | None -> ()
    | Some v -> unify t (pt dst_node) (pt v)
  in
  let load_into fname dst addr =
    let d = Node_env.node_of_temp env ~func:fname dst in
    match addr_node fname addr with
    | `Direct s -> unify t (pt d) (pt s)
    | `Indirect r ->
      (* dst = *r: pts(dst) = pts(pts(r)) *)
      unify t (pt d) (pt (pt r))
  in
  let process_func (f : Func.t) =
    let fname = Func.name f in
    Func.iter_instrs
      (fun _ ins ->
        match ins with
        | Instr.Load { dst; addr; _ }
        | Instr.Check { dst; addr; _ }
        | Instr.Sw_check { dst; addr; _ } ->
          load_into fname dst addr
        | Instr.Store { src; addr; _ } -> (
          match addr_node fname addr with
          | `Direct s -> do_assign s src fname
          | `Indirect r -> do_assign (pt r) src fname)
        | Instr.Bin { dst; a; b; _ } ->
          (* pointer arithmetic: the result may point wherever either
             operand points *)
          let d = Node_env.node_of_temp env ~func:fname dst in
          List.iter
            (fun o ->
              match operand_node fname o with
              | Some v -> unify t (pt d) (pt v)
              | None -> ())
            [ a; b ]
        | Instr.Un { dst; a; _ } | Instr.Mov { dst; src = a } ->
          let d = Node_env.node_of_temp env ~func:fname dst in
          (match operand_node fname a with
          | Some v -> unify t (pt d) (pt v)
          | None -> ())
        | Instr.Alloc { dst; site; _ } ->
          let d = Node_env.node_of_temp env ~func:fname dst in
          unify t (pt d) (Node_env.node_of_heap env site)
        | Instr.Call { dst; callee; args; _ } ->
          if not (Program.is_builtin callee) then begin
            match Program.find_func_opt prog callee with
            | Some g ->
              let formals = Func.formals g in
              List.iteri
                (fun i formal ->
                  match List.nth_opt args i with
                  | Some arg -> do_assign (Node_env.node_of_sym env formal) arg fname
                  | None -> ())
                formals;
              (match dst with
              | Some d ->
                let dn = Node_env.node_of_temp env ~func:fname d in
                unify t (pt dn) (pt (Node_env.node_of_ret env callee))
              | None -> ())
            | None -> ()
          end
        | Instr.Invala _ -> ())
      f;
    (* return statements feed the function's ret node *)
    List.iter
      (fun blk ->
        match blk.Block.term with
        | Instr.Ret (Some o) -> do_assign (Node_env.node_of_ret env fname) o fname
        | Instr.Ret None | Instr.Jump _ | Instr.Br _ -> ())
      (Func.blocks f)
  in
  List.iter process_func (Program.funcs prog);
  let class_locs = Hashtbl.create 64 in
  List.iter
    (fun (id, loc) ->
      let r = Srp_support.Union_find.find t.uf (reg t id) in
      let cur =
        Option.value ~default:Location.Set.empty (Hashtbl.find_opt class_locs r)
      in
      Hashtbl.replace class_locs r (Location.Set.add loc cur))
    (Node_env.memory_nodes env);
  { t with class_locs }

(* --- queries --- *)

(* Locations the value held in [node] may point to: all memory nodes in the
   class of alpha(node). *)
let points_to_of_node (t : t) node : Location.Set.t =
  let n = reg t node in
  let r = Srp_support.Union_find.find t.uf n in
  match Hashtbl.find_opt t.alpha r with
  | None -> Location.Set.empty
  | Some target ->
    let rt = Srp_support.Union_find.find t.uf (reg t target) in
    Option.value ~default:Location.Set.empty (Hashtbl.find_opt t.class_locs rt)

let points_to_of_temp (t : t) ~func tmp =
  points_to_of_node t (Node_env.node_of_temp t.env ~func tmp)

(* Class id of the pointer value in a temp — used as a virtual-variable
   fallback key for address temps with no recognizable origin. *)
let class_of_temp (t : t) ~func tmp =
  let n = reg t (Node_env.node_of_temp t.env ~func tmp) in
  let r = Srp_support.Union_find.find t.uf n in
  match Hashtbl.find_opt t.alpha r with
  | Some target -> Srp_support.Union_find.find t.uf (reg t target)
  | None -> r
