(* Andersen-style subset-based (inclusion) points-to analysis: the
   flow-insensitive but directional analysis behind every alias query of
   the promoter.

   Standard worklist formulation: points-to sets over memory nodes, copy
   edges, and complex load/store constraints discovered as sets grow. *)

open Srp_ir
module ISet = Set.Make (Int)

type t = {
  env : Node_env.t;
  pts : (int, ISet.t) Hashtbl.t; (* node -> memory nodes it may point to *)
  loc_of_node : (int, Location.t) Hashtbl.t;
}

type builder = {
  benv : Node_env.t;
  bpts : (int, ISet.t) Hashtbl.t;
  copy : (int, ISet.t) Hashtbl.t; (* a -> {b}: pts(a) <= pts(b) *)
  loads : (int, ISet.t) Hashtbl.t; (* r -> {d}: d = *r *)
  stores : (int, ISet.t) Hashtbl.t; (* r -> {s}: *r = s *)
  work : int Queue.t;
  mutable dirty : ISet.t;
}

let get tbl k = try Hashtbl.find tbl k with Not_found -> ISet.empty

let add_to tbl k v =
  let cur = get tbl k in
  if not (ISet.mem v cur) then begin
    Hashtbl.replace tbl k (ISet.add v cur);
    true
  end
  else false

let mark b n =
  if not (ISet.mem n b.dirty) then begin
    b.dirty <- ISet.add n b.dirty;
    Queue.add n b.work
  end

let add_pts b n target = if add_to b.bpts n target then mark b n

let add_copy b src dst =
  if add_to b.copy src dst then
    (* propagate what src already has *)
    ISet.iter (fun x -> add_pts b dst x) (get b.bpts src)

let run (prog : Program.t) : t =
  let env = Node_env.create () in
  List.iter (fun s -> ignore (Node_env.node_of_sym env s)) (Program.all_symbols prog);
  let b =
    { benv = env; bpts = Hashtbl.create 64; copy = Hashtbl.create 64;
      loads = Hashtbl.create 16; stores = Hashtbl.create 16;
      work = Queue.create (); dirty = ISet.empty }
  in
  let operand_node fname (o : Ops.operand) : [ `Node of int | `Addr_of of int | `None ] =
    match o with
    | Ops.Temp tmp -> `Node (Node_env.node_of_temp env ~func:fname tmp)
    | Ops.Sym_addr s -> `Addr_of (Node_env.node_of_sym env s)
    | Ops.Int _ | Ops.Flt _ -> `None
  in
  (* dst = src (value copy) *)
  let assign_to dst_node src fname =
    match operand_node fname src with
    | `Node v -> add_copy b v dst_node
    | `Addr_of m -> add_pts b dst_node m
    | `None -> ()
  in
  let process_func (f : Func.t) =
    let fname = Func.name f in
    Func.iter_instrs
      (fun _ ins ->
        match ins with
        | Instr.Load { dst; addr; _ }
        | Instr.Check { dst; addr; _ }
        | Instr.Sw_check { dst; addr; _ } -> (
          let d = Node_env.node_of_temp env ~func:fname dst in
          match addr.Ops.base with
          | Ops.Sym s -> add_copy b (Node_env.node_of_sym env s) d
          | Ops.Reg r ->
            let rn = Node_env.node_of_temp env ~func:fname r in
            if add_to b.loads rn d then
              ISet.iter (fun o -> add_copy b o d) (get b.bpts rn))
        | Instr.Store { src; addr; _ } -> (
          match addr.Ops.base with
          | Ops.Sym s -> assign_to (Node_env.node_of_sym env s) src fname
          | Ops.Reg r -> (
            let rn = Node_env.node_of_temp env ~func:fname r in
            match operand_node fname src with
            | `Node v ->
              if add_to b.stores rn v then
                ISet.iter (fun o -> add_copy b v o) (get b.bpts rn)
            | `Addr_of m ->
              (* *r = &x: route through a synthetic node holding {x} *)
              let anon = Node_env.fresh_anon env in
              add_pts b anon m;
              if add_to b.stores rn anon then
                ISet.iter (fun o -> add_copy b anon o) (get b.bpts rn)
            | `None -> ()))
        | Instr.Bin { dst; a; b = b2; _ } ->
          let d = Node_env.node_of_temp env ~func:fname dst in
          assign_to d a fname;
          assign_to d b2 fname
        | Instr.Un { dst; a; _ } | Instr.Mov { dst; src = a } ->
          let d = Node_env.node_of_temp env ~func:fname dst in
          assign_to d a fname
        | Instr.Alloc { dst; site; _ } ->
          let d = Node_env.node_of_temp env ~func:fname dst in
          add_pts b d (Node_env.node_of_heap env site)
        | Instr.Call { dst; callee; args; _ } ->
          if not (Program.is_builtin callee) then begin
            match Program.find_func_opt prog callee with
            | Some g ->
              List.iteri
                (fun i formal ->
                  match List.nth_opt args i with
                  | Some arg -> assign_to (Node_env.node_of_sym env formal) arg fname
                  | None -> ())
                (Func.formals g);
              (match dst with
              | Some d ->
                add_copy b (Node_env.node_of_ret env callee)
                  (Node_env.node_of_temp env ~func:fname d)
              | None -> ())
            | None -> ()
          end
        | Instr.Invala _ -> ())
      f;
    List.iter
      (fun blk ->
        match blk.Block.term with
        | Instr.Ret (Some o) -> assign_to (Node_env.node_of_ret env fname) o fname
        | Instr.Ret None | Instr.Jump _ | Instr.Br _ -> ())
      (Func.blocks f)
  in
  List.iter process_func (Program.funcs prog);
  (* worklist propagation *)
  while not (Queue.is_empty b.work) do
    let n = Queue.pop b.work in
    b.dirty <- ISet.remove n b.dirty;
    let pn = get b.bpts n in
    (* copy successors *)
    ISet.iter (fun d -> ISet.iter (fun x -> add_pts b d x) pn) (get b.copy n);
    (* complex constraints anchored on n *)
    ISet.iter (fun d -> ISet.iter (fun o -> add_copy b o d) pn) (get b.loads n);
    ISet.iter (fun s -> ISet.iter (fun o -> add_copy b s o) pn) (get b.stores n)
  done;
  let loc_of_node = Hashtbl.create 64 in
  List.iter (fun (id, loc) -> Hashtbl.replace loc_of_node id loc) (Node_env.memory_nodes env);
  { env; pts = b.bpts; loc_of_node }

let points_to_of_node (t : t) node : Location.Set.t =
  ISet.fold
    (fun id acc ->
      match Hashtbl.find_opt t.loc_of_node id with
      | Some loc -> Location.Set.add loc acc
      | None -> acc)
    (get t.pts node) Location.Set.empty

let points_to_of_temp (t : t) ~func tmp =
  points_to_of_node t (Node_env.node_of_temp t.env ~func tmp)
