(* Interprocedural mod summaries: for every function, the set of
   locations it (transitively) may store to.  Used to place a chi at each
   call site.  Only locations visible across a call boundary matter:
   globals, heap objects, and address-taken locals (a callee's private
   local cannot be named by the caller). *)

open Srp_ir

type t = (string, Location.Set.t) Hashtbl.t

let visible loc =
  match loc with
  | Location.Heap _ -> true
  | Location.Sym s -> Symbol.is_global s || Symbol.addr_taken s

let mod_of (t : t) name =
  match Hashtbl.find_opt t name with Some s -> s | None -> Location.Set.empty

(* One local pass over [f]: direct stores plus current callee summaries. *)
let local_summary (mgr : Manager.t) (t : t) (f : Func.t) : Location.Set.t =
  let fname = Func.name f in
  let mod_set = ref Location.Set.empty in
  Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Instr.Store { addr; mty; _ } -> (
        match addr.Ops.base with
        | Ops.Sym s -> mod_set := Location.Set.add (Location.Sym s) !mod_set
        | Ops.Reg r ->
          mod_set :=
            Location.Set.union (Manager.points_to mgr ~func:fname ~mty r) !mod_set)
      | Instr.Call { callee; _ } ->
        if not (Program.is_builtin callee) then
          mod_set := Location.Set.union (mod_of t callee) !mod_set
      | Instr.Load _ | Instr.Check _ | Instr.Sw_check _ | Instr.Bin _
      | Instr.Un _ | Instr.Mov _ | Instr.Alloc _ | Instr.Invala _ ->
        ())
    f;
  Location.Set.filter visible !mod_set

(* Fixpoint over the call graph (handles recursion). *)
let compute (mgr : Manager.t) (prog : Program.t) : t =
  let t : t = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let fname = Func.name f in
        let s = local_summary mgr t f in
        if not (Location.Set.equal (mod_of t fname) s) then begin
          Hashtbl.replace t fname s;
          changed := true
        end)
      (Program.funcs prog)
  done;
  t
