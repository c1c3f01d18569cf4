(* Promotion candidate expressions and their occurrences.

   An expression is a memory cell identified by its address form:
   - direct: (symbol, constant offset) — scalar variables, fixed array
     slots, fields of global structs;
   - indirect: (address temp, constant offset) — *p, p->f, a[i], with the
     restriction that the address temp has exactly one static definition
     (a true SSA value), so "same temp" implies "same address" on every
     path from its definition.  That restriction is the paper's own: its
     implementation "is limited to expressions that will not cause
     cascaded failure" (section 4).

   Occurrences are collected by a fresh scan of the function for each
   expression, all on the function as the round found it: the rewriter
   edits a function once per round, after every candidate is scanned,
   at the positions the events name.  What the edits leave valid is
   cached for one promotion round, the life of a [collect_ctx]:
   the alias manager memoizes every points-to answer, and the CFG and its
   dominator tree are built once per function (the rewriter edits
   instruction lists, never blocks or edges).  Within one expression its
   footprint is computed once and shared by every block's scan. *)

open Srp_ir
module Location = Srp_alias.Location
module Manager = Srp_alias.Manager
module Modref = Srp_alias.Modref
module Alias_profile = Srp_profile.Alias_profile

type key = {
  base : Ops.base;
  offset : int;
  mty : Mem_ty.t;
}

let key_of_addr (addr : Ops.addr) mty = { base = addr.Ops.base; offset = addr.Ops.offset; mty }

let addr_of_key k : Ops.addr = { Ops.base = k.base; offset = k.offset }

let is_direct k = match k.base with Ops.Sym _ -> true | Ops.Reg _ -> false

let equal_key a b =
  a.offset = b.offset && Mem_ty.equal a.mty b.mty
  && (match a.base, b.base with
     | Ops.Sym s1, Ops.Sym s2 -> Symbol.equal s1 s2
     | Ops.Reg t1, Ops.Reg t2 -> Temp.equal t1 t2
     | Ops.Sym _, Ops.Reg _ | Ops.Reg _, Ops.Sym _ -> false)

let pp_key ppf k = Fmt.pf ppf "%a.%a" Ops.pp_addr (addr_of_key k) Mem_ty.pp k.mty

(* Occurrence events for one expression, in program order within a block.
   [idx] is the instruction index within the block.

   A [Kill] with [spec = true] is a chi_s: the rename step ignores it and a
   check statement is planted after it (paper sections 3.3-3.4).  A kill
   with [spec = false] terminates availability.  [check_info] carries what
   the software-check lowering needs (the suspect store's address and
   value); [None] for kills that cannot be software-checked (calls). *)
type event =
  | Use of { idx : int; dst : Temp.t }
  | Def of { idx : int; src : Ops.operand } (* exact store: value available *)
  | Kill of {
      idx : int;
      spec : bool;
      (* profiled conflict probability of this kill against the
         expression's footprint (max over the intersecting locations):
         the chance one execution of the kill invalidates the promoted
         value.  0 for hard kills and under the binary-verdict policy;
         under probability gating, spec kills carry 0 < prob <=
         spec_threshold and the assessor debits their expected
         check-recovery cost from the candidate's benefit.  A cascade
         kill carries the probability its pointer's cell is overwritten
         ([cascade_conflict_prob]). *)
      prob : float;
      store : (Ops.addr * Ops.operand) option; (* for software checks *)
      (* cascade crossing (paper section 2.4): the kill is a check of our
         *address* temp; [cascade = Some cell] records the memory cell the
         address is (re)loaded from, so CodeMotion can emit a chk.a whose
         recovery reloads the pointer and then the data *)
      cascade : Ops.addr option;
    }

(* Locations an expression's cell may occupy. *)
let footprint ~(mgr : Manager.t) ~func (k : key) : Location.Set.t =
  match k.base with
  | Ops.Sym s -> Location.Set.singleton (Location.Sym s)
  | Ops.Reg r -> Manager.points_to mgr ~func ~mty:k.mty r

(* --- candidate discovery --- *)

(* Count static defs of every temp (promotion temps have several). *)
let temp_def_counts (f : Func.t) : int Temp.Tbl.t =
  let tbl = Temp.Tbl.create 64 in
  Func.iter_instrs
    (fun _ ins ->
      List.iter
        (fun d ->
          let c = match Temp.Tbl.find_opt tbl d with Some c -> c | None -> 0 in
          Temp.Tbl.replace tbl d (c + 1))
        (Instr.defs ins))
    f;
  tbl

(* All candidate expressions of [f]: every cell loaded at least once.
   [indirect] selects direct refs or indirect refs through address temps.
   Multi-definition address temps (promotion temps refreshed by checks or
   per-iteration saves) are allowed: every redefinition of the base is a
   hard-kill occurrence, so redundancy is only recognized between
   consecutive defs, where "same temp" does imply "same address"; what
   they lose is insertion (no loop hoisting through a moving pointer). *)
let candidates ~indirect (f : Func.t) : key list =
  let seen = ref [] in
  let consider k =
    if not (List.exists (equal_key k) !seen) then seen := k :: !seen
  in
  Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Instr.Load { addr; mty; promo = Instr.P_none; _ } -> (
        match addr.Ops.base with
        | Ops.Sym _ when not indirect -> consider (key_of_addr addr mty)
        | Ops.Reg _ when indirect -> consider (key_of_addr addr mty)
        | Ops.Sym _ | Ops.Reg _ -> ())
      | _ -> ())
    f;
  List.rev !seen

(* --- occurrence collection for one expression --- *)

(* Does a store to [store_addr] possibly write the cell of [k]?
   [`Exact] when provably the same cell, [`No] when provably distinct,
   [`Maybe store_fp] otherwise, with the store's own footprint. *)
let store_relation ~(mgr : Manager.t) ~func ~(fp : Location.Set.t) (k : key)
    (store_addr : Ops.addr) (store_mty : Mem_ty.t) :
    [ `Exact | `No | `Maybe of Location.Set.t ] =
  let same_base =
    match k.base, store_addr.Ops.base with
    | Ops.Sym s1, Ops.Sym s2 -> Symbol.equal s1 s2
    | Ops.Reg t1, Ops.Reg t2 -> Temp.equal t1 t2
    | Ops.Sym _, Ops.Reg _ | Ops.Reg _, Ops.Sym _ -> false
  in
  if same_base then
    if store_addr.Ops.offset = k.offset then `Exact
    else `No (* same base value, distinct constant offsets: distinct cells *)
  else begin
    let store_fp =
      match store_addr.Ops.base with
      | Ops.Sym s -> Location.Set.singleton (Location.Sym s)
      | Ops.Reg r -> Manager.points_to mgr ~func ~mty:store_mty r
    in
    if Location.Set.is_empty (Location.Set.inter fp store_fp) then `No
    else `Maybe store_fp
  end

type collect_ctx = {
  mgr : Manager.t;
  modref : Modref.t;
  policy : Spec_policy.t;
  style : Config.check_style;
  cascade : bool; (* allow promotion across address-temp checks (sec. 2.4) *)
  (* expected-value speculation gating: [Some thr] marks a kill
     speculative while its profiled conflict probability stays <= thr
     (the binary verdict is the thr-is-exactly-zero special case);
     [None] is the legacy binary-verdict path, bit-identical to the
     pre-probability pipeline. *)
  prob_gate : float option;
  cfg : Cfg.t;
  dom : Dominance.t; (* of [cfg], valid for the whole round *)
}

(* Is a may-aliasing *store* checkable (speculative) under the configured
   style, and with what conflict probability?  ALAT: speculative when the
   profiled chance of the store touching the expression's footprint (max
   over the intersecting locations) is zero — or, under probability
   gating, at most the threshold.  Software run-time disambiguation:
   every aliased store to a *direct* expression is checkable with an
   address compare (Nicolau's scheme needs no profile), but indirect
   expressions are beyond it (paper section 5: the software scheme and
   SLAT promote scalars only). *)
let store_kill_spec ctx ~direct ~site ~n_targets inter =
  match ctx.style with
  | Config.No_speculation -> (false, 0.0)
  | Config.Software -> (direct, 0.0)
  | Config.Alat ->
    let p =
      Location.Set.fold
        (fun loc acc ->
          Float.max acc
            (Spec_policy.store_conflict_prob ctx.policy ~site ~n_targets
               loc))
        inter 0.0
    in
    let spec =
      match ctx.prob_gate with None -> p = 0.0 | Some thr -> p <= thr
    in
    (spec, p)

let call_kill_spec ctx ~callee ~site inter =
  match ctx.style with
  | Config.No_speculation | Config.Software -> (false, 0.0)
  | Config.Alat ->
    let p =
      Location.Set.fold
        (fun loc acc ->
          Float.max acc
            (Spec_policy.call_conflict_prob ctx.policy ~callee ~site loc))
        inter 0.0
    in
    let spec =
      match ctx.prob_gate with None -> p = 0.0 | Some thr -> p <= thr
    in
    (spec, p)

(* Events of expression [k], whose footprint is [fp], in block [node], in
   order.  [price_cascade] (default true) prices each cascade kill with
   [cascade_conflict_prob]; that function scans the pointer's cell with it
   off, so a cycle of pointer checks cannot recurse. *)
let rec events_in_block ?(price_cascade = true) (ctx : collect_ctx)
    ~(fp : Location.Set.t) (k : key) (node : int) : event list =
  let func = Func.name (Cfg.func ctx.cfg) in
  let blk = Cfg.block ctx.cfg node in
  let acc = ref [] in
  List.iteri
    (fun idx ins ->
      match ins with
      | Instr.Load { dst; addr; mty; promo; _ } ->
        if equal_key k (key_of_addr addr mty) then
          (match promo with
          | Instr.P_none -> acc := Use { idx; dst } :: !acc
          | Instr.P_ld_a | Instr.P_ld_sa ->
            (* an arming load from an earlier promotion: eliminating it
               would disarm the ALAT entry its checks rely on — a barrier *)
            acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc)
        else begin
          (* the single definition of our address temp: a hard kill so no
             insertion can float above the address's birth *)
          match k.base with
          | Ops.Reg r when Temp.equal r dst ->
            acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc
          | _ -> ()
        end
      | Instr.Check { dst; addr; mty; kind; _ } ->
        (* A check from an earlier promotion redefines its temp.  If it
           matches our own cell, it is a use-def of the expression: hard
           kill.  If the temp is our address base, the default is also a
           hard kill (the paper's implementation "is limited to expressions
           that will not cause cascaded failure", section 4) — but in
           cascade mode (section 2.4) the crossing becomes a speculative
           kill that CodeMotion turns into chk.a + recovery. *)
        let is_base_redef =
          match k.base with Ops.Reg r -> Temp.equal r dst | Ops.Sym _ -> false
        in
        if equal_key k (key_of_addr addr mty) then
          acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc
        else if is_base_redef then begin
          ignore kind;
          if ctx.cascade && ctx.style = Config.Alat then begin
            let prob =
              if price_cascade then cascade_conflict_prob ctx addr mty else 0.0
            in
            acc :=
              Kill { idx; spec = true; prob; store = None; cascade = Some addr }
              :: !acc
          end
          else acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc
        end
      | Instr.Store { src; addr; mty; site } -> (
        match store_relation ~mgr:ctx.mgr ~func ~fp k addr mty with
        | `Exact -> acc := Def { idx; src } :: !acc
        | `No -> ()
        | `Maybe store_fp ->
          (* speculative iff the policy says this store touches none of the
             expression's possible cells *)
          let inter = Location.Set.inter fp store_fp in
          let n_targets = Location.Set.cardinal store_fp in
          let spec, prob =
            store_kill_spec ctx ~direct:(is_direct k) ~site ~n_targets inter
          in
          acc := Kill { idx; spec; prob; store = Some (addr, src); cascade = None } :: !acc)
      | Instr.Call { callee; site; _ } ->
        if not (Program.is_builtin callee) then begin
          let mod_set = Modref.mod_of ctx.modref callee in
          let inter = Location.Set.inter fp mod_set in
          if not (Location.Set.is_empty inter) then begin
            let spec, prob = call_kill_spec ctx ~callee ~site inter in
            acc := Kill { idx; spec; prob; store = None; cascade = None } :: !acc
          end
        end
      | Instr.Sw_check { dst; _ } | Instr.Alloc { dst; _ } ->
        (* redefinition of our address temp would be a kill; Alloc/Sw_check
           never define an address temp that an indirect candidate uses
           (candidates require the temp's single def to dominate its uses),
           but be conservative anyway *)
        (match k.base with
        | Ops.Reg r when Temp.equal r dst ->
          acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc
        | _ -> ())
      | Instr.Bin { dst; _ } | Instr.Un { dst; _ } | Instr.Mov { dst; _ } -> (
        match k.base with
        | Ops.Reg r when Temp.equal r dst ->
          acc := Kill { idx; spec = false; prob = 0.0; store = None; cascade = None } :: !acc
        | _ -> ())
      | Instr.Invala _ -> ())
    blk.Block.instrs;
  List.rev !acc

(* The conflict probability of a cascade kill: a chk.a on the pointer
   fails when the pointer's own cell [addr] was overwritten, so the kill
   is priced at the largest profiled probability among the speculative
   kills of that cell in the function. *)
and cascade_conflict_prob (ctx : collect_ctx) (addr : Ops.addr) (mty : Mem_ty.t)
    : float =
  let cell = key_of_addr addr mty in
  let fp = footprint ~mgr:ctx.mgr ~func:(Func.name (Cfg.func ctx.cfg)) cell in
  let p = ref 0.0 in
  for node = 0 to Cfg.num_nodes ctx.cfg - 1 do
    List.iter
      (function
        | Kill { spec = true; prob; _ } -> p := Float.max !p prob
        | Use _ | Def _ | Kill _ -> ())
      (events_in_block ~price_cascade:false ctx ~fp cell node)
  done;
  !p
