(* Mid-level IR instructions.

   [Load]/[Store]/[Call]/[Alloc] carry stable [Site.t] ids.  The promotion
   pass (lib/core) rewrites loads into temp uses and introduces [Check] and
   [Invala] pseudo-instructions plus promotion flags; the code generator
   (lib/target) turns those into ld.a / ld.c / ld.sa / chk.a / invala.e. *)

(* Flag attached to a load that arms the ALAT (paper section 2.2/2.3). *)
type promo =
  | P_none (* plain ld *)
  | P_ld_a (* advanced load: arms an ALAT entry *)
  | P_ld_sa (* speculative advanced load: hoisted out of a loop, control+data speculative *)

(* Kind of check statement (paper sections 2.2-2.4).  [clear] is the
   clear/no-clear completer: no-clear keeps the ALAT entry live so a later
   check of the same temp can succeed (Figure 1(c), Figure 3). *)
type check_kind =
  | C_ld_c of { clear : bool }
  | C_chk_a of { clear : bool }

type instr =
  | Load of {
      dst : Temp.t;
      addr : Ops.addr;
      mty : Mem_ty.t;
      site : Site.t;
      promo : promo;
    }
  | Store of { src : Ops.operand; addr : Ops.addr; mty : Mem_ty.t; site : Site.t }
  | Bin of { dst : Temp.t; op : Ops.binop; a : Ops.operand; b : Ops.operand }
  | Un of { dst : Temp.t; op : Ops.unop; a : Ops.operand }
  | Mov of { dst : Temp.t; src : Ops.operand }
  | Call of {
      dst : Temp.t option;
      callee : string;
      args : Ops.operand list;
      site : Site.t;
    }
  | Alloc of { dst : Temp.t; nbytes : Ops.operand; site : Site.t }
  (* Check statement: revalidate promotion temp [dst] against memory.  On an
     ALAT hit it is free; on a miss it reloads (ld.c) or runs [recovery]
     then reloads (chk.a, cascade case of section 2.4). *)
  | Check of {
      dst : Temp.t;
      addr : Ops.addr;
      mty : Mem_ty.t;
      site : Site.t;
      kind : check_kind;
      recovery : instr list; (* re-executed on chk.a failure, before reload *)
    }
  (* Invalidate the ALAT entry tracking [dst] (paper Figure 2): forces the
     next check of [dst] to reload, making path-insertion unnecessary. *)
  | Invala of { dst : Temp.t }
  (* Software run-time disambiguation [Nicolau 89], used by the O3 baseline
     (paper section 5): after a may-aliased store through [store_addr], if
     it equals the promoted location's address, refresh the temp from the
     freshly stored value. *)
  | Sw_check of {
      dst : Temp.t;
      addr : Ops.addr; (* promoted location *)
      store_addr : Ops.addr; (* address the suspect store wrote through *)
      stored : Ops.operand; (* value it stored *)
      mty : Mem_ty.t;
      site : Site.t;
    }

(* Conditional branches carry a [Site.t] like memory operations do: the
   machine attributes branch mispredicts per site, so the branch must keep a
   stable identity from lowering through layout to the simulator. *)
type terminator =
  | Jump of Label.t
  | Br of { cond : Ops.operand; ifso : Label.t; ifnot : Label.t; site : Site.t }
  | Ret of Ops.operand option

let defs = function
  | Load { dst; _ } | Bin { dst; _ } | Un { dst; _ } | Mov { dst; _ }
  | Alloc { dst; _ } | Check { dst; _ } | Sw_check { dst; _ } ->
    [ dst ]
  | Call { dst; _ } -> ( match dst with Some d -> [ d ] | None -> [] )
  | Store _ | Invala _ -> []

let operand_temps (o : Ops.operand) =
  match o with Ops.Temp t -> [ t ] | Ops.Int _ | Ops.Flt _ | Ops.Sym_addr _ -> []

let addr_temps (a : Ops.addr) =
  match a.base with Ops.Reg t -> [ t ] | Ops.Sym _ -> []

let uses = function
  | Load { addr; _ } -> addr_temps addr
  | Store { src; addr; _ } -> operand_temps src @ addr_temps addr
  | Bin { a; b; _ } -> operand_temps a @ operand_temps b
  | Un { a; _ } | Mov { src = a; _ } -> operand_temps a
  | Call { args; _ } -> List.concat_map operand_temps args
  | Alloc { nbytes; _ } -> operand_temps nbytes
  (* A software check is read-modify-write: its "no collision" outcome
     keeps the current register value, so dst is semantically read —
     liveness must see that or a cleanup pass deletes the materialization
     feeding the check.  An ALAT ld.c is different: a hit *guarantees* the
     register holds the current memory value (the entry was armed by a
     ld.a to this register and no store has touched the address since),
     and a miss reloads — so its dst is not an input, and liveness-driven
     removal of back-to-back checks is sound (the redundant-check removal
     of paper section 3.4). *)
  | Check { dst; addr; _ } -> dst :: addr_temps addr
  | Invala _ -> []
  | Sw_check { dst; addr; store_addr; stored; _ } ->
    (dst :: addr_temps addr) @ addr_temps store_addr @ operand_temps stored

let term_uses = function
  | Jump _ -> []
  | Br { cond; _ } -> operand_temps cond
  | Ret (Some o) -> operand_temps o
  | Ret None -> []

(* [ins] with every operand it reads passed through [operand] and every
   address through [addr]; what it defines, and a check's recovery,
   unchanged. *)
let map_operands ~operand ~addr = function
  | Load r -> Load { r with addr = addr r.addr }
  | Store r -> Store { r with src = operand r.src; addr = addr r.addr }
  | Bin r -> Bin { r with a = operand r.a; b = operand r.b }
  | Un r -> Un { r with a = operand r.a }
  | Mov r -> Mov { r with src = operand r.src }
  | Call r -> Call { r with args = List.map operand r.args }
  | Alloc r -> Alloc { r with nbytes = operand r.nbytes }
  | Check r -> Check { r with addr = addr r.addr }
  | Invala _ as ins -> ins
  | Sw_check r ->
    Sw_check
      { r with addr = addr r.addr; store_addr = addr r.store_addr;
        stored = operand r.stored }

let map_term_operands operand = function
  | Jump _ as t -> t
  | Br r -> Br { r with cond = operand r.cond }
  | Ret o -> Ret (Option.map operand o)

let successors = function
  | Jump l -> [ l ]
  | Br { ifso; ifnot; _ } -> [ ifso; ifnot ]
  | Ret _ -> []

let site = function
  | Load { site; _ } | Store { site; _ } | Call { site; _ }
  | Alloc { site; _ } | Check { site; _ } | Sw_check { site; _ } ->
    Some site
  | Bin _ | Un _ | Mov _ | Invala _ -> None

let pp_promo ppf = function
  | P_none -> ()
  | P_ld_a -> Fmt.string ppf " !ld.a"
  | P_ld_sa -> Fmt.string ppf " !ld.sa"

let pp_check_kind ppf = function
  | C_ld_c { clear } -> Fmt.pf ppf "ld.c.%s" (if clear then "clr" else "nc")
  | C_chk_a { clear } -> Fmt.pf ppf "chk.a.%s" (if clear then "clr" else "nc")

let rec pp ppf = function
  | Load { dst; addr; mty; site; promo } ->
    Fmt.pf ppf "%a = load.%a %a  @%a%a" Temp.pp dst Mem_ty.pp mty Ops.pp_addr
      addr Site.pp site pp_promo promo
  | Store { src; addr; mty; site } ->
    Fmt.pf ppf "store.%a %a, %a  @%a" Mem_ty.pp mty Ops.pp_operand src
      Ops.pp_addr addr Site.pp site
  | Bin { dst; op; a; b } ->
    Fmt.pf ppf "%a = %a %a, %a" Temp.pp dst Ops.pp_binop op Ops.pp_operand a
      Ops.pp_operand b
  | Un { dst; op; a } ->
    Fmt.pf ppf "%a = %a %a" Temp.pp dst Ops.pp_unop op Ops.pp_operand a
  | Mov { dst; src } -> Fmt.pf ppf "%a = %a" Temp.pp dst Ops.pp_operand src
  | Call { dst; callee; args; site } ->
    let pp_dst ppf = function
      | Some d -> Fmt.pf ppf "%a = " Temp.pp d
      | None -> ()
    in
    Fmt.pf ppf "%acall %s(%a)  @%a" pp_dst dst callee
      (Srp_support.Pp_util.pp_list Ops.pp_operand)
      args Site.pp site
  | Alloc { dst; nbytes; site } ->
    Fmt.pf ppf "%a = alloc %a  @%a" Temp.pp dst Ops.pp_operand nbytes Site.pp
      site
  | Check { dst; addr; mty; site; kind; recovery } ->
    Fmt.pf ppf "%a = check[%a].%a %a  @%a" Temp.pp dst pp_check_kind kind
      Mem_ty.pp mty Ops.pp_addr addr Site.pp site;
    if recovery <> [] then
      Fmt.pf ppf " recovery{%a}" (Srp_support.Pp_util.pp_list ~sep:"; " pp)
        recovery
  | Invala { dst } -> Fmt.pf ppf "invala.e %a" Temp.pp dst
  | Sw_check { dst; addr; store_addr; stored; _ } ->
    Fmt.pf ppf "%a = sw_check %a vs %a (stored %a)" Temp.pp dst Ops.pp_addr
      addr Ops.pp_addr store_addr Ops.pp_operand stored

let pp_terminator ppf = function
  | Jump l -> Fmt.pf ppf "jump %a" Label.pp l
  | Br { cond; ifso; ifnot; site } ->
    Fmt.pf ppf "br %a, %a, %a  @%a" Ops.pp_operand cond Label.pp ifso Label.pp
      ifnot Site.pp site
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some o) -> Fmt.pf ppf "ret %a" Ops.pp_operand o
