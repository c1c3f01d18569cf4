(* A function: an ordered list of basic blocks, the entry block first.

   [ssa_temps] distinguishes the two temp regimes: lowering produces
   single-static-definition temps (SSA values), whereas register promotion
   deliberately introduces multiple definitions of promotion temps (saves,
   checks).  The verifier adapts its checks to the regime. *)

type t = {
  name : string;
  formals : Symbol.t list;
  locals : Symbol.t list Stdlib.ref;
  ret_mty : Mem_ty.t option;
  entry : Label.t;
  mutable blocks : Block.t list; (* entry first; rest in layout order *)
  temp_gen : Temp.Gen.t;
  label_gen : Label.Gen.t;
  mutable ssa_temps : bool;
}

let create ~name ~formals ~ret_mty ~temp_gen ~label_gen =
  let entry = Label.Gen.fresh ~hint:"entry" label_gen in
  let b = Block.create entry in
  { name; formals; locals = Stdlib.ref []; ret_mty; entry; blocks = [ b ];
    temp_gen; label_gen; ssa_temps = true }

let name t = t.name
let entry t = t.entry
let blocks t = t.blocks
let formals t = t.formals
let locals t = !(t.locals)
let add_local t s = t.locals := s :: !(t.locals)

let find_block t l =
  match List.find_opt (fun b -> Label.equal (Block.label b) l) t.blocks with
  | Some b -> b
  | None -> Fmt.invalid_arg "Func.find_block: %s has no block %s" t.name (Label.to_string l)

let add_block t b = t.blocks <- t.blocks @ [ b ]

let fresh_block ?(hint = "bb") t =
  let b = Block.create (Label.Gen.fresh ~hint t.label_gen) in
  add_block t b;
  b

let fresh_temp t mty = Temp.Gen.fresh t.temp_gen mty

(* Predecessor map over labels. *)
let predecessors t =
  let preds = Label.Tbl.create 16 in
  List.iter (fun b -> Label.Tbl.replace preds (Block.label b) []) t.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          let cur = try Label.Tbl.find preds succ with Not_found -> [] in
          Label.Tbl.replace preds succ (Block.label b :: cur))
        (Block.successors b))
    t.blocks;
  preds

let iter_instrs f t =
  List.iter (fun b -> List.iter (f (Block.label b)) b.Block.instrs) t.blocks

let pp ppf t =
  let pp_formal ppf s = Fmt.pf ppf "%a" Symbol.pp s in
  Fmt.pf ppf "@[<v>func %s(%a):@,%a@]" t.name
    (Srp_support.Pp_util.pp_list pp_formal)
    t.formals
    (fun ppf bs -> List.iter (fun b -> Fmt.pf ppf "%a@," Block.pp b) bs)
    t.blocks
