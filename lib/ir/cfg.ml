(* Array-indexed view of a function's control-flow graph.

   Analyses (dominance, SSA construction, SSAPRE) want dense integer node
   ids; this module freezes a [Func.t] into arrays in reverse-postorder so
   index 0 is always the entry and forward edges mostly go up in index.
   Unreachable blocks are excluded (they carry no occurrences worth
   promoting and would break dominator computation). *)

type t = {
  func : Func.t;
  blocks : Block.t array; (* indexed by node id, RPO order *)
  index_of : int Label.Tbl.t; (* label id -> node id *)
  succs : int list array;
  preds : int list array;
}

let build func =
  let order = Srp_support.Vec.create ~dummy:(List.hd (Func.blocks func)) in
  let visited = Label.Tbl.create 16 in
  (* Postorder DFS from the entry block. *)
  let rec dfs label =
    if not (Label.Tbl.mem visited label) then begin
      Label.Tbl.replace visited label ();
      let b = Func.find_block func label in
      List.iter dfs (Block.successors b);
      Srp_support.Vec.push order b
    end
  in
  dfs (Func.entry func);
  let n = Srp_support.Vec.length order in
  let blocks =
    Array.init n (fun i -> Srp_support.Vec.get order (n - 1 - i))
  in
  let index_of = Label.Tbl.create 16 in
  Array.iteri (fun i b -> Label.Tbl.replace index_of (Block.label b) i) blocks;
  let succs =
    Array.map
      (fun b ->
        List.filter_map
          (fun l -> Label.Tbl.find_opt index_of l)
          (Block.successors b))
      blocks
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  { func; blocks; index_of; succs; preds }

let num_nodes t = Array.length t.blocks
let block t i = t.blocks.(i)
let label t i = Block.label t.blocks.(i)
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let func t = t.func

let index_of_label t l =
  match Label.Tbl.find_opt t.index_of l with
  | Some i -> i
  | None -> Fmt.invalid_arg "Cfg.index_of_label: unreachable %s" (Label.to_string l)

let entry_index (_ : t) = 0
