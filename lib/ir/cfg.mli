(** Array-indexed view of a function's control-flow graph.

    Analyses (dominance, SSA construction, SSAPRE) want dense integer node
    ids; [build] freezes a {!Func.t} into arrays in reverse postorder, so
    index 0 is the entry and forward edges mostly increase.  Unreachable
    blocks are excluded.

    The view aliases the function's blocks: passes may rewrite instruction
    lists in place through it, but changing the block *set* or the
    terminators requires rebuilding. *)

type t

val build : Func.t -> t

val num_nodes : t -> int

val block : t -> int -> Block.t

val label : t -> int -> Label.t

val succs : t -> int -> int list

val preds : t -> int -> int list

val func : t -> Func.t

(** @raise Invalid_argument for labels of unreachable blocks. *)
val index_of_label : t -> Label.t -> int

val entry_index : t -> int
