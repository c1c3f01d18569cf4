(* Facade over the points-to analysis: one object the promotion pass
   queries, composing Andersen's inclusion-based analysis with the
   type-based refinement of the ORC -O3 baseline (paper section 4).

   Answers are memoized per (function, temp, cell type) for the life of
   the object.  The analysis is solved once in [build] and never changes
   afterwards, and a temp the solution has never seen (one made after
   [build]) points nowhere on every query, so a memoized answer is the
   answer a fresh query would give. *)

open Srp_ir

type t = {
  anders : Andersen.t;
  memo : (string * int * Mem_ty.t, Location.Set.t) Hashtbl.t;
}

let build (prog : Program.t) : t =
  { anders = Andersen.run prog; memo = Hashtbl.create 256 }

(* Locations an indirect access through [tmp] with cell type [mty] may
   touch. *)
let points_to t ~func ~mty tmp : Location.Set.t =
  let k = (func, Temp.id tmp, mty) in
  match Hashtbl.find_opt t.memo k with
  | Some s -> s
  | None ->
    let s =
      Type_filter.filter ~access_mty:mty
        (Andersen.points_to_of_temp t.anders ~func tmp)
    in
    Hashtbl.replace t.memo k s;
    s
