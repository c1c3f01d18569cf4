(* Facade over the points-to analyses: one object the SSA builder and the
   promotion pass query, composing Steensgaard, Andersen and the
   type-based refinement, mirroring the "sequence of pointer analyses" the
   ORC baseline composes (paper section 4).

   Answers are memoized per (function, temp, cell type) for the life of
   the object.  Both analyses are solved once in [build] and never change
   afterwards, and a temp the solution has never seen (one made after
   [build]) points nowhere on every query, so a memoized answer is the
   answer a fresh query would give. *)

open Srp_ir

type t = {
  steens : Steensgaard.t;
  anders : Andersen.t;
  memo : (string * int * Mem_ty.t, Location.Set.t) Hashtbl.t;
}

let build (prog : Program.t) : t =
  { steens = Steensgaard.run prog; anders = Andersen.run prog;
    memo = Hashtbl.create 256 }

(* Raw points-to set of the pointer value held in [tmp]: Andersen refines
   Steensgaard; intersect for safety of the composition (both are sound,
   so the intersection is too). *)
let points_to_raw t ~func tmp : Location.Set.t =
  let pa = Andersen.points_to_of_temp t.anders ~func tmp in
  let ps = Steensgaard.points_to_of_temp t.steens ~func tmp in
  Location.Set.inter pa ps

(* Locations an indirect access through [tmp] with cell type [mty] may
   touch. *)
let points_to t ~func ~mty tmp : Location.Set.t =
  let k = (func, Temp.id tmp, mty) in
  match Hashtbl.find_opt t.memo k with
  | Some s -> s
  | None ->
    let s = Type_filter.filter ~access_mty:mty (points_to_raw t ~func tmp) in
    Hashtbl.replace t.memo k s;
    s

(* Stable class key for virtual-variable naming. *)
let class_of_temp t ~func tmp = Steensgaard.class_of_temp t.steens ~func tmp
