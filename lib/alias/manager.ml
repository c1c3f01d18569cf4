(* Facade over the points-to analyses: one object the SSA builder and the
   promotion pass query, composing Steensgaard, Andersen and the
   type-based refinement, mirroring the "sequence of pointer analyses" the
   ORC baseline composes (paper section 4). *)

open Srp_ir

type t = { steens : Steensgaard.t; anders : Andersen.t }

let build (prog : Program.t) : t =
  { steens = Steensgaard.run prog; anders = Andersen.run prog }

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
  Type_filter.filter ~access_mty:mty (points_to_raw t ~func tmp)

(* Stable class key for virtual-variable naming. *)
let class_of_temp t ~func tmp = Steensgaard.class_of_temp t.steens ~func tmp
