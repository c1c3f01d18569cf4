(** Facade over the points-to analyses: the one object the SSA builder and
    the promotion pass query, mirroring the "sequence of pointer analyses"
    the ORC -O3 baseline composes (paper section 4): equivalence-class
    (Steensgaard), inclusion-based (Andersen) and the unsafe type-based
    refinement. *)

open Srp_ir

type t

(** Run Steensgaard and Andersen over a whole program; queries intersect
    both (both are sound) and apply the type filter. *)
val build : Program.t -> t

(** Locations an indirect access through the temp with cell type [mty] may
    touch (type filter applied). *)
val points_to : t -> func:string -> mty:Mem_ty.t -> Temp.t -> Location.Set.t

(** Stable equivalence-class key, used for virtual-variable naming. *)
val class_of_temp : t -> func:string -> Temp.t -> int
