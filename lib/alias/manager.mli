(** Facade over the points-to analysis: the one object the promotion pass
    queries.  It composes the inclusion-based (Andersen) analysis with the
    unsafe type-based refinement of the ORC -O3 baseline (paper
    section 4).  The baseline's equivalence-class (Steensgaard) stage is
    not run: its answer contains Andersen's on every query. *)

open Srp_ir

type t

(** Run Andersen over a whole program; queries apply the type filter. *)
val build : Program.t -> t

(** Locations an indirect access through the temp with cell type [mty] may
    touch (type filter applied). *)
val points_to : t -> func:string -> mty:Mem_ty.t -> Temp.t -> Location.Set.t
