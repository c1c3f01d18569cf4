(** Interprocedural mod summaries: for every function, the locations it
    (transitively) may store to, used to place a chi at each call site.
    Only locations visible across a call boundary matter — globals, heap
    objects, and address-taken locals; a callee's private local cannot be
    named by its caller.  Recursion is handled by a fixpoint over the call
    graph. *)

open Srp_ir

type t

val compute : Manager.t -> Program.t -> t

(** Locations [name] may (transitively) write. *)
val mod_of : t -> string -> Location.Set.t
