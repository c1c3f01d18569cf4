(** Workload description: a MiniC source plus train and ref input sets.

    Inputs are injected as global-initializer overrides before each run,
    which keeps both the interpreter and the machine free of any I/O
    model — the MiniC programs read their inputs from global arrays. *)

open Srp_ir

(** An input set: global names bound to initializers, with its content
    digest. *)
type input

type t = {
  name : string;
  description : string;
  source : string;  (** MiniC source text *)
  train : input;  (** profiling input (the paper's SPEC train set) *)
  ref_ : input;  (** measurement input (the paper's SPEC ref set) *)
}

(** The input binding each named global to its initializer, applied in
    list order. *)
val input : (string * Program.global_init) list -> input

(** The input's content key (hex MD5): equal for equal bindings, however
    they were built or shared.  Computed on first use and kept, so every
    later call is a read; safe to call from several domains at once.  The
    payloads are read-only ({!Program.Payload}), so it never goes stale. *)
val digest : input -> string

(** Overwrite the named globals' initializers in place.

    This mutates [prog] — callers holding a shared artifact (a cached
    lower-stage result) must apply inputs to a {!Program.clone}, never to
    the artifact itself, or every other consumer of that artifact sees
    the wrong input baked in.  The staged pipeline does this in its
    apply-input stage; see the independence regression test.  The clone
    and the input share the payloads, which nothing can write. *)
val apply_input : Program.t -> input -> unit
