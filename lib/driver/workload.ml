(* Workload description: a MiniC source plus train and ref input sets,
   injected as global-initializer overrides before each run (the MiniC
   programs read their inputs from global arrays, which keeps both the
   interpreter and the machine free of any I/O model).

   An input carries its content digest, computed on first use and kept:
   every compile keys its apply-input stage (and `srp serve` its job) by
   it, and the payloads are read-only, so the digest cannot go stale. *)

open Srp_ir

type input = {
  bindings : (string * Program.global_init) list;
  digest : string option Atomic.t;
}

type t = {
  name : string;
  description : string;
  source : string;
  train : input;
  ref_ : input;
}

let input bindings = { bindings; digest = Atomic.make None }

(* The bindings marshalled without sharing, so equal content gives equal
   bytes however its payloads are shared.  Domains that ask at once may
   each compute the digest; the first to publish wins and every caller
   returns that one string.  (A [Lazy] would raise
   [CamlinternalLazy.Undefined] in the second domain instead.) *)
let digest (i : input) : string =
  match Atomic.get i.digest with
  | Some d -> d
  | None ->
    let bytes = Marshal.to_string i.bindings [ Marshal.No_sharing ] in
    let d = Digest.to_hex (Digest.string bytes) in
    if Atomic.compare_and_set i.digest None (Some d) then d
    else Option.get (Atomic.get i.digest)

let apply_input (prog : Program.t) (input : input) : unit =
  List.iter
    (fun (name, init) -> Program.set_global_init prog name init)
    input.bindings
