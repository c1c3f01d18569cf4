(** IR interpreter.  Two jobs:

    - reference semantics for differential testing: its printed output must
      match the machine simulator's at every optimization level;
    - alias-profile collection (the paper's instrumentation-based profiling
      of section 3.1): every dynamic memory access resolves to its abstract
      location and is recorded per site, and block executions are counted.

    Pre-promotion IR only: promotion-inserted Check/Invala instructions
    have machine semantics and raise {!Value.Interp_error} here. *)

open Srp_ir

exception Out_of_fuel

type t

(** [create prog] loads globals from their initializers (workload
    inputs are baked into them beforehand, by the driver's [Workload.apply_input]).
    [fuel] bounds executed steps; [collect_profile] defaults to [true]. *)
val create : ?fuel:int -> ?collect_profile:bool -> Program.t -> t

(** Run [main]; returns its exit value. *)
val run : t -> int64

(** Everything the program printed. *)
val output : t -> string

(** The alias profile.  The interpreter counts in its own arrays and adds
    them to it when {!run} returns or raises, so after a fault or
    {!Out_of_fuel} it holds every block entered and every access made. *)
val profile : t -> Alias_profile.t

(** Executed instruction count. *)
val steps : t -> int

(** create + run; returns (exit code, output, profile). *)
val run_program :
  ?fuel:int -> ?collect_profile:bool -> Program.t -> int64 * string * Alias_profile.t
