(** Interpreter/simulator memory: word-addressed regions, each a flat
    array of its words, plus a region map resolving any address back to the
    abstract {!Location.t} it falls in.

    The region map is what makes alias *profiling* possible: every dynamic
    indirect access reports which symbol or heap object it actually touched
    (paper section 3.1).  All memory reads are zero-initialized (calloc
    semantics), identically in the interpreter and the machine, which keeps
    differential tests exact. *)

type t

val create : unit -> t

(** Allocate a fresh region (bump allocation); returns its 8-aligned base.
    @raise Value.Interp_error if the region exceeds 128 MiB. *)
val alloc : t -> size:int -> loc:Srp_alias.Location.t -> int64

(** Place a region at a caller-chosen base (the machine's descending stack:
    real stacks reuse addresses, which matters to ALAT partial tags).
    @raise Value.Interp_error on misalignment, on overlap with a region
    below or above the new span, or if the region exceeds 128 MiB. *)
val alloc_at : t -> base:int64 -> size:int -> loc:Srp_alias.Location.t -> int64

(** Remove a region and its words (frame teardown): a later region at the
    same addresses reads zero.
    @raise Value.Interp_error if no region starts at the address. *)
val free : t -> int64 -> unit

(** The abstract location an address falls in, if any. *)
val location_of_addr : t -> int64 -> Srp_alias.Location.t option

(** @raise Value.Interp_error on wild or unaligned accesses. *)
val load : t -> int64 -> Value.t

(** Typed load: a zero cell read at F64 yields 0.0. *)
val load_typed : t -> int64 -> Srp_ir.Mem_ty.t -> Value.t

val store : t -> int64 -> Value.t -> unit
