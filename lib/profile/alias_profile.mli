(** The alias profile: for every memory-op site, per-location dynamic hit
    counts (how many of the site's executions touched each abstract
    location), plus execution counts and per-block execution counts.

    This is the feedback the speculative compiler consumes (paper section
    3.1): a chi on location L at site s becomes a {e chi_s}
    (speculative) when the profile says s touches L never — or, under the
    expected-value gate, rarely enough that the saved load latency beats
    the expected check/recovery cost.  Set semantics are recoverable: a
    location is a member of {!targets} iff its {!touch_count} is nonzero.
    Block counts drive the control-speculation and invala.e placement
    heuristics. *)

open Srp_ir
module Location = Srp_alias.Location

type t

val create : unit -> t

(** {1 Filling}

    A profiler counts events in its own representation and adds the
    totals with these.  Adding [0] is a no-op; a negative count raises
    [Invalid_argument]. *)

(** [add_hits t site loc n]: [n] more executions of [site] touched [loc].
    It does not change {!count}. *)
val add_hits : t -> Site.t -> Location.t -> int -> unit

(** [add_count t site n]: [n] more executions of [site]. *)
val add_count : t -> Site.t -> int -> unit

(** [add_block_count t ~func ~label_id n]: [n] more executions of a basic
    block. *)
val add_block_count : t -> func:string -> label_id:int -> int -> unit

(** {1 Queries} *)

val block_count : t -> func:string -> label_id:int -> int

(** Was [site] ever executed under the training input?  Equivalent to
    [count t site > 0] — a deserialized [count 0] site is not executed. *)
val executed : t -> Site.t -> bool

(** Dynamic execution count of [site]. *)
val count : t -> Site.t -> int

(** Locations [site] was observed touching (empty if never executed). *)
val targets : t -> Site.t -> Location.Set.t

(** How many of [site]'s executions touched [loc] (0 if never). *)
val touch_count : t -> Site.t -> Location.t -> int

(** Observed conflict frequency in [0, 1]: the fraction of [site]'s
    training executions that touched [loc].  0 exactly when
    {!touch_count} is 0: a never-executed site touches nothing, the
    aggressive choice the paper makes. *)
val conflict_rate : t -> Site.t -> Location.t -> float

(** All recorded sites, sorted. *)
val sites : t -> Site.t list

val pp : Format.formatter -> t -> unit

(** {1 Serialization}

    A line-oriented text format so train-input profiles can be saved and
    fed to later compilations (the paper's feedback file).  The current
    format is [srp-profile-v2] (header line, per-target [=hits] counts,
    site and block lines fully sorted so identical training runs produce
    byte-identical text); the headerless v1 format is still loadable,
    with each v1 target read as conflicting on every execution.  Symbols
    are referenced by id, so {!load} needs the same program's symbol
    table — ids are deterministic given the source. *)

val save : t -> string

exception Parse_error of string

(** Raises {!Parse_error} on malformed lines or numeric fields and on
    duplicate [site]/[block] lines. *)
val load : symbols:(int, Symbol.t) Hashtbl.t -> string -> t
