(** The Advanced Load Address Table (paper section 2.1).

    Entries are tagged by the target register of the advanced load and
    carry a *partial* physical address (12 bits of the word address by
    default), as on Itanium.  Every retired store probes the table and
    invalidates entries whose partial address matches — so a false partial
    collision can only cause a spurious reload, never an incorrect result.

    Associativity is configurable; the default is fully associative
    (Itanium 2's 32-entry CAM).  Pass [~ways:2] for the original Itanium's
    organization, which exhibits set-conflict evictions.

    One idealization versus hardware: entries are tagged by
    (call-frame uid, register index) rather than physical register number,
    so register-stack wraparound can never make a stale entry validate a
    recycled register; {!purge_frame} drops a dying frame's entries at
    return, which is what reuse of the physical registers achieves on real
    hardware. *)

type tag

type t

(** [size] entries (default 32) in sets of [ways] (default [size]: fully
    associative), tagged with [paddr_bits] bits of the word address
    (default 12).
    @raise Invalid_argument if [ways < 1], if [ways] does not divide
    [size], or if [paddr_bits] is outside 1..16. *)
val create : ?size:int -> ?ways:int -> ?paddr_bits:int -> unit -> t

(** Tag for an integer register of a call frame. *)
val int_tag : frame:int -> int -> tag

(** Tag for a floating-point register of a call frame. *)
val fp_tag : frame:int -> int -> tag

(** The partial address stored for a full byte address. *)
val partial : t -> int -> int

(** Allocate (or refresh) the entry for [tag] at the given address, as
    ld.a/ld.sa do.  [site] is the IR site id of the arming load, kept for
    per-site event attribution (defaults to [-1], "unknown").  If a valid
    entry had to be evicted for capacity, returns the evicted entry's
    arming site. *)
val insert : ?site:int -> t -> tag -> int -> int option

(** Does a valid entry exist for [tag]?  This is ld.c: a hit means the
    register's value is current.  [clear] removes the entry on a hit (the
    .clr completer); [~clear:false] keeps it (.nc, Figure 1(c)). *)
val check : t -> tag -> clear:bool -> bool

(** A retired store: invalidate every entry whose partial address matches.
    Returns how many entries died. *)
val store_probe : t -> int -> int

(** Like {!store_probe}, but returns the arming site of each entry that
    died, so the invalidation can be attributed per site. *)
val store_probe_sites : t -> int -> int list

(** Remove the entry for one register — the invala.e instruction. *)
val remove : t -> tag -> unit

(** Remove every entry (the invala instruction). *)
val invala_all : t -> unit

(** Drop all entries belonging to a returning call frame. *)
val purge_frame : t -> frame:int -> unit

(** Number of valid entries (for tests and statistics). *)
val occupancy : t -> int
