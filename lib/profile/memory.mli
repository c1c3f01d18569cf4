(** Interpreter/simulator memory: word-addressed regions whose words live
    in fixed-size pages, each word raw 64 bits with a tag (unmapped, int
    or float), plus a region table resolving any address back to the
    abstract {!Location.t} it falls in.

    Every load or store, the interpreter's and the machine's alike, finds
    its word's page through a two-level directory and tests the word's
    tag: no region search.  The region table serves only what needs a
    location or a placement check ({!location}, {!alloc}, {!alloc_at},
    {!free}).  It is what makes alias *profiling* possible: every dynamic
    access whose target is not known statically reports which symbol or
    heap object it actually touched (paper section 3.1).  All memory reads
    are zero-initialized (calloc semantics), identically in the
    interpreter and the machine, which keeps differential tests exact.

    The interpreter works in int64 addresses and {!Value.t}; the machine
    in native-int addresses and raw bits.  An int64 address that does not
    fit an [int] is in no region. *)

type t

val create : unit -> t

(** Allocate a fresh region (bump allocation); returns its 8-aligned base.
    @raise Value.Interp_error if the region exceeds 128 MiB or would
    overlap a region placed by {!alloc_at}. *)
val alloc : t -> size:int -> loc:Srp_alias.Location.t -> int64

(** A program's [malloc] of [nbytes]: {!alloc} of a heap region, with the
    size checked as an int64 before it is narrowed.
    @raise Value.Interp_error ["malloc of negative size"] for a negative
    size, and the region-limit error of {!alloc} for a size over 128 MiB. *)
val malloc : t -> nbytes:int64 -> loc:Srp_alias.Location.t -> int64

(** Place a region at a caller-chosen base (the machine's descending stack:
    real stacks reuse addresses, which matters to ALAT partial tags).
    @raise Value.Interp_error on misalignment, on a span that does not fit
    the native-int address space, on overlap with a region below or above
    the new span, or if the region exceeds 128 MiB. *)
val alloc_at : t -> base:int64 -> size:int -> loc:Srp_alias.Location.t -> int64

(** Remove a region and unmap its words (frame teardown): a later region
    at the same addresses reads zero.
    @raise Value.Interp_error if no region starts at the address. *)
val free : t -> int64 -> unit

(** The abstract location of the region an address falls in (red zones
    are in none).  It allocates nothing.
    @raise Not_found if the address is in no region. *)
val location : t -> int64 -> Srp_alias.Location.t

(** The word at an address: [Vflt] if a float was stored there last,
    [Vint] otherwise.
    @raise Value.Interp_error on wild or unaligned accesses. *)
val load : t -> int64 -> Value.t

(** Typed load: a zero cell read at F64 yields 0.0.
    @raise Value.Interp_error on wild or unaligned accesses. *)
val load_typed : t -> int64 -> Srp_ir.Mem_ty.t -> Value.t

(** Store a value's bits, tagging the word float for a [Vflt].
    @raise Value.Interp_error on wild or unaligned accesses. *)
val store : t -> int64 -> Value.t -> unit

(** {2 Native-int addresses}

    The machine's entry points: no boxed address or value crosses them. *)

(** Does the address fall in a region? *)
val mapped : t -> int -> bool

(** [load_bits t a dst off] copies the word at [a] into [dst] at byte
    [off], as a native-endian int64.
    @raise Value.Interp_error on wild or unaligned accesses. *)
val load_bits : t -> int -> Bytes.t -> int -> unit

(** [store_bits t a src off ~float] copies the native-endian int64 at byte
    [off] of [src] into the word at [a]; [float] tags it as a float store.
    @raise Value.Interp_error on wild or unaligned accesses. *)
val store_bits : t -> int -> Bytes.t -> int -> float:bool -> unit

(** The fault of a plain access at an address outside every region
    ("unaligned access at …" or "wild access at …"); for an address that
    does not fit an [int].
    @raise Value.Interp_error always. *)
val unmapped : int64 -> 'a

(** {2 Pages}

    Diagnostics of the page store, for tests and measurements. *)

(** The bytes of address space one page covers. *)
val page_bytes : int

(** Pages of addresses at or above this (or below zero) are kept in a
    hash table instead of the directory. *)
val directory_reach : int

(** The pages currently resident: those holding at least one word of a
    live region.  A diagnostic; the page store holds about [page_bytes] of words
    per resident page. *)
val resident_pages : t -> int
