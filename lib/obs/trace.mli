(** Bounded per-cycle event trace: one JSON object per line
    ([{"c": <cycle>, "ev": <kind>, ...}]).

    After [limit] events further events are dropped and counted;
    {!close} appends a final [{"ev":"truncated","dropped":N}] record if
    anything was dropped.  {!close} flushes but does not close the
    channel — the opener owns it.

    A record is written straight into the sink's buffer, one field at a
    time, with no {!Json.t} built for it:
    {[
      if Trace.admit sink then begin
        Trace.start sink ~cycle "alat.arm";
        Trace.int sink k_site site;
        Trace.hex sink k_addr addr;
        Trace.finish sink
      end
    ]}
    where [k_site = Trace.key "site"] is made once, not per record.  The
    line is the one {!Json.to_string} gives for the same fields as an
    [Obj], plus a newline. *)

type sink

val create : ?limit:int -> out_channel -> sink

(** [admit t] is [true] while [t] is under its limit, so a record
    {!start}ed next will be written.  At the limit it counts one dropped
    event and returns [false].  A caller that asks before it builds an
    event's fields pays one count, not a record, for an event past the
    bound; it must follow each [true] with exactly one record, and must
    not write one after a [false], or the drop count is no longer
    exact. *)
val admit : sink -> bool

(** A field name, encoded once as [,"name":]. *)
type key

val key : string -> key

(** [start t ~cycle kind] opens a record, [{"c":cycle,"ev":"kind"], and
    counts it as written.  Call it only after {!admit} said [true]. *)
val start : sink -> cycle:int -> string -> unit

(** Append one field to the open record: an int, a string (escaped), a
    bool, a float (the {!Json.float_text} of it; a sink remembers the
    texts of a few thousand values), a list of ints, or a 64-bit value
    as the string ["0x…"], unsigned hex without leading zeros (what
    [Printf "0x%Lx"] prints). *)
val int : sink -> key -> int -> unit

val str : sink -> key -> string -> unit
val bool : sink -> key -> bool -> unit
val float : sink -> key -> float -> unit
val ints : sink -> key -> int list -> unit
val hex : sink -> key -> int64 -> unit

(** Close the open record and copy it to the channel. *)
val finish : sink -> unit

(** Events written so far (excluding drops). *)
val emitted : sink -> int

(** Events dropped past the limit so far: the [N] of the truncation
    record. *)
val dropped : sink -> int

val close : sink -> unit
