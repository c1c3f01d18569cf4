(** Bounded per-cycle event trace: one JSON object per line
    ([{"c": <cycle>, "ev": <kind>, ...}]).

    After [limit] events further emissions are dropped and counted;
    {!close} appends a final [{"ev":"truncated","dropped":N}] record if
    anything was dropped.  {!close} flushes but does not close the
    channel — the opener owns it. *)

type sink

val create : ?limit:int -> out_channel -> sink

(** [admit t] is [true] while [t] is under its limit, so the next {!emit}
    will be written.  At the limit it counts one dropped event and
    returns [false].  A caller that asks before it builds an event's
    fields pays one count, not a record, for an event past the bound; it
    must follow each [true] with exactly one {!emit}, and must not emit
    after a [false], or the drop count is no longer exact. *)
val admit : sink -> bool

(** Write one event, or count it as dropped past the limit. *)
val emit : sink -> cycle:int -> string -> (string * Json.t) list -> unit

(** Events written so far (excluding drops). *)
val emitted : sink -> int

(** Events dropped past the limit so far: the [N] of the truncation
    record. *)
val dropped : sink -> int

val close : sink -> unit
