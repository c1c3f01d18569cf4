(* Bounded event-trace sink: one JSON object per line, each stamped with
   the machine cycle it retired at.  Meant for debugging codegen and the
   timing model — pipe a run through `srp run --trace FILE` and grep.

   The bound keeps a runaway loop from filling the disk: after [limit]
   events the sink counts drops silently and `close` appends a final
   `{"ev":"truncated","dropped":N}` record so a reader knows the trace is
   a prefix, not the whole run.

   A hot caller asks [admit] before it builds an event's fields, so an
   event past the bound costs one count and no record.  An admitted event
   is encoded into the sink's one buffer and copied to the channel from
   there, with no string of its own. *)

type sink = {
  oc : out_channel;
  limit : int;
  buf : Buffer.t;
  mutable emitted : int;
  mutable dropped : int;
}

let create ?(limit = 100_000) oc =
  { oc; limit; buf = Buffer.create 256; emitted = 0; dropped = 0 }

let admit t =
  t.emitted < t.limit
  || begin
    t.dropped <- t.dropped + 1;
    false
  end

let write t v =
  Buffer.clear t.buf;
  Json.to_buffer t.buf v;
  Buffer.add_char t.buf '\n';
  Buffer.output_buffer t.oc t.buf

let emit t ~cycle kind fields =
  if admit t then begin
    t.emitted <- t.emitted + 1;
    write t
      (Json.Obj (("c", Json.Int cycle) :: ("ev", Json.String kind) :: fields))
  end

let emitted t = t.emitted
let dropped t = t.dropped

let close t =
  if t.dropped > 0 then
    write t
      (Json.Obj
         [ ("ev", Json.String "truncated"); ("dropped", Json.Int t.dropped) ]);
  flush t.oc
