(* Bounded event-trace sink: one JSON object per line, each stamped with
   the machine cycle it retired at.  Meant for debugging codegen and the
   timing model — pipe a run through `srp run --trace FILE` and grep.

   The bound keeps a runaway loop from filling the disk: after [limit]
   events the sink counts drops silently and `close` appends a final
   `{"ev":"truncated","dropped":N}` record so a reader knows the trace is
   a prefix, not the whole run.

   A hot caller asks [admit] before it touches the record, so an event
   past the bound costs one count.  An admitted event is written field by
   field into the sink's one buffer — each key encoded once, when the
   caller made it, and each value by the same pieces [Json.to_string]
   uses — and copied to the channel from there.  No [Json.t] is built. *)

type key = string

let key name =
  let b = Buffer.create 16 in
  Buffer.add_char b ',';
  Json.add_string b name;
  Buffer.add_char b ':';
  Buffer.contents b

(* Float texts by bit pattern, so [-0.0] and [0.0] stay apart. *)
module Floats = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

(* The float texts a sink remembers.  The timeline's one float, issue
   utilization, is a ratio of small ints, so a few thousand values cover
   most rows; past the cap a new value is printed and not remembered. *)
let max_floats = 4096

type sink = {
  oc : out_channel;
  limit : int;
  buf : Buffer.t;
  floats : string Floats.t;
  mutable emitted : int;
  mutable dropped : int;
}

let create ?(limit = 100_000) oc =
  { oc; limit; buf = Buffer.create 256; floats = Floats.create 16;
    emitted = 0; dropped = 0 }

let admit t =
  t.emitted < t.limit
  || begin
    t.dropped <- t.dropped + 1;
    false
  end

let start t ~cycle kind =
  t.emitted <- t.emitted + 1;
  Buffer.clear t.buf;
  Buffer.add_string t.buf {|{"c":|};
  Json.add_int t.buf cycle;
  Buffer.add_string t.buf {|,"ev":|};
  Json.add_string t.buf kind

let int t k i =
  Buffer.add_string t.buf k;
  Json.add_int t.buf i

let str t k s =
  Buffer.add_string t.buf k;
  Json.add_string t.buf s

let bool t k b =
  Buffer.add_string t.buf k;
  Buffer.add_string t.buf (if b then "true" else "false")

(* [Printf "0x%Lx"]: the 64 bits as unsigned hex, no leading zeros. *)
let hex t k v =
  let b = t.buf in
  Buffer.add_string b k;
  Buffer.add_string b {|"0x|};
  let digits = ref 1 in
  while !digits < 16 && Int64.shift_right_logical v (4 * !digits) <> 0L do
    incr digits
  done;
  for d = !digits - 1 downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical v (4 * d)) land 15]
  done;
  Buffer.add_char b '"'

let float t k x =
  Buffer.add_string t.buf k;
  Buffer.add_string t.buf
    (match Floats.find_opt t.floats x with
    | Some s -> s
    | None ->
      let s = Json.float_text x in
      if Floats.length t.floats < max_floats then Floats.add t.floats x s;
      s)

let ints t k is =
  Buffer.add_string t.buf k;
  Buffer.add_char t.buf '[';
  List.iteri
    (fun n i ->
      if n > 0 then Buffer.add_char t.buf ',';
      Json.add_int t.buf i)
    is;
  Buffer.add_char t.buf ']'

let finish t =
  Buffer.add_string t.buf "}\n";
  Buffer.output_buffer t.oc t.buf

let emitted t = t.emitted
let dropped t = t.dropped

let dropped_key = key "dropped"

let close t =
  if t.dropped > 0 then begin
    Buffer.clear t.buf;
    Buffer.add_string t.buf {|{"ev":"truncated"|};
    int t dropped_key t.dropped;
    finish t
  end;
  flush t.oc
