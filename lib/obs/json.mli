(** A minimal JSON value type, encoder and parser — the observability
    layer's wire format, hand-rolled so that no library in the stack grows
    a new external dependency.

    The encoder emits RFC 8259 JSON (NaN/infinite floats become [null]);
    the parser accepts ordinary interchange JSON and exists mainly so tests
    can round-trip emitted documents. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(** Encode. [indent = 0] (the default) is compact single-line output;
    [indent > 0] pretty-prints with that many spaces per level. *)
val to_string : ?indent:int -> t -> string

(** The pieces of the compact encoding, for writers that build a record
    straight into a buffer ({!Trace}): [add_int buf i] appends the
    encoding of [Int i], [add_string buf s] that of [String s] (quoted
    and escaped), and [float_text x] is the encoding of [Float x] — the
    [%.12g] text if it parses back to [x], else the [%.17g] text, with
    [".0"] added to a whole number; [null] if [x] is not finite. *)
val add_int : Buffer.t -> int -> unit

val add_string : Buffer.t -> string -> unit
val float_text : float -> string

(** Parse a complete document (trailing garbage is an error). *)
val of_string : string -> (t, string) result

(** Object field lookup; [None] on missing key or non-object. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
