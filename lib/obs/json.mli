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

(** Append the compact encoding ([to_string] with [indent = 0]) to a
    buffer. *)
val to_buffer : Buffer.t -> t -> unit

(** Parse a complete document (trailing garbage is an error). *)
val of_string : string -> (t, string) result

(** Object field lookup; [None] on missing key or non-object. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
