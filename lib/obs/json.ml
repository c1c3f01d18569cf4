(* A minimal JSON value type with an encoder and a parser.  Hand-rolled on
   purpose: the container bakes in no JSON library, and the observability
   layer must not pull new dependencies into every library that reports
   statistics.  The encoder emits RFC 8259 JSON; the parser accepts what
   the encoder produces (plus ordinary interchange JSON) and exists mainly
   so tests can round-trip emitted documents. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Arr of t list
  | Obj of (string * t) list

(* --- encoding --- *)

(* The encoder walks strings and lists with loops and recursion, not a
   closure per element or character, and writes integers digit by digit,
   so the compact encoding of a record with no float allocates nothing
   beyond the buffer's growth. *)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c ->
    (* the other control characters, all below 0x20 *)
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf (hex_digit (Char.code c lsr 4));
    Buffer.add_char buf (hex_digit (Char.code c land 15))

(* Runs of characters that need no escape go to the buffer in one copy. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      escape_char buf c;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* The digits of [n <= 0], most significant first.  Working on the
   negative side gives [min_int] a representation. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* The printer behind [Printf]'s [%g]; called directly, a float's text
   costs no format-string interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* The text of [Float x].  JSON has no NaN/Infinity; clamp to null like
   most emitters do.  A finite float prints with 12 significant digits
   when that text parses back to the same float, else with 17, which
   always does; the 17-digit text is built only when it is needed.  A
   whole-number text gets ".0" so it stays a float on re-parse. *)
let float_text x =
  if not (Float.is_finite x) then "null"
  else
    let short = format_float "%.12g" x in
    let s = if float_of_string short = x then short else format_float "%.17g" x in
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      s ^ ".0"
    else s

let nl buf ~indent n =
  if indent > 0 then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent * n) ' ')
  end

let rec encode buf ~indent ~level (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> Buffer.add_string buf (float_text x)
  | String s -> add_string buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr (x :: xs) ->
    Buffer.add_char buf '[';
    encode_item buf ~indent ~level x;
    encode_items buf ~indent ~level xs;
    nl buf ~indent level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_char buf '{';
    encode_member buf ~indent ~level kv;
    encode_members buf ~indent ~level kvs;
    nl buf ~indent level;
    Buffer.add_char buf '}'

(* An element or a member of a container at [level], on its own line when
   indenting. *)
and encode_item buf ~indent ~level x =
  nl buf ~indent (level + 1);
  encode buf ~indent ~level:(level + 1) x

and encode_items buf ~indent ~level = function
  | [] -> ()
  | x :: xs ->
    Buffer.add_char buf ',';
    encode_item buf ~indent ~level x;
    encode_items buf ~indent ~level xs

and encode_member buf ~indent ~level (k, x) =
  nl buf ~indent (level + 1);
  add_string buf k;
  Buffer.add_char buf ':';
  if indent > 0 then Buffer.add_char buf ' ';
  encode buf ~indent ~level:(level + 1) x

and encode_members buf ~indent ~level = function
  | [] -> ()
  | kv :: kvs ->
    Buffer.add_char buf ',';
    encode_member buf ~indent ~level kv;
    encode_members buf ~indent ~level kvs

let to_string ?(indent = 0) (v : t) : string =
  let buf = Buffer.create 256 in
  encode buf ~indent ~level:0 v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type state = { s : string; mutable pos : int }

let perror st fmt =
  Fmt.kstr (fun m -> raise (Parse_error (Fmt.str "at offset %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> perror st "expected '%c', found '%c'" c c'
  | None -> perror st "expected '%c', found end of input" c

let literal st word (v : t) =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else perror st "invalid literal"

(* encode a unicode codepoint as UTF-8 *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st : string =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then perror st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if st.pos >= String.length st.s then perror st "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      match e with
      | '"' -> Buffer.add_char buf '"'; go ()
      | '\\' -> Buffer.add_char buf '\\'; go ()
      | '/' -> Buffer.add_char buf '/'; go ()
      | 'n' -> Buffer.add_char buf '\n'; go ()
      | 'r' -> Buffer.add_char buf '\r'; go ()
      | 't' -> Buffer.add_char buf '\t'; go ()
      | 'b' -> Buffer.add_char buf '\b'; go ()
      | 'f' -> Buffer.add_char buf '\012'; go ()
      | 'u' ->
        if st.pos + 4 > String.length st.s then perror st "truncated \\u escape";
        let hex = String.sub st.s st.pos 4 in
        st.pos <- st.pos + 4;
        let cp =
          try int_of_string ("0x" ^ hex)
          with _ -> perror st "bad \\u escape %s" hex
        in
        add_utf8 buf cp;
        go ()
      | c -> perror st "bad escape '\\%c'" c)
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st : t =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.s && is_num_char st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  (* RFC 8259 has no leading '+' ('+' only appears in exponents), but the
     stdlib of_string functions accept it *)
  if tok = "" || tok.[0] = '+' then perror st "bad number %s" tok;
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
    match float_of_string_opt tok with
    | Some x -> Float x
    | None -> perror st "bad number %s" tok
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> perror st "bad number %s" tok

let rec parse_value st : t =
  skip_ws st;
  match peek st with
  | None -> perror st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      expect st ']';
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> expect st ','; items (v :: acc)
        | Some ']' -> expect st ']'; List.rev (v :: acc)
        | _ -> perror st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      expect st '}';
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> expect st ','; members ((k, v) :: acc)
        | Some '}' -> expect st '}'; List.rev ((k, v) :: acc)
        | _ -> perror st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some _ -> parse_number st

let of_string (s : string) : (t, string) result =
  let st = { s; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Fmt.str "at offset %d: trailing garbage" st.pos)
    else Ok v
  with Parse_error m -> Error m

(* --- accessors (for tests and consumers of emitted documents) --- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_float_opt = function Float x -> Some x | Int i -> Some (float_of_int i) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function Arr xs -> Some xs | _ -> None
