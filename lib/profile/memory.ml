(* Interpreter and simulator memory: word-addressed regions plus a region
   table that resolves any address back to the abstract [Location.t] it
   falls in.  The region table is what makes alias *profiling* possible:
   every dynamic indirect access reports which symbol or heap object it
   actually touched (paper section 3.1).

   Representation: each region owns a [Bytes.t] of native-endian int64
   words, all initially zero, and one tag byte per word that is set while
   the word holds a float store.  Words are raw bits: the machine moves
   them straight to and from its register files ([load_bits],
   [store_bits]), and the interpreter rebuilds a [Value.t] from bits and
   tag ([load]).

   Regions live in one array sorted by base, next to a parallel array of
   the bases, searched by bisection.  Two last-hit slots sit in front of
   it: one for regions placed with [alloc_at] (the machine's stack frames)
   and one for the rest (globals and heap), so a loop alternating between
   a frame slot and an array hits both.  In the machine, heap regions sit
   below every stack frame and a new frame just below the live ones, so
   inserting or removing a region shifts at most the live frames: the
   call depth.

   Addresses are native ints inside; the int64 entry points treat an
   int64 that does not fit an int as wild. *)

open Srp_ir

(* Word access inside a region, whose bounds [access] has proved; the
   caller's buffer of [load_bits]/[store_bits] is checked. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get_int64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_int64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type region = {
  base : int;
  limit : int; (* base + size; size is a multiple of 8 *)
  loc : Srp_alias.Location.t;
  words : Bytes.t; (* word i is at byte address base + 8i *)
  tags : Bytes.t; (* byte i is [flt] while word i holds a float store *)
  stack : bool; (* placed by [alloc_at] *)
}

type t = {
  mutable bases : int array; (* [bases.(i) = regions.(i).base], ascending *)
  mutable regions : region array;
  mutable n : int; (* live entries *)
  mutable last_stack : region; (* last [alloc_at] region hit, or [no_region] *)
  mutable last_other : region; (* last other region hit, or [no_region] *)
  mutable brk : int; (* next free address *)
}

let flt = '\001'

(* The empty sentinel: no address falls in it, so it is never a hit. *)
let no_region =
  { base = 0; limit = 0; loc = Srp_alias.Location.Heap (-1); words = Bytes.empty;
    tags = Bytes.empty; stack = false }

(* A region is one flat buffer; a request beyond this is refused rather
   than letting a program's malloc argument size the host's memory. *)
let max_region_bytes = 1 lsl 27

let create () =
  { bases = Array.make 16 0; regions = Array.make 16 no_region; n = 0;
    last_stack = no_region; last_other = no_region; brk = 0x1000 }

(* The error naming a refused size, rounded up to whole words where that
   does not overflow. *)
let refuse_size (size : int64) =
  let words = Int64.mul (Int64.div (Int64.add size 7L) 8L) 8L in
  Value.err "alloc: region of %Ld bytes exceeds the %d-byte limit"
    (if Int64.compare words size < 0 then size else words)
    max_region_bytes

let region_size size =
  if size > max_region_bytes then refuse_size (Int64.of_int size);
  max 8 ((size + 7) / 8 * 8)

(* The number of regions whose base is at or below [a]: the region that
   could hold [a] is the one just before that index. *)
let rank t a =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.bases mid <= a then lo := mid + 1 else hi := mid
  done;
  !lo

(* Where a region spanning [base, base + size) goes: its index in the
   table, or [-1] if it would overlap the region at or below [base] or
   reach the next one above. *)
let slot_for t ~base ~size =
  let i = rank t base in
  if i > 0 && base < t.regions.(i - 1).limit then -1
  else if i < t.n && t.bases.(i) < base + size then -1
  else i

let insert t i ~base ~size ~loc ~stack =
  if t.n = Array.length t.bases then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    t.bases <- grow t.bases 0;
    t.regions <- grow t.regions no_region
  end;
  Array.blit t.bases i t.bases (i + 1) (t.n - i);
  Array.blit t.regions i t.regions (i + 1) (t.n - i);
  let r =
    { base; limit = base + size; loc; words = Bytes.make size '\000';
      tags = Bytes.make (size / 8) '\000'; stack }
  in
  t.bases.(i) <- base;
  t.regions.(i) <- r;
  t.n <- t.n + 1;
  r

(* Allocate a fresh region.  The span must not reach a region placed
   above the break by [alloc_at]. *)
let alloc_region t ~size ~loc =
  let size = region_size size in
  let base = t.brk in
  let i = slot_for t ~base ~size in
  if i < 0 then
    Value.err "alloc: %d bytes at 0x%x would overlap another region" size base;
  let r = insert t i ~base ~size ~loc ~stack:false in
  t.brk <- base + size + 8 (* red zone *);
  r

let base r = Int64.of_int r.base
let alloc t ~size ~loc = base (alloc_region t ~size ~loc)

(* A program's [malloc]: the size is checked as the int64 the program
   passed, before it is narrowed to an [int].  Inlined, so the machine
   passes its register's int64 without boxing it. *)
let[@inline] malloc t ~nbytes ~loc =
  if Int64.compare nbytes 0L < 0 then Value.err "malloc of negative size";
  if Int64.compare nbytes (Int64.of_int max_region_bytes) > 0 then refuse_size nbytes;
  alloc t ~size:(Int64.to_int nbytes) ~loc

(* Place a region at a caller-chosen base (stack frames: a real stack
   reuses the same addresses across calls, which matters to the ALAT's
   partial-address behaviour).  The base must be 8-aligned, the span must
   fit the native-int address space, and it must be free: neither the
   region at or below [base] nor the next one above may reach into
   [base, base + size). *)
let alloc_at t ~base:base64 ~size ~loc =
  let size = region_size size in
  if Int64.rem base64 8L <> 0L then Value.err "alloc_at: unaligned base 0x%Lx" base64;
  let base = Int64.to_int base64 in
  if not (Int64.equal (Int64.of_int base) base64) || base > max_int - size then
    Value.err "alloc_at: base 0x%Lx is outside the address space" base64;
  let i = slot_for t ~base ~size in
  if i < 0 then Value.err "alloc_at: overlap at 0x%Lx" base64;
  ignore (insert t i ~base ~size ~loc ~stack:true);
  base64

(* Remove a region (function frame teardown).  Its words go with it, so a
   later frame reusing the addresses starts zeroed. *)
let free t base64 =
  let base = Int64.to_int base64 in
  let i = rank t base - 1 in
  if i < 0 || t.bases.(i) <> base || not (Int64.equal (Int64.of_int base) base64) then
    Value.err "free of unknown region at 0x%Lx" base64;
  let r = t.regions.(i) in
  if t.last_stack == r then t.last_stack <- no_region;
  if t.last_other == r then t.last_other <- no_region;
  Array.blit t.bases (i + 1) t.bases i (t.n - i - 1);
  Array.blit t.regions (i + 1) t.regions i (t.n - i - 1);
  t.n <- t.n - 1;
  t.regions.(t.n) <- no_region

(* The region [a] falls in, or [no_region]. *)
let region_of t a : region =
  let r = t.last_other in
  if a >= r.base && a < r.limit then r
  else
    let r = t.last_stack in
    if a >= r.base && a < r.limit then r
    else
      let i = rank t a - 1 in
      if i < 0 then no_region
      else
        let r = t.regions.(i) in
        if a >= r.limit then no_region
        else begin
          if r.stack then t.last_stack <- r else t.last_other <- r;
          r
        end

(* The fault of a plain access at [a], which is unaligned or in no region
   (an int64 that does not fit an int is in none). *)
let unmapped (a : int64) =
  if Int64.to_int a land 7 <> 0 then Value.err "unaligned access at 0x%Lx" a
  else Value.err "wild access at 0x%Lx" a

(* The region of an aligned, mapped access. *)
let[@inline] access t a =
  let r = region_of t a in
  if a land 7 <> 0 || r == no_region then unmapped (Int64.of_int a);
  r

(* --- native-int addresses: the machine --- *)

let mapped t a = region_of t a != no_region

let load_bits t a dst off =
  let r = access t a in
  set_int64 dst off (get_word r.words (a - r.base))

let store_bits t a src off ~float =
  let r = access t a in
  let o = a - r.base in
  set_word r.words o (get_int64 src off);
  Bytes.unsafe_set r.tags (o lsr 3) (if float then flt else '\000')

(* --- int64 addresses and values: the interpreter --- *)

(* The region [a] falls in, or [no_region]: an int64 that does not fit
   an int is in none. *)
let find t (a : int64) =
  let i = Int64.to_int a in
  if Int64.equal (Int64.of_int i) a then region_of t i else no_region

(* [r] itself when [a] falls in it, without touching the last-hit slots. *)
let find_from t r (a : int64) =
  let i = Int64.to_int a in
  if i >= r.base && i < r.limit && Int64.equal (Int64.of_int i) a then r else find t a

let found r = r != no_region

let location r =
  if r == no_region then invalid_arg "Memory.location: no region";
  r.loc

let location_of_addr t a =
  let r = find t a in
  if r == no_region then None else Some r.loc

(* The byte offset in [r] of an access at [a]; the fault of [unmapped]
   unless [a] is aligned and in [r] (never in [no_region]). *)
let[@inline] offset r (a : int64) =
  let i = Int64.to_int a in
  if i land 7 <> 0 || i < r.base || i >= r.limit then unmapped a;
  i - r.base

(* A typed load ([f64]) reinterprets a zero int cell as 0.0 so that
   zero-init behaves type-correctly. *)
let read r a ~f64 : Value.t =
  let o = offset r a in
  let bits = get_word r.words o in
  if Bytes.unsafe_get r.tags (o lsr 3) = flt then Value.Vflt (Int64.float_of_bits bits)
  else if f64 && Int64.equal bits 0L then Value.Vflt 0.0
  else Value.Vint bits

let is_f64 = function Mem_ty.F64 -> true | Mem_ty.I64 -> false
(* The int64 entry points are never inlined: a caller that computed the
   address unboxed would box it once for [find] and again for the access. *)
let load_in r a mty = read r a ~f64:(is_f64 mty)
let[@inline never] load t a = read (find t a) a ~f64:false
let[@inline never] load_typed t a mty = read (find t a) a ~f64:(is_f64 mty)

let store_in r a (v : Value.t) =
  let o = offset r a in
  match v with
  | Value.Vint bits ->
    set_word r.words o bits;
    Bytes.unsafe_set r.tags (o lsr 3) '\000'
  | Value.Vflt x ->
    set_word r.words o (Int64.bits_of_float x);
    Bytes.unsafe_set r.tags (o lsr 3) flt

let[@inline never] store t a v = store_in (find t a) a v
