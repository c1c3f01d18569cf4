(* Interpreter and simulator memory: word-addressed regions plus a region
   table that resolves any address back to the abstract [Location.t] it
   falls in.  The region table is what makes alias *profiling* possible:
   every dynamic indirect access reports which symbol or heap object it
   actually touched (paper section 3.1).

   Representation: the words live in fixed-size pages owned by [t], not
   in the regions.  A page is one [Bytes.t]: [page_words] native-endian
   int64 words, then one tag byte per word ([unmapped], [int_tag] or
   [flt]).  Words are raw bits: the machine moves them straight to and
   from its register files ([load_bits], [store_bits]), and the
   interpreter rebuilds a [Value.t] from bits and tag ([load_typed]).

   A two-level directory indexed by [a lsr page_bits] finds an address's
   page: a chunk of [chunk_pages] pages, then the page.  Pages at or above
   [directory_reach], or at a negative address, go in a small hash table.
   Where nothing is mapped the directory holds [no_page], whose tags are
   all [unmapped].  So every load, store or [mapped], the machine's and
   the interpreter's alike, is a page fetch and a tag test; red zones and
   freed spans fault with the texts of [unmapped] because their tags say
   so.  Mapping a span zeroes its words and tags them int, so a reused
   address reads zero.  A page that [free] leaves with no live region's
   word (only the freed region's neighbours in the table can share its
   pages) is dropped and kept as one of two spares, which the next new
   pages reuse.  So a frame that comes and goes, at one address or at
   fresh ones, allocates no page per call.

   No access searches the region table.  It serves what needs a
   [Location.t] ([location], for the profile) or a placement check
   ([alloc], [alloc_at], [free]).  Regions live in one array sorted by
   base, next to a parallel array of the bases, searched by bisection
   behind one last-hit slot.  In the machine, heap regions sit below every
   stack frame and a new frame just below the live ones, so inserting or
   removing a region shifts at most the live frames: the call depth.

   Addresses are native ints inside; the int64 entry points treat an
   int64 that does not fit an int as wild. *)

open Srp_ir

(* Word access inside a page, whose bounds the page layout proves; the
   caller's buffer of [load_bits]/[store_bits] is checked. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get_int64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_int64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* --- pages --- *)

(* 2 KiB pages.  A page with its tags is just over the largest minor-heap
   block, so it is allocated in the major heap once instead of being
   copied there: 1 KiB pages raised the peak heap of the array kernels'
   runs by ~0.5 MB that way.  Larger pages pin more dead addresses around
   a live region. *)
let page_bits = 11
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1
let page_words = page_bytes / 8

(* The page layout: words, then their tags from [tags_at]. *)
let tags_at = page_bytes
let page_length = page_bytes + page_words

let unmapped_tag = '\000'
let int_tag = '\001'
let flt = '\002'

(* A chunk holds [chunk_pages] pages (1 MiB of addresses); the directory
   holds at most [max_chunks] chunks (4 GiB). *)
let chunk_bits = 9
let chunk_pages = 1 lsl chunk_bits
let chunk_mask = chunk_pages - 1
let chunk_shift = page_bits + chunk_bits
let max_chunks = 1 lsl 12
let directory_reach = max_chunks lsl chunk_shift

(* The page of every unmapped address: all tags [unmapped], never written. *)
let no_page = Bytes.make page_length '\000'
let no_chunk = Array.make chunk_pages no_page

let[@inline] tag_index a = tags_at + ((a land page_mask) lsr 3)

(* --- regions --- *)

type region = {
  base : int;
  limit : int; (* base + size; size is a multiple of 8 *)
  loc : Srp_alias.Location.t;
}

type t = {
  mutable bases : int array; (* [bases.(i) = regions.(i).base], ascending *)
  mutable regions : region array;
  mutable n : int; (* live entries *)
  mutable last : region; (* last region [location] found, or [no_region] *)
  mutable brk : int; (* next free address *)
  mutable dir : Bytes.t array array; (* chunk -> its pages; [no_chunk] if none *)
  far : (int, Bytes.t) Hashtbl.t; (* page number -> page, outside the reach *)
  spares : Bytes.t array; (* dropped pages, all tags unmapped: [0, n_spares) *)
  mutable n_spares : int;
  mutable resident : int; (* pages in [dir] and [far] *)
}

(* The empty sentinel: no address falls in it, so it is never a hit. *)
let no_region = { base = 0; limit = 0; loc = Srp_alias.Location.Heap (-1) }

(* Dropped pages kept for reuse.  Frames that straddle a page boundary
   free two pages at once; with one spare, the other page would be left
   to the major heap's collector on every such call. *)
let max_spares = 2

(* A region is at most this large; a request beyond it is refused rather
   than letting a program's malloc argument size the host's memory. *)
let max_region_bytes = 1 lsl 27

let create () =
  { bases = Array.make 16 0; regions = Array.make 16 no_region; n = 0;
    last = no_region; brk = 0x1000; dir = [||];
    far = Hashtbl.create 1; spares = Array.make max_spares no_page; n_spares = 0;
    resident = 0 }

let resident_pages t = t.resident

(* The page holding [a], or [no_page]. *)
let[@inline never] far_page t a =
  match Hashtbl.find t.far (a lsr page_bits) with pg -> pg | exception Not_found -> no_page

let[@inline] page t a =
  let c = a lsr chunk_shift in
  let dir = t.dir in
  if c < Array.length dir then
    Array.unsafe_get (Array.unsafe_get dir c) ((a lsr page_bits) land chunk_mask)
  else far_page t a

(* The page holding [a], made resident if it is not. *)
let acquire t a =
  let pg = page t a in
  if pg != no_page then pg
  else begin
    let pg =
      if t.n_spares = 0 then Bytes.make page_length '\000'
      else begin
        t.n_spares <- t.n_spares - 1;
        t.spares.(t.n_spares)
      end
    in
    let c = a lsr chunk_shift in
    if c < max_chunks then begin
      let len = Array.length t.dir in
      if c >= len then begin
        let dir = Array.make (min max_chunks (max (c + 1) (2 * len))) no_chunk in
        Array.blit t.dir 0 dir 0 len;
        t.dir <- dir
      end;
      if t.dir.(c) == no_chunk then t.dir.(c) <- Array.make chunk_pages no_page;
      t.dir.(c).((a lsr page_bits) land chunk_mask) <- pg
    end
    else Hashtbl.replace t.far (a lsr page_bits) pg;
    t.resident <- t.resident + 1;
    pg
  end

(* Remove the page [pg] holding [a], whose words are all unmapped, and
   keep it as a spare if there is room. *)
let drop t a pg =
  let c = a lsr chunk_shift in
  if c < Array.length t.dir then t.dir.(c).((a lsr page_bits) land chunk_mask) <- no_page
  else Hashtbl.remove t.far (a lsr page_bits);
  t.resident <- t.resident - 1;
  if t.n_spares < max_spares then begin
    t.spares.(t.n_spares) <- pg;
    t.n_spares <- t.n_spares + 1
  end

(* Map the [n] bytes at offset [o] of a page: they read zero and are
   tagged int.  Short spans (frame slots) are set inline. *)
let map_in pg o n =
  if n <= 64 then
    for w = 0 to (n lsr 3) - 1 do
      set_word pg (o + (8 * w)) 0L;
      Bytes.unsafe_set pg (tags_at + (o lsr 3) + w) int_tag
    done
  else begin
    Bytes.fill pg o n '\000';
    Bytes.fill pg (tags_at + (o lsr 3)) (n lsr 3) int_tag
  end

(* Unmap the [n] bytes at offset [o] of a page. *)
let unmap_in pg o n =
  if n <= 64 then
    for w = 0 to (n lsr 3) - 1 do
      Bytes.unsafe_set pg (tags_at + (o lsr 3) + w) unmapped_tag
    done
  else Bytes.fill pg (tags_at + (o lsr 3)) (n lsr 3) unmapped_tag

(* The bytes of the span [a, limit) that lie in [a]'s page. *)
let[@inline] in_page a limit = min (limit - a) (page_bytes - (a land page_mask))

(* Map the span [base, limit) (8-aligned ends), page by page. *)
let map_span t base limit =
  let a = ref base in
  while !a < limit do
    let n = in_page !a limit in
    map_in (acquire t !a) (!a land page_mask) n;
    a := !a + n
  done

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

(* Does a neighbour of a region just removed from index [i] (the regions
   now at [i - 1] and [i]) touch the page that starts at [a]?  Only the
   removed region's first and last pages can be shared so. *)
let shared t i a =
  (i > 0 && t.regions.(i - 1).limit > a) || (i < t.n && t.bases.(i) - a < page_bytes)

(* Unmap the span of [r], just removed from index [i] of the table, and
   drop each of its pages no neighbour shares. *)
let unmap t r i =
  let a = ref r.base in
  while !a < r.limit do
    let n = in_page !a r.limit in
    let pg = page t !a in
    unmap_in pg (!a land page_mask) n;
    let start = !a land lnot page_mask in
    if not (shared t i start) then drop t start pg;
    a := !a + n
  done

(* Where a region spanning [base, base + size) goes: its index in the
   table, or [-1] if it would overlap the region at or below [base] or
   reach the next one above. *)
let slot_for t ~base ~size =
  let i = rank t base in
  if i > 0 && base < t.regions.(i - 1).limit then -1
  else if i < t.n && t.bases.(i) < base + size then -1
  else i

let insert t i ~base ~size ~loc =
  if t.n = Array.length t.bases then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    t.bases <- grow t.bases 0;
    t.regions <- grow t.regions no_region
  end;
  Array.blit t.bases i t.bases (i + 1) (t.n - i);
  Array.blit t.regions i t.regions (i + 1) (t.n - i);
  map_span t base (base + size);
  t.bases.(i) <- base;
  t.regions.(i) <- { base; limit = base + size; loc };
  t.n <- t.n + 1

(* Allocate a fresh region.  The span must not reach a region placed
   above the break by [alloc_at]. *)
let alloc t ~size ~loc =
  let size = region_size size in
  let base = t.brk in
  let i = slot_for t ~base ~size in
  if i < 0 then
    Value.err "alloc: %d bytes at 0x%x would overlap another region" size base;
  insert t i ~base ~size ~loc;
  t.brk <- base + size + 8 (* red zone *);
  Int64.of_int base

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
  insert t i ~base ~size ~loc;
  base64

(* Remove a region (function frame teardown).  Its words are unmapped, so
   a later region at the same addresses starts zeroed. *)
let free t base64 =
  let base = Int64.to_int base64 in
  let i = rank t base - 1 in
  if i < 0 || t.bases.(i) <> base || not (Int64.equal (Int64.of_int base) base64) then
    Value.err "free of unknown region at 0x%Lx" base64;
  let r = t.regions.(i) in
  if t.last == r then t.last <- no_region;
  Array.blit t.bases (i + 1) t.bases i (t.n - i - 1);
  Array.blit t.regions (i + 1) t.regions i (t.n - i - 1);
  t.n <- t.n - 1;
  t.regions.(t.n) <- no_region;
  unmap t r i

(* The fault of a plain access at [a], which is unaligned or in no region
   (an int64 that does not fit an int is in none). *)
let unmapped (a : int64) =
  if Int64.to_int a land 7 <> 0 then Value.err "unaligned access at 0x%Lx" a
  else Value.err "wild access at 0x%Lx" a

(* --- native-int addresses: the machine --- *)

let mapped t a = Bytes.unsafe_get (page t a) (tag_index a) <> unmapped_tag

let load_bits t a dst off =
  let pg = page t a in
  if a land 7 <> 0 || Bytes.unsafe_get pg (tag_index a) = unmapped_tag then
    unmapped (Int64.of_int a);
  set_int64 dst off (get_word pg (a land page_mask))

let store_bits t a src off ~float =
  let pg = page t a in
  let ti = tag_index a in
  if a land 7 <> 0 || Bytes.unsafe_get pg ti = unmapped_tag then unmapped (Int64.of_int a);
  set_word pg (a land page_mask) (get_int64 src off);
  Bytes.unsafe_set pg ti (if float then flt else int_tag)

(* --- int64 addresses and values: the interpreter and the profile --- *)

(* The location of the region [a] falls in.  An int64 that does not fit
   an int is in none. *)
let location t (a : int64) =
  let i = Int64.to_int a in
  if not (Int64.equal (Int64.of_int i) a) then raise Not_found;
  let r = t.last in
  if i >= r.base && i < r.limit then r.loc
  else
    let k = rank t i - 1 in
    if k < 0 then raise Not_found;
    let r = t.regions.(k) in
    if i >= r.limit then raise Not_found;
    t.last <- r;
    r.loc

(* The native address of a plain access at [a]: the fault of [unmapped]
   if it does not fit an int. *)
let[@inline] native (a : int64) =
  let i = Int64.to_int a in
  if not (Int64.equal (Int64.of_int i) a) then unmapped a;
  i

(* The page of the word at [i]; the fault of [unmapped] unless [i] is
   aligned and mapped. *)
let[@inline] word_page t i =
  let pg = page t i in
  if i land 7 <> 0 || Bytes.unsafe_get pg (tag_index i) = unmapped_tag then
    unmapped (Int64.of_int i);
  pg

(* A typed load ([F64]) reinterprets a zero int cell as 0.0 so that
   zero-init behaves type-correctly. *)
let load_typed t a mty : Value.t =
  let i = native a in
  let pg = word_page t i in
  let bits = get_word pg (i land page_mask) in
  if Bytes.unsafe_get pg (tag_index i) = flt then Value.Vflt (Int64.float_of_bits bits)
  else
    match mty with
    | Mem_ty.F64 when Int64.equal bits 0L -> Value.Vflt 0.0
    | Mem_ty.F64 | Mem_ty.I64 -> Value.Vint bits

let load t a = load_typed t a Mem_ty.I64

let store t a (v : Value.t) =
  let i = native a in
  let pg = word_page t i in
  match v with
  | Value.Vint bits ->
    set_word pg (i land page_mask) bits;
    Bytes.unsafe_set pg (tag_index i) int_tag
  | Value.Vflt x ->
    set_word pg (i land page_mask) (Int64.bits_of_float x);
    Bytes.unsafe_set pg (tag_index i) flt
