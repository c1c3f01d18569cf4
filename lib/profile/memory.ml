(* Interpreter memory: word-addressed regions plus a region map that
   resolves any address back to the abstract [Location.t] it falls in.
   The region map is what makes alias *profiling* possible: every dynamic
   indirect access reports which symbol or heap object it actually touched
   (paper section 3.1).

   Representation: each region owns a flat array of its words, all
   initially the one shared zero value.  Regions live in a map keyed by
   base address; a one-entry cache of the last region hit serves the
   streaming case (an array walk touches one region for thousands of
   accesses) without a map search, and the map serves pointer chasing
   across many small regions.  Addresses are int64 at the interface and
   native ints inside; an int64 that does not fit an int is wild. *)

open Srp_ir
module IMap = Map.Make (Int)

type region = {
  base : int;
  size : int; (* bytes, a multiple of 8 *)
  loc : Srp_alias.Location.t;
  words : Value.t array; (* word i is at byte address base + 8i *)
}

type t = {
  mutable regions : region IMap.t; (* base -> region *)
  mutable last : region; (* last region hit, or [no_region] *)
  mutable brk : int; (* next free address *)
}

let zero = Value.Vint 0L

(* The empty sentinel: no address falls in it, so it is never a hit. *)
let no_region = { base = 0; size = 0; loc = Srp_alias.Location.Heap (-1); words = [||] }

(* A region is one flat array; a request beyond this is refused rather
   than letting a program's malloc argument size the host's memory. *)
let max_region_bytes = 1 lsl 27

let create () = { regions = IMap.empty; last = no_region; brk = 0x1000 }

let region_size size =
  let size = max 8 ((size + 7) / 8 * 8) in
  if size > max_region_bytes then
    Value.err "alloc: region of %d bytes exceeds the %d-byte limit" size
      max_region_bytes;
  size

let add_region t ~base ~size ~loc =
  t.regions <-
    IMap.add base { base; size; loc; words = Array.make (size / 8) zero } t.regions

(* Allocate a fresh region; returns its base address. *)
let alloc t ~size ~loc =
  let size = region_size size in
  let base = t.brk in
  t.brk <- t.brk + size + 8 (* red zone *);
  add_region t ~base ~size ~loc;
  Int64.of_int base

(* Place a region at a caller-chosen base (stack frames: a real stack
   reuses the same addresses across calls, which matters to the ALAT's
   partial-address behaviour).  The base must be 8-aligned and the span
   free: neither the region at or below [base] nor the next one above may
   reach into [base, base + size). *)
let alloc_at t ~base:base64 ~size ~loc =
  let size = region_size size in
  if Int64.rem base64 8L <> 0L then Value.err "alloc_at: unaligned base 0x%Lx" base64;
  let base = Int64.to_int base64 in
  let overlaps_below =
    match IMap.find_last_opt (fun b -> b <= base) t.regions with
    | Some (_, r) -> base < r.base + r.size
    | None -> false
  and overlaps_above =
    match IMap.find_first_opt (fun b -> b > base) t.regions with
    | Some (b, _) -> b < base + size
    | None -> false
  in
  if overlaps_below || overlaps_above then Value.err "alloc_at: overlap at 0x%Lx" base64;
  add_region t ~base ~size ~loc;
  base64

(* Remove a region (function frame teardown).  Its words go with it, so a
   later frame reusing the addresses starts zeroed. *)
let free t base64 =
  let base = Int64.to_int base64 in
  match IMap.find_opt base t.regions with
  | Some r when Int64.equal (Int64.of_int base) base64 ->
    if t.last == r then t.last <- no_region;
    t.regions <- IMap.remove base t.regions
  | Some _ | None -> Value.err "free of unknown region at 0x%Lx" base64

(* The region [addr] falls in, or [no_region]. *)
let region_of_addr t (addr : int64) : region =
  let a = Int64.to_int addr in
  if not (Int64.equal (Int64.of_int a) addr) then no_region
  else
    let r = t.last in
    if a >= r.base && a < r.base + r.size then r
    else
      match IMap.find_last (fun b -> b <= a) t.regions with
      | _, r when a < r.base + r.size ->
        t.last <- r;
        r
      | _ -> no_region
      | exception Not_found -> no_region

let location_of_addr t addr =
  let r = region_of_addr t addr in
  if r == no_region then None else Some r.loc

(* The word index of an access, after the alignment and region checks. *)
let word addr r =
  if Int64.to_int addr land 7 <> 0 then Value.err "unaligned access at 0x%Lx" addr;
  if r == no_region then Value.err "wild access at 0x%Lx" addr;
  (Int64.to_int addr - r.base) lsr 3

let load t addr : Value.t =
  let r = region_of_addr t addr in
  r.words.(word addr r)

(* Typed load: an F64 access reinterprets a zero int cell as 0.0 so that
   zero-init behaves type-correctly. *)
let load_typed t addr (mty : Mem_ty.t) : Value.t =
  match load t addr, mty with
  | Value.Vint 0L, Mem_ty.F64 -> Value.Vflt 0.0
  | v, _ -> v

let store t addr v =
  let r = region_of_addr t addr in
  r.words.(word addr r) <- v
