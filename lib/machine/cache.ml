(* Two-level data cache with an Itanium-like latency profile, charged
   from Srp_ir.Machine_model:
   - integer L1D hit: [lat_l1] (the number the paper quotes in section 4);
   - floating-point loads bypass L1 and are served from L2 at [lat_fp]
     (also straight from section 4: "the latency of a floating point load
     on Itanium is 9 cycles");
   - L2 hit: [lat_l2] for integer L1 misses;
   - memory: [lat_mem].
   Write-allocate, LRU within set.  Stores update both levels; store
   latency itself is hidden (store buffers), only the line-fill state
   matters. *)

type level = {
  n_sets : int;
  ways : int;
  line_shift : int;
  tags : int array; (* n_sets * ways; -1 = invalid *)
  lru : int array; (* smaller = older *)
  mutable tick : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* The set index is a mask, so the set count and the line size must be
   powers of two. *)
let level ~size_bytes ~ways ~line =
  if ways < 1 then invalid_arg "Cache.level: ways must be at least 1";
  if not (is_pow2 line) then invalid_arg "Cache.level: line must be a power of two";
  let n_sets = size_bytes / (line * ways) in
  if not (is_pow2 n_sets) || n_sets * line * ways <> size_bytes then
    invalid_arg "Cache.level: size_bytes must be line * ways * a power-of-two set count";
  let rec log2 k n = if n = 1 then k else log2 (k + 1) (n lsr 1) in
  { n_sets; ways; line_shift = log2 0 line; tags = Array.make (n_sets * ways) (-1);
    lru = Array.make (n_sets * ways) 0; tick = 0 }

(* Access a level; true = hit.  Always allocates on miss.  A block sits
   in at most one way of its set, so the search stops at the first match.
   The set's ways are [base, last], inside [tags] and [lru] because
   [level] made both [n_sets * ways] long, so they are read unchecked. *)
let access_level l addr : bool =
  let block = addr lsr l.line_shift in
  let base = (block land (l.n_sets - 1)) * l.ways in
  let last = base + l.ways - 1 in
  let tags = l.tags and lru = l.lru in
  l.tick <- l.tick + 1;
  let i = ref base in
  while !i <= last && Array.unsafe_get tags !i <> block do
    incr i
  done;
  if !i <= last then begin
    Array.unsafe_set lru !i l.tick;
    true
  end
  else begin
    (* victim: LRU way *)
    let victim = ref base and oldest = ref (Array.unsafe_get lru base) in
    for i = base + 1 to last do
      let age = Array.unsafe_get lru i in
      if age < !oldest then begin
        victim := i;
        oldest := age
      end
    done;
    Array.unsafe_set tags !victim block;
    Array.unsafe_set lru !victim l.tick;
    false
  end

type t = { l1 : level; l2 : level }

let create () =
  { l1 = level ~size_bytes:16_384 ~ways:4 ~line:64;
    l2 = level ~size_bytes:262_144 ~ways:8 ~line:64 }

module Model = Srp_ir.Machine_model

(* Latency of a load; updates both levels and the counters. *)
let load_latency t (c : Counters.t) ~(fp : bool) addr : int =
  let l1_hit = access_level t.l1 addr in
  if l1_hit && not fp then begin
    c.Counters.l1_hits <- c.Counters.l1_hits + 1;
    Model.lat_l1
  end
  else begin
    if not l1_hit then c.Counters.l1_misses <- c.Counters.l1_misses + 1
    else c.Counters.l1_hits <- c.Counters.l1_hits + 1;
    let l2_hit = access_level t.l2 addr in
    if l2_hit then if fp then Model.lat_fp else Model.lat_l2
    else begin
      c.Counters.l2_misses <- c.Counters.l2_misses + 1;
      Model.lat_mem
    end
  end

(* Stores refresh the line state; their latency is hidden. *)
let store_touch t addr : unit =
  ignore (access_level t.l1 addr);
  ignore (access_level t.l2 addr)
