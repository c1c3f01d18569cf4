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

let mk_level ~size_bytes ~ways ~line =
  let line_shift =
    int_of_float (Float.round (Float.log2 (float_of_int line)))
  in
  let n_sets = size_bytes / (line * ways) in
  { n_sets; ways; line_shift; tags = Array.make (n_sets * ways) (-1);
    lru = Array.make (n_sets * ways) 0; tick = 0 }

(* Access a level; true = hit.  Always allocates on miss. *)
let access_level l (addr : int64) : bool =
  let block = Int64.to_int (Int64.shift_right_logical addr l.line_shift) in
  let set = block mod l.n_sets in
  let base = set * l.ways in
  l.tick <- l.tick + 1;
  let hit = ref false in
  for i = base to base + l.ways - 1 do
    if l.tags.(i) = block then begin
      hit := true;
      l.lru.(i) <- l.tick
    end
  done;
  if not !hit then begin
    (* victim: LRU way *)
    let victim = ref base in
    for i = base to base + l.ways - 1 do
      if l.lru.(i) < l.lru.(!victim) then victim := i
    done;
    l.tags.(!victim) <- block;
    l.lru.(!victim) <- l.tick
  end;
  !hit

type t = { l1 : level; l2 : level }

let create () =
  { l1 = mk_level ~size_bytes:16_384 ~ways:4 ~line:64;
    l2 = mk_level ~size_bytes:262_144 ~ways:8 ~line:64 }

module Model = Srp_ir.Machine_model

(* Latency of a load; updates both levels and the counters. *)
let load_latency t (c : Counters.t) ~(fp : bool) (addr : int64) : int =
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
let store_touch t (addr : int64) : unit =
  ignore (access_level t.l1 addr);
  ignore (access_level t.l2 addr)
