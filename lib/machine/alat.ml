(* The Advanced Load Address Table (paper section 2.1), modelled on the
   Itanium implementation: 32 entries, 2-way set-associative on partial
   physical address bits, tagged by the target register of the advanced
   load.

   Associativity: configurable.  The default is fully associative with
   round-robin replacement — the Itanium 2 ALAT is a 32-entry fully
   associative CAM; the original Itanium used 2 ways, which the ablation
   benches can request via [ways] to observe set-conflict evictions.

   Semantics:
   - ld.a/ld.sa allocate (or refresh) an entry for (frame, register);
   - every retired store probes the table and invalidates entries whose
     *partial* address matches — partial tags make a store occasionally
     invalidate an unrelated entry (a false collision: a spurious reload,
     never an incorrect result);
   - ld.c succeeds iff a valid entry for its register exists; on failure
     the data is reloaded (.nc re-allocates the entry, .clr does not);
   - invala.e removes the entry for one register.

   One idealization vs hardware: entries are tagged by (call-frame uid,
   register index) rather than physical register number, so register-stack
   wraparound can never cause a stale cross-frame hit.  DESIGN.md records
   this. *)

(* A tag packs (frame uid, register) into one immediate int: the frame in
   the high bits, the register in the low [reg_bits] as 2r for an integer
   register and 2r+1 for a floating-point one. *)
type tag = int

let reg_bits = 20

type entry = {
  mutable valid : bool;
  mutable tag : tag;
  mutable paddr : int;
  (* IR site id of the advanced load that armed the entry, for per-site
     event attribution (-1 when armed outside the machine, e.g. tests) *)
  mutable site : int;
}

type t = {
  entries : entry array; (* n_sets * ways *)
  n_sets : int;
  ways : int;
  mutable victim : int; (* round-robin replacement cursor *)
  paddr_bits : int;
  (* [live.(p)]: valid entries whose partial address is [p], so a store
     to an address nothing is armed at costs one array read.  Every entry
     that dies goes through [kill] and [insert] counts the one it arms,
     which keeps it exact. *)
  live : int array;
}

let create ?(size = 32) ?ways ?(paddr_bits = 12) () =
  let ways = match ways with Some w -> w | None -> size in
  if ways < 1 then invalid_arg "Alat.create: ways must be at least 1";
  if size < 1 || size mod ways <> 0 then
    invalid_arg "Alat.create: size must be a positive multiple of ways";
  if paddr_bits < 1 || paddr_bits > 16 then
    invalid_arg "Alat.create: paddr_bits must be within 1..16";
  { entries =
      Array.init size (fun _ -> { valid = false; tag = 0; paddr = 0; site = -1 });
    n_sets = size / ways; ways; victim = 0; paddr_bits;
    live = Array.make (1 lsl paddr_bits) 0 }

let make_tag ~frame reg =
  if reg < 0 || reg >= 1 lsl reg_bits then invalid_arg "Alat: register index out of range";
  (frame lsl reg_bits) lor reg

let int_tag ~frame r = make_tag ~frame (2 * r)
let fp_tag ~frame r = make_tag ~frame ((2 * r) + 1)

let partial t addr = (addr lsr 3) land ((1 lsl t.paddr_bits) - 1)

let set_of t paddr = paddr mod t.n_sets

(* The one way an entry leaves the table. *)
let kill t e =
  e.valid <- false;
  t.live.(e.paddr) <- t.live.(e.paddr) - 1

(* Remove any entry for [tag] (a register can have at most one). *)
let remove t tag =
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) in
    if e.valid && e.tag = tag then kill t e
  done

(* Allocate an entry for an advanced load.  Returns the arming site of the
   valid entry that had to be evicted for capacity, if any. *)
let insert ?(site = -1) t tag addr : int option =
  remove t tag;
  let paddr = partial t addr in
  let set = set_of t paddr in
  let base = set * t.ways in
  (* free way? *)
  let rec find_free i =
    if i >= t.ways then None
    else if not t.entries.(base + i).valid then Some (base + i)
    else find_free (i + 1)
  in
  let slot, evicted =
    match find_free 0 with
    | Some s -> s, None
    | None ->
      let s = base + (t.victim mod t.ways) in
      t.victim <- t.victim + 1;
      s, Some t.entries.(s).site
  in
  let e = t.entries.(slot) in
  if e.valid then kill t e;
  e.valid <- true;
  e.tag <- tag;
  e.paddr <- paddr;
  e.site <- site;
  t.live.(paddr) <- t.live.(paddr) + 1;
  evicted

(* Does a valid entry exist for [tag]?  [clear] removes it on a hit. *)
let check t tag ~clear : bool =
  let hit = ref false in
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) in
    if e.valid && e.tag = tag then begin
      hit := true;
      if clear then kill t e
    end
  done;
  !hit

(* A retired store: invalidate every entry whose partial address matches.
   Returns the arming sites of the entries invalidated (per-site
   attribution charges the invalidation to the load that armed the victim,
   as pfmon's event sampling would). *)
let store_probe_sites t addr : int list =
  let paddr = partial t addr in
  let victims = ref [] in
  (* scan only while matching entries remain: none, on most stores *)
  let left = ref t.live.(paddr) and i = ref 0 in
  while !left > 0 do
    let e = t.entries.(!i) in
    if e.valid && e.paddr = paddr then begin
      kill t e;
      decr left;
      victims := e.site :: !victims
    end;
    incr i
  done;
  !victims

let store_probe t addr : int = List.length (store_probe_sites t addr)

let invala_all t = Array.iter (fun e -> if e.valid then kill t e) t.entries

(* Drop every entry belonging to a returning call frame.  On real hardware
   the dying frame's stacked registers are re-allocated and any ld.a to
   the recycled register number overwrites the stale entry; purging at
   return is the frame-uid-tagged equivalent (without it, dead entries
   would squat in the table and evict live ones). *)
let purge_frame t ~frame =
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) in
    if e.valid && e.tag lsr reg_bits = frame then kill t e
  done

let occupancy t =
  Array.fold_left (fun acc e -> if e.valid then acc + 1 else acc) 0 t.entries
