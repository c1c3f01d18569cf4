(* Hole-aware linear-scan register allocation with live-range splitting.

   Instruction selection emits code over an unbounded virtual register file
   (integer and float classes are independent; integer vreg 0 is the stack
   pointer and is pre-colored to physical r0).  The allocator:

   1. computes instruction-level liveness with an iterative backward
      dataflow over the indexed-code CFG (fall-through, branch targets and
      the chk.a recovery edge);
   2. keeps the per-instruction bitsets and represents every virtual
      register as an ordered list of disjoint *subranges* (maximal runs of
      program points where the value is live-in or being defined) — the
      gaps between them are Poletto & Sarkar's lifetime holes;
   3. partitions each plain vreg's subranges into *webs*: connected
      components under the CFG edges that carry the value.  Distinct webs
      exchange no dataflow, so they are independent allocation entities
      and may land in different physical registers with zero copies (a
      free split);
   4. runs a hole-aware first-fit scan: a physical register holds any set
      of entities whose subranges do not overlap, so two vregs share a
      register whenever their subranges interleave;
   5. under register-cap pressure it splits the overflowing entity at its
      hole boundaries: the value gets a frame slot, every def is followed
      by a store to the slot, and each subrange individually gets a
      second chance at the remaining holes (with a reload at its head
      when the value flows in) — subranges that fit nowhere stay
      memory-resident and are accessed through reserved scratch
      registers.  Spill slots are colored like registers, so
      non-overlapping spilled ranges share one slot.

   Soundness of hole packing: a subrange covers every pc where the value
   is live-in or defined, so on any *executed* path from a def of v to a
   use of v the register holds v at every step — a second entity placed
   in a linear-order hole is never live (and so never written) on such a
   path.  Subrange heads that are live-in (value arriving over a branch
   edge) are only reachable from pcs inside the same web, because a
   fall-through predecessor with the value live-out would itself be busy
   and hence merge into the same subrange.

   [pinned] registers are the ALAT-involved temps: the ALAT tags entries
   by (frame, physical register), so the register that armed an entry
   (ld.a / ld.sa) must be the one the check consults.  Pinned vregs are
   live from the arming load to their last check/invalidate — not the
   whole function, as the seed allocator modeled them ([pin_whole]
   restores that for comparison).  They are never split or spilled.  Two
   pinned vregs may share a physical register when their subranges are
   disjoint: while a check of temp T is still pending, the check's tag
   use keeps T live — hence busy — at every intervening pc, so the
   overlap test already forbids any other temp from arming (and thus
   re-tagging) the shared register before T's check retires; sequential
   arm/check/arm reuse of one tag is exactly how ALAT entries recycle.
   Plain values may likewise live in a pinned register's holes — register
   writes never touch the ALAT, and no check of the pinned temp is live
   across the hole. *)

type input = {
  code : Insn.insn array;
  nivregs : int; (* integer virtual registers; vreg 0 is sp *)
  nfvregs : int;
  live_in : int list; (* integer vregs live at entry (incoming formals) *)
  flive_in : int list;
  pinned : int list; (* integer vregs needing ALAT tag stability *)
  fpinned : int list;
  spill_base : int; (* frame offset where spill slots may be placed *)
}

type mode =
  | Closed (* one conservative interval per vreg, no splitting *)
  | Holes (* subranges + webs + second-chance splitting *)

type policy = {
  mode : mode;
  cap_int : int; (* allocatable int registers, sp included (Holes mode) *)
  cap_fp : int;
  pin_whole : bool; (* seed modeling: pinned live for the whole function *)
}

(* 96 stacked integer registers is the IA-64 frame ceiling; the float cap
   mirrors it.  Pinned and entry-live values may exceed the cap (they can
   never be spilled), as do the reserved spill scratch registers. *)
let default_policy =
  { mode = Holes; cap_int = 96; cap_fp = 96; pin_whole = false }

(* The no-split ablation reproduces the seed allocator exactly: one
   conservative closed interval per vreg AND whole-function pinned ranges,
   so A/B runs measure the full upgrade, not half of it. *)
let closed_policy = { default_policy with mode = Closed; pin_whole = true }

type ra_stats = {
  subranges : int; (* live subranges across both classes *)
  webs : int; (* allocation entities (webs + pinned ranges) *)
  splits_inserted : int; (* zero-copy web splits + spill-time splits *)
  spilled_webs : int;
  spill_slots : int;
  reloads : int; (* reload instructions inserted *)
  spill_stores : int; (* store instructions inserted *)
  remat_webs : int; (* entities recomputed at use instead of residing *)
  remat_uses : int; (* rematerialization instructions inserted *)
}

type result = {
  code : Insn.insn array;
  nregs : int; (* physical integer registers, sp + scratch included *)
  nfregs : int;
  imap : int array; (* int vreg -> entry-point physical register, -1 *)
  fmap : int array;
  new_index : int array; (* old pc -> new pc (length n+1; last = length) *)
  spill_bytes : int; (* frame bytes added for spill slots *)
  stats : ra_stats;
  iassign : (int * int * int) list array; (* per vreg: (lo, hi, phys|-1) *)
  fassign : (int * int * int) list array;
}

(* --- uses / defs --- *)

(* Returns (int uses, float uses, int defs, float defs).  A check load's
   destination counts as a use as well as a def: on a hit the register must
   still hold the armed value, so the value is semantically consumed.  The
   chk.a tag and invala.e tag are pure uses. *)
let uses_defs (ins : Insn.insn) : int list * int list * int list * int list =
  let iu = ref [] and fu = ref [] and idf = ref [] and fdf = ref [] in
  let u = function
    | Insn.SReg r -> iu := r :: !iu
    | Insn.SFrg f -> fu := f :: !fu
    | Insn.SImm _ | Insn.SFim _ -> ()
  in
  let def_dest = function
    | Insn.DInt r -> idf := r :: !idf
    | Insn.DFlt f -> fdf := f :: !fdf
  in
  let use_dest = function
    | Insn.DInt r -> iu := r :: !iu
    | Insn.DFlt f -> fu := f :: !fu
  in
  (match ins with
  | Insn.Movl { dst; _ } | Insn.Gaddr { dst; _ } -> idf := [ dst ]
  | Insn.Mov { dst; src } ->
    u src;
    def_dest dst
  | Insn.Alu { dst; a; b; _ } | Insn.Fcmp { dst; a; b; _ } ->
    u a;
    u b;
    idf := [ dst ]
  | Insn.Falu { dst; a; b; _ } ->
    u a;
    u b;
    fdf := [ dst ]
  | Insn.Itof { dst; src } ->
    u src;
    fdf := [ dst ]
  | Insn.Ftoi { dst; src } ->
    u src;
    idf := [ dst ]
  | Insn.Ld { kind; dst; base; _ } ->
    iu := base :: !iu;
    (match kind with Insn.K_ld_c _ -> use_dest dst | _ -> ());
    def_dest dst
  | Insn.St { src; base; _ } ->
    u src;
    iu := base :: !iu
  | Insn.Chk_a { tag; _ } -> use_dest tag
  | Insn.Invala_e { tag } -> use_dest tag
  | Insn.Sel { dst; cond; if_true; if_false } ->
    iu := cond :: !iu;
    u if_true;
    u if_false;
    def_dest dst
  | Insn.Br _ -> ()
  | Insn.Brc { cond; _ } -> iu := [ cond ]
  | Insn.Call { args; ret; _ } ->
    List.iter u args;
    Option.iter def_dest ret
  | Insn.Ret { value } -> Option.iter u value
  | Insn.Alloc { dst; nbytes; _ } ->
    u nbytes;
    idf := [ dst ]
  | Insn.Print { what; _ } -> u what
  | Insn.Nop -> ());
  (!iu, !fu, !idf, !fdf)

let successors (code : Insn.insn array) pc : int list =
  match code.(pc) with
  | Insn.Br { target } -> [ target ]
  | Insn.Brc { cond = _; ifso; ifnot; site = _ } -> [ ifso; ifnot ]
  | Insn.Ret _ -> []
  | Insn.Chk_a { recovery; _ } -> [ pc + 1; recovery ]
  | _ -> if pc + 1 < Array.length code then [ pc + 1 ] else []

(* --- liveness --- *)

let bit row v = row.(v / 63) land (1 lsl (v mod 63)) <> 0
let setbit row v = row.(v / 63) <- row.(v / 63) lor (1 lsl (v mod 63))

(* Per-pc live-in bitsets over the combined vreg index space (float vregs
   offset by nivregs), plus the per-pc use/def lists. *)
let compute_liveness (inp : input) :
    int array array * int list array * int list array * int =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let nv = ni + inp.nfvregs in
  let words = max ((nv + 62) / 63) 1 in
  let uses = Array.make (max n 1) [] and defs = Array.make (max n 1) [] in
  for pc = 0 to n - 1 do
    let iu, fu, idf, fdf = uses_defs inp.code.(pc) in
    uses.(pc) <- iu @ List.map (fun f -> ni + f) fu;
    defs.(pc) <- idf @ List.map (fun f -> ni + f) fdf
  done;
  let live = Array.init (max n 1) (fun _ -> Array.make words 0) in
  let succs =
    Array.init (max n 1) (fun pc ->
        if pc < n then successors inp.code pc else [])
  in
  let tmp = Array.make words 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      Array.fill tmp 0 words 0;
      List.iter
        (fun s ->
          if s >= 0 && s < n then
            let row = live.(s) in
            for w = 0 to words - 1 do
              tmp.(w) <- tmp.(w) lor row.(w)
            done)
        succs.(pc);
      List.iter
        (fun v -> tmp.(v / 63) <- tmp.(v / 63) land lnot (1 lsl (v mod 63)))
        defs.(pc);
      List.iter (fun v -> setbit tmp v) uses.(pc);
      let row = live.(pc) in
      let diff = ref false in
      for w = 0 to words - 1 do
        if tmp.(w) <> row.(w) then diff := true
      done;
      if !diff then begin
        Array.blit tmp 0 row 0 words;
        changed := true
      end
    done
  done;
  (live, uses, defs, words)

(* [busy]: live-in plus the defs of the instruction itself — the program
   points where the vreg occupies its register.  Entry-live vregs (formals)
   are busy at 0: the argument arrival is their def. *)
let busy_rows (inp : input) live uses defs words =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let nv = ni + inp.nfvregs in
  let busy =
    Array.init (max n 1) (fun pc ->
        if pc < Array.length live then Array.copy live.(pc)
        else Array.make words 0)
  in
  for pc = 0 to n - 1 do
    List.iter (fun v -> setbit busy.(pc) v) defs.(pc)
  done;
  let appears = Array.make (max nv 1) false in
  Array.iter (List.iter (fun v -> appears.(v) <- true)) uses;
  Array.iter (List.iter (fun v -> appears.(v) <- true)) defs;
  if n > 0 then begin
    List.iter (fun v -> if appears.(v) then setbit busy.(0) v) inp.live_in;
    List.iter
      (fun f -> if appears.(ni + f) then setbit busy.(0) (ni + f))
      inp.flive_in
  end;
  busy

(* Maximal runs of busy program points, per combined vreg, ascending. *)
let subranges_of busy n nv : (int * int) list array =
  let subs = Array.make (max nv 1) [] in
  for pc = 0 to n - 1 do
    let row = busy.(pc) in
    Array.iteri
      (fun w word ->
        if word <> 0 then
          for b = 0 to 62 do
            if word land (1 lsl b) <> 0 then begin
              let v = (w * 63) + b in
              if v < nv then
                match subs.(v) with
                | (lo, hi) :: rest when hi = pc - 1 -> subs.(v) <- (lo, pc) :: rest
                | l -> subs.(v) <- (pc, pc) :: l
            end
          done)
      row
  done;
  Array.map List.rev subs

(* Busy-at-pc boolean matrices (int, float) — ground truth for the
   interference property tests, straight from the liveness bitsets. *)
let live_matrix (inp : input) : bool array array * bool array array =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let live, uses, defs, words = compute_liveness inp in
  let busy = busy_rows inp live uses defs words in
  ( Array.init (max n 1) (fun pc -> Array.init (max ni 1) (fun v -> v < ni && bit busy.(pc) v)),
    Array.init (max n 1) (fun pc ->
        Array.init (max inp.nfvregs 1) (fun f -> f < inp.nfvregs && bit busy.(pc) (ni + f))) )

(* One conservative closed range [lo, hi] per virtual register, or None for
   a register that never appears (the Closed-mode view; pinned vregs are
   narrowed to their real extent, not widened). *)
let ranges (inp : input) : (int * int) option array * (int * int) option array
    =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let nv = ni + inp.nfvregs in
  let live, uses, defs, words = compute_liveness inp in
  let busy = busy_rows inp live uses defs words in
  let subs = subranges_of busy n nv in
  let condense v =
    match subs.(v) with
    | [] -> None
    | (lo, _) :: _ as l ->
      let hi = List.fold_left (fun a (_, h) -> max a h) lo l in
      Some (lo, hi)
  in
  ( Array.init (max ni 1) (fun v -> if v < ni then condense v else None),
    Array.init (max inp.nfvregs 1) (fun f ->
        if f < inp.nfvregs then condense (ni + f) else None) )

(* --- allocation entities --- *)

type piece = {
  p_lo : int;
  p_hi : int;
  mutable p_reg : int; (* physical register; -1 = memory-resident *)
}

type entity = {
  e_vreg : int; (* combined index *)
  e_pieces : piece list; (* ascending, disjoint *)
  e_pinned : bool;
  e_nospill : bool; (* pinned and entry-live values never spill *)
  mutable e_remat : Insn.insn option;
      (* single pure def (sp+imm, global address, constant): instead of
         opening a register, recompute into a scratch at each use *)
  mutable e_spilled : bool;
  mutable e_slot : int;
}

let build_entities (inp : input) ~(policy : policy) live subs : entity list =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let nv = ni + inp.nfvregs in
  let pinned = Array.make (max nv 1) false in
  List.iter (fun v -> pinned.(v) <- true) inp.pinned;
  List.iter (fun f -> pinned.(ni + f) <- true) inp.fpinned;
  let entry = Array.make (max nv 1) false in
  List.iter (fun v -> entry.(v) <- true) inp.live_in;
  List.iter (fun f -> entry.(ni + f) <- true) inp.flive_in;
  let subs =
    if not policy.pin_whole then subs
    else
      Array.mapi
        (fun v l -> if pinned.(v) && l <> [] && n > 0 then [ (0, n - 1) ] else l)
        subs
  in
  let subs =
    match policy.mode with
    | Holes -> subs
    | Closed ->
      Array.map
        (function
          | [] -> []
          | (lo, _) :: _ as l ->
            let hi = List.fold_left (fun a (_, h) -> max a h) lo l in
            [ (lo, hi) ])
        subs
  in
  let parr = Array.map Array.of_list subs in
  (* webs: union-find over (vreg, subrange) pairs, connected by CFG edges
     that carry the value across a linear-order discontinuity *)
  let base = Array.make (nv + 1) 0 in
  for v = 0 to nv - 1 do
    base.(v + 1) <- base.(v) + Array.length parr.(v)
  done;
  let uf = Array.init (max base.(nv) 1) (fun i -> i) in
  let rec find i = if uf.(i) = i then i else begin
      let r = find uf.(i) in
      uf.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then uf.(max ra rb) <- min ra rb
  in
  let piece_idx v pc =
    let a = parr.(v) in
    let rec go lo hi =
      if lo > hi then -1
      else
        let m = (lo + hi) / 2 in
        let l, h = a.(m) in
        if pc < l then go lo (m - 1)
        else if pc > h then go (m + 1) hi
        else m
    in
    go 0 (Array.length a - 1)
  in
  (match policy.mode with
  | Closed -> ()
  | Holes ->
    for pc = 0 to n - 1 do
      List.iter
        (fun s ->
          (* fall-through edges stay inside one subrange by construction *)
          if s >= 0 && s < n && s <> pc + 1 then
            Array.iteri
              (fun w word ->
                if word <> 0 then
                  for b = 0 to 62 do
                    if word land (1 lsl b) <> 0 then begin
                      let v = (w * 63) + b in
                      if v < nv && v <> 0 && not pinned.(v) then begin
                        let a = piece_idx v pc and c = piece_idx v s in
                        if a >= 0 && c >= 0 then
                          union (base.(v) + a) (base.(v) + c)
                      end
                    end
                  done)
              live.(s))
        (successors inp.code pc)
    done);
  let ents = ref [] in
  for v = nv - 1 downto 0 do
    let ps = parr.(v) in
    if Array.length ps > 0 && not (v = 0 && ni > 0) then
      if pinned.(v) || policy.mode = Closed then
        ents :=
          { e_vreg = v;
            e_pieces =
              Array.to_list
                (Array.map (fun (l, h) -> { p_lo = l; p_hi = h; p_reg = -1 }) ps);
            e_pinned = pinned.(v);
            e_nospill = pinned.(v) || entry.(v);
            e_remat = None;
            e_spilled = false;
            e_slot = -1 }
          :: !ents
      else begin
        let tbl = Hashtbl.create 8 in
        Array.iteri
          (fun i (l, h) ->
            let r = find (base.(v) + i) in
            let cur = Option.value (Hashtbl.find_opt tbl r) ~default:[] in
            Hashtbl.replace tbl r ({ p_lo = l; p_hi = h; p_reg = -1 } :: cur))
          ps;
        let groups = Hashtbl.fold (fun _ l acc -> List.rev l :: acc) tbl [] in
        let groups =
          List.sort
            (fun a b -> compare (List.hd a).p_lo (List.hd b).p_lo)
            groups
        in
        List.iter
          (fun pieces ->
            ents :=
              { e_vreg = v; e_pieces = pieces; e_pinned = false;
                e_nospill = entry.(v); e_remat = None; e_spilled = false;
                e_slot = -1 }
              :: !ents)
          (List.rev groups)
      end
  done;
  List.sort
    (fun a b ->
      let la = (List.hd a.e_pieces).p_lo and lb = (List.hd b.e_pieces).p_lo in
      if la <> lb then compare la lb else compare a.e_vreg b.e_vreg)
    !ents

(* --- hole-aware first-fit scan --- *)

let rec overlaps a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | (al, ah) :: at, (bl, bh) :: bt ->
    if ah < bl then overlaps at b
    else if bh < al then overlaps a bt
    else true

let rec merge_occ a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((al, _) as x) :: at, ((bl, _) as y) :: bt ->
    if al <= bl then x :: merge_occ at b else y :: merge_occ a bt

(* Allocate one class.  [reserve0] pre-colors vreg 0 onto physical 0 and
   keeps that register out of the pool (the stack pointer).  Returns the
   used register count and the spilled entities in allocation order.
   Pinned and entry-live entities may open registers beyond the cap; when
   [allow_spill] is false (Closed mode) everything may.

   [remat_limit] sizes the file by the values that must live in
   registers: once that many are open, a rematerializable entity that
   fits no hole is recomputed at each use instead of opening another
   register — demand reduction with zero memory traffic. *)
let allocate_class ~reserve0 ~cap ~allow_spill ~remat_limit
    (ents : entity list) : int * entity list =
  let max_regs = cap + List.length ents + 2 in
  let occ = Array.make max_regs [] in
  let count = ref (if reserve0 then 1 else 0) in
  let first = if reserve0 then 1 else 0 in
  let spilled = ref [] in
  let spans e = List.map (fun p -> (p.p_lo, p.p_hi)) e.e_pieces in
  let assign e r =
    e.e_remat <- None;
    List.iter (fun p -> p.p_reg <- r) e.e_pieces;
    occ.(r) <- merge_occ (spans e) occ.(r)
  in
  List.iter
    (fun e ->
      let ps = spans e in
      let rec try_fit r =
        if r >= !count then None
        else if overlaps ps occ.(r) then try_fit (r + 1)
        else Some r
      in
      match try_fit first with
      | Some r -> assign e r
      | None ->
        if e.e_remat <> None && allow_spill && !count >= remat_limit then
          (* every piece stays register-free; uses recompute the value *)
          List.iter (fun p -> p.p_reg <- -1) e.e_pieces
        else if !count < cap || (not allow_spill) || e.e_nospill then begin
          let r = !count in
          incr count;
          assign e r
        end
        else begin
          (* split at hole boundaries: the value gets a frame slot and each
             subrange gets a second chance at the remaining holes *)
          e.e_spilled <- true;
          spilled := e :: !spilled;
          List.iter
            (fun p ->
              let rec try2 r =
                if r >= !count then None
                else if overlaps [ (p.p_lo, p.p_hi) ] occ.(r) then try2 (r + 1)
                else Some r
              in
              match try2 first with
              | Some r ->
                p.p_reg <- r;
                occ.(r) <- merge_occ [ (p.p_lo, p.p_hi) ] occ.(r)
              | None -> p.p_reg <- -1)
            e.e_pieces
        end)
    ents;
  (!count, List.rev !spilled)

(* First-fit slot coloring over the condensed spans of spilled entities:
   non-overlapping spilled ranges share one frame slot. *)
let color_slots (spilled : entity list) : int =
  let n = List.length spilled in
  let occ = Array.make (max n 1) [] in
  let used = ref 0 in
  List.iter
    (fun e ->
      let lo = (List.hd e.e_pieces).p_lo in
      let hi = List.fold_left (fun a p -> max a p.p_hi) lo e.e_pieces in
      let rec go s =
        if s < !used && overlaps [ (lo, hi) ] occ.(s) then go (s + 1) else s
      in
      let s = go 0 in
      if s >= !used then used := s + 1;
      e.e_slot <- s;
      occ.(s) <- merge_occ [ (lo, hi) ] occ.(s))
    spilled;
  !used

(* --- rewrite --- *)

(* Spill traffic carries the synthetic site -1, like codegen's own formal
   spills: per-site attribution sums stay equal to the global counters. *)
let spill_site = -1

(* remat candidacy: a plain entity whose only def recomputes a value
   that is constant within the function (frame address, global address,
   immediate) — safe to re-emit at any later pc *)
let mark_remat (inp : input) (defs : int list array) (ents : entity list) :
    unit =
  let ni = inp.nivregs in
  List.iter
    (fun e ->
      if (not e.e_nospill) && e.e_vreg < ni then begin
        let v = e.e_vreg in
        let dpcs =
          List.concat_map
            (fun p ->
              let l = ref [] in
              for pc = p.p_lo to p.p_hi do
                if List.mem v defs.(pc) then l := pc :: !l
              done;
              !l)
            e.e_pieces
        in
        match dpcs with
        | [ d ] -> (
          match inp.code.(d) with
          | Insn.Alu { op = Insn.Aadd; dst; a = Insn.SReg 0; b = Insn.SImm _ }
            when dst = v ->
            e.e_remat <- Some inp.code.(d)
          | Insn.Gaddr { dst; _ } when dst = v -> e.e_remat <- Some inp.code.(d)
          | Insn.Movl { dst; _ } when dst = v -> e.e_remat <- Some inp.code.(d)
          | _ -> ())
        | _ -> ()
      end)
    ents

(* the must-reside peak: pressure from entities that cannot remat.
   The file is sized by this; remat candidates above it recompute. *)
let peak_of ~n (ents0 : entity list) : int =
  let peak = ref 0 in
  for pc = 0 to n - 1 do
    let c = ref 0 in
    List.iter
      (fun e ->
        if
          e.e_remat = None
          && List.exists (fun p -> p.p_lo <= pc && pc <= p.p_hi) e.e_pieces
        then incr c)
      ents0;
    if !c > !peak then peak := !c
  done;
  !peak

let run ?(policy = default_policy) (inp : input) : result =
  let n = Array.length inp.code in
  let ni = inp.nivregs in
  let nf = inp.nfvregs in
  let nv = ni + nf in
  let live, uses, defs, words = compute_liveness inp in
  let busy = busy_rows inp live uses defs words in
  let subs = subranges_of busy n nv in
  let ents = build_entities inp ~policy live subs in
  let ients = List.filter (fun e -> e.e_vreg < ni) ents in
  let fents = List.filter (fun e -> e.e_vreg >= ni) ents in
  let allow_spill = policy.mode = Holes in
  if allow_spill then mark_remat inp defs ents;
  let ipeak = 1 + peak_of ~n ients (* + the reserved stack pointer *) in
  let fpeak = peak_of ~n fents in
  let icount, ispilled =
    allocate_class ~reserve0:true ~cap:(max policy.cap_int 1) ~allow_spill
      ~remat_limit:(min (max policy.cap_int 1) ipeak)
      ients
  in
  let fcount, fspilled =
    allocate_class ~reserve0:false ~cap:(max policy.cap_fp 0) ~allow_spill
      ~remat_limit:(min (max policy.cap_fp 0) fpeak)
      fents
  in
  let spilled = ispilled @ fspilled in
  let nslots = color_slots spilled in
  let slot_off e = inp.spill_base + (8 * e.e_slot) in
  (* per-vreg location lists, ascending by lo *)
  let vloc : (piece * int * Insn.insn option) list array =
    Array.make (max nv 1) []
  in
  List.iter
    (fun e ->
      let off = if e.e_spilled then slot_off e else -1 in
      List.iter
        (fun p -> vloc.(e.e_vreg) <- (p, off, e.e_remat) :: vloc.(e.e_vreg))
        e.e_pieces)
    ents;
  Array.iteri
    (fun v l ->
      vloc.(v) <-
        List.sort (fun (a, _, _) (b, _, _) -> compare a.p_lo b.p_lo) l)
    vloc;
  if ni > 0 then
    vloc.(0) <- [ ({ p_lo = 0; p_hi = max (n - 1) 0; p_reg = 0 }, -1, None) ];
  let loc_at v pc =
    match
      List.find_opt (fun (p, _, _) -> p.p_lo <= pc && pc <= p.p_hi) vloc.(v)
    with
    | Some x -> x
    | None -> Fmt.invalid_arg "Regalloc: vreg %d has no location at pc %d" v pc
  in
  let preg_at v pc =
    let p, _, _ = loc_at v pc in
    p.p_reg
  in
  (* Reloads re-establishing a register-resident piece of a spilled value.
     The slot is current everywhere (every def writes through), so a reload
     is needed exactly where control can enter the piece with the value
     live but not yet in the piece's register: the piece head, and any
     branch target inside the piece — a jump there may come from a region
     where the value sat in memory or in another piece's register. *)
  let jump_target = Array.make (max n 1) false in
  Array.iter
    (fun ins ->
      List.iter
        (fun t -> if t >= 0 && t < n then jump_target.(t) <- true)
        (match ins with
        | Insn.Br { target } -> [ target ]
        | Insn.Brc { ifso; ifnot; _ } -> [ ifso; ifnot ]
        | Insn.Chk_a { recovery; _ } -> [ recovery ]
        | _ -> []))
    inp.code;
  let head_reloads = Array.make (max n 1) [] in
  List.iter
    (fun e ->
      if e.e_spilled then
        List.iter
          (fun p ->
            if p.p_reg >= 0 then
              for pc = p.p_lo to p.p_hi do
                if
                  (pc = p.p_lo || jump_target.(pc))
                  && bit live.(pc) e.e_vreg
                then
                  head_reloads.(pc) <-
                    head_reloads.(pc) @ [ (e.e_vreg, p.p_reg, slot_off e) ]
              done)
          e.e_pieces)
    ents;
  (* scratch planning: memory-resident operands borrow reserved registers
     past the allocated file; one extra int register carries slot
     addresses *)
  let max_iscr = ref 0 and max_fscr = ref 0 in
  let any_remat = List.exists (fun e -> e.e_remat <> None) ents in
  if nslots > 0 || any_remat then
    for pc = 0 to n - 1 do
      let iu, fu, idf, fdf = uses_defs inp.code.(pc) in
      let mem v = preg_at v pc < 0 in
      let miu = List.filter mem (List.sort_uniq compare iu) in
      let mfu =
        List.filter (fun f -> mem (ni + f)) (List.sort_uniq compare fu)
      in
      let mid = List.exists mem idf in
      let mfd = List.exists (fun f -> mem (ni + f)) fdf in
      max_iscr :=
        max !max_iscr (List.length miu + (if mid then 1 else 0));
      max_fscr := max !max_fscr (List.length mfu + (if mfd then 1 else 0))
    done;
  let any_spill = nslots > 0 in
  let iscr_base = icount and fscr_base = fcount in
  let addr_reg = icount + !max_iscr in
  let nregs =
    max (icount + !max_iscr + (if any_spill then 1 else 0)) 1
  in
  let nfregs = fcount + !max_fscr in
  (* emission *)
  let out = ref [] in
  let out_len = ref 0 in
  let push i =
    out := i :: !out;
    incr out_len
  in
  let new_index = Array.make (n + 1) 0 in
  let stats_reloads = ref 0 and stats_stores = ref 0 in
  let stats_remats = ref 0 in
  let addr_insn off =
    Insn.Alu
      { op = Insn.Aadd; dst = addr_reg; a = Insn.SReg Insn.sp;
        b = Insn.SImm (Int64.of_int off) }
  in
  (* re-emit a rematerializable def with the scratch as its target *)
  let remat_to r = function
    | Insn.Alu a -> Insn.Alu { a with dst = r }
    | Insn.Gaddr g -> Insn.Gaddr { g with dst = r }
    | Insn.Movl m -> Insn.Movl { m with dst = r }
    | _ -> assert false
  in
  for pc = 0 to n - 1 do
    new_index.(pc) <- !out_len;
    List.iter
      (fun (v, r, off) ->
        push (addr_insn off);
        push
          (Insn.Ld
             { kind = Insn.K_ld;
               dst = (if v < ni then Insn.DInt r else Insn.DFlt r);
               base = addr_reg; site = spill_site });
        incr stats_reloads)
      head_reloads.(pc);
    let iu, fu, _, _ = uses_defs inp.code.(pc) in
    let iscr = Hashtbl.create 4 and fscr = Hashtbl.create 4 in
    let niscr = ref 0 and nfscr = ref 0 in
    List.iter
      (fun v ->
        let p, off, rm = loc_at v pc in
        if p.p_reg < 0 && not (Hashtbl.mem iscr v) then begin
          let r = iscr_base + !niscr in
          incr niscr;
          Hashtbl.replace iscr v r;
          (match rm with
          | Some ins ->
            push (remat_to r ins);
            incr stats_remats
          | None ->
            push (addr_insn off);
            push
              (Insn.Ld
                 { kind = Insn.K_ld; dst = Insn.DInt r; base = addr_reg;
                   site = spill_site });
            incr stats_reloads)
        end)
      (List.sort_uniq compare iu);
    List.iter
      (fun f ->
        let p, off, _ = loc_at (ni + f) pc in
        if p.p_reg < 0 && not (Hashtbl.mem fscr f) then begin
          let r = fscr_base + !nfscr in
          incr nfscr;
          Hashtbl.replace fscr f r;
          push (addr_insn off);
          push
            (Insn.Ld
               { kind = Insn.K_ld; dst = Insn.DFlt r; base = addr_reg;
                 site = spill_site });
          incr stats_reloads
        end)
      (List.sort_uniq compare fu);
    let iuse v =
      match Hashtbl.find_opt iscr v with
      | Some r -> r
      | None -> preg_at v pc
    in
    let fuse f =
      match Hashtbl.find_opt fscr f with
      | Some r -> r
      | None -> preg_at (ni + f) pc
    in
    let after = ref [] in
    let idef v =
      let p, off, _ = loc_at v pc in
      let r = if p.p_reg >= 0 then p.p_reg else iscr_base + !niscr in
      if off >= 0 then begin
        after :=
          !after
          @ [ addr_insn off;
              Insn.St { src = Insn.SReg r; base = addr_reg; site = spill_site }
            ];
        incr stats_stores
      end;
      r
    in
    let fdef f =
      let p, off, _ = loc_at (ni + f) pc in
      let r = if p.p_reg >= 0 then p.p_reg else fscr_base + !nfscr in
      if off >= 0 then begin
        after :=
          !after
          @ [ addr_insn off;
              Insn.St { src = Insn.SFrg r; base = addr_reg; site = spill_site }
            ];
        incr stats_stores
      end;
      r
    in
    let s = function
      | Insn.SReg r -> Insn.SReg (iuse r)
      | Insn.SFrg f -> Insn.SFrg (fuse f)
      | (Insn.SImm _ | Insn.SFim _) as x -> x
    in
    let d = function
      | Insn.DInt r -> Insn.DInt (idef r)
      | Insn.DFlt f -> Insn.DFlt (fdef f)
    in
    let d_use = function
      | Insn.DInt r -> Insn.DInt (iuse r)
      | Insn.DFlt f -> Insn.DFlt (fuse f)
    in
    let ins' =
      match inp.code.(pc) with
      | Insn.Movl { dst; imm } -> Insn.Movl { dst = idef dst; imm }
      | Insn.Gaddr { dst; sym } -> Insn.Gaddr { dst = idef dst; sym }
      | Insn.Mov { dst; src } -> Insn.Mov { dst = d dst; src = s src }
      | Insn.Alu { op; dst; a; b } ->
        Insn.Alu { op; dst = idef dst; a = s a; b = s b }
      | Insn.Falu { op; dst; a; b } ->
        Insn.Falu { op; dst = fdef dst; a = s a; b = s b }
      | Insn.Fcmp { op; dst; a; b } ->
        Insn.Fcmp { op; dst = idef dst; a = s a; b = s b }
      | Insn.Itof { dst; src } -> Insn.Itof { dst = fdef dst; src = s src }
      | Insn.Ftoi { dst; src } -> Insn.Ftoi { dst = idef dst; src = s src }
      | Insn.Ld { kind; dst; base; site } ->
        Insn.Ld { kind; dst = d dst; base = iuse base; site }
      | Insn.St { src; base; site } ->
        Insn.St { src = s src; base = iuse base; site }
      | Insn.Chk_a { tag; recovery; site } ->
        Insn.Chk_a { tag = d_use tag; recovery; site }
      | Insn.Invala_e { tag } -> Insn.Invala_e { tag = d_use tag }
      | Insn.Sel { dst; cond; if_true; if_false } ->
        Insn.Sel
          { dst = d dst; cond = iuse cond; if_true = s if_true;
            if_false = s if_false }
      | Insn.Br _ as b -> b
      | Insn.Brc { cond; ifso; ifnot; site } ->
        Insn.Brc { cond = iuse cond; ifso; ifnot; site }
      | Insn.Call { callee; args; ret } ->
        Insn.Call { callee; args = List.map s args; ret = Option.map d ret }
      | Insn.Ret { value } -> Insn.Ret { value = Option.map s value }
      | Insn.Alloc { dst; nbytes; site } ->
        Insn.Alloc { dst = idef dst; nbytes = s nbytes; site }
      | Insn.Print { what; as_float } -> Insn.Print { what = s what; as_float }
      | Insn.Nop -> Insn.Nop
    in
    push ins';
    List.iter push !after
  done;
  new_index.(n) <- !out_len;
  let code = Array.of_list (List.rev !out) in
  (* retarget control flow: a branch to an old pc lands on the reload
     cluster of that pc (inserted spill code never branches) *)
  Array.iteri
    (fun i ins ->
      code.(i) <-
        (match ins with
        | Insn.Br { target } -> Insn.Br { target = new_index.(target) }
        | Insn.Brc { cond; ifso; ifnot; site } ->
          Insn.Brc
            { cond; ifso = new_index.(ifso); ifnot = new_index.(ifnot); site }
        | Insn.Chk_a { tag; recovery; site } ->
          Insn.Chk_a { tag; recovery = new_index.(recovery); site }
        | x -> x))
    code;
  (* entry-point assignment (formals are remapped through this) *)
  let imap = Array.make (max ni 1) (-1) in
  if ni > 0 then imap.(0) <- 0;
  for v = 1 to ni - 1 do
    match vloc.(v) with
    | (p, _, _) :: _ when p.p_reg >= 0 -> imap.(v) <- p.p_reg
    | _ -> ()
  done;
  let fmap = Array.make (max nf 1) (-1) in
  for f = 0 to nf - 1 do
    match vloc.(ni + f) with
    | (p, _, _) :: _ when p.p_reg >= 0 -> fmap.(f) <- p.p_reg
    | _ -> ()
  done;
  let iassign =
    Array.init (max ni 1) (fun v ->
        if v < ni then
          List.map (fun (p, _, _) -> (p.p_lo, p.p_hi, p.p_reg)) vloc.(v)
        else [])
  in
  let fassign =
    Array.init (max nf 1) (fun f ->
        if f < nf then
          List.map (fun (p, _, _) -> (p.p_lo, p.p_hi, p.p_reg)) vloc.(ni + f)
        else [])
  in
  let web_counts = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace web_counts e.e_vreg
        (1 + Option.value (Hashtbl.find_opt web_counts e.e_vreg) ~default:0))
    ents;
  let zero_cost_splits =
    Hashtbl.fold (fun _ c a -> a + (c - 1)) web_counts 0
  in
  let spill_splits =
    List.fold_left
      (fun a e ->
        a + List.length (List.filter (fun p -> p.p_reg >= 0) e.e_pieces))
      0 spilled
  in
  let subranges_total =
    List.fold_left (fun a e -> a + List.length e.e_pieces) 0 ents
  in
  { code;
    nregs;
    nfregs;
    imap;
    fmap;
    new_index;
    spill_bytes = 8 * nslots;
    stats =
      { subranges = subranges_total;
        webs = List.length ents;
        splits_inserted = zero_cost_splits + spill_splits;
        spilled_webs = List.length spilled;
        spill_slots = nslots;
        reloads = !stats_reloads;
        spill_stores = !stats_stores;
        remat_webs =
          List.length (List.filter (fun e -> e.e_remat <> None) ents);
        remat_uses = !stats_remats };
    iassign;
    fassign }

(* --- the pressure estimate consumed by the promoter --- *)

type estimate = {
  est_webs : int; (* allocation entities across both classes *)
  est_frame_int : int;
      (* the allocated integer frame: sp, spill scratch included — exactly
         the [nregs] the RSE will be charged at every call *)
  est_frame_fp : int;
}

(* What a function's frame will cost before promotion grows it: run the
   allocator on the pristine selection and read the frame it actually
   sizes.  The early must-reside peak (peak_of) systematically
   undershoots the real file — remat candidates still occupy registers
   up to the remat limit, allocation is piece-granular, and
   memory-resident operands borrow scratch past the allocated file — and
   the RSE is charged the real [nregs], so the real frame is the only
   honest baseline for a spill-cost model.  One discarded allocation per
   function, once per compile: noise next to promotion's per-round alias
   analyses. *)
let estimate ?(policy = default_policy) (inp : input) : estimate =
  let res = run ~policy inp in
  { est_webs = res.stats.webs;
    est_frame_int = res.nregs;
    est_frame_fp = res.nfregs }
