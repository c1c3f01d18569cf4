(* Post-regalloc, pre-bundle latency-aware list scheduling.

   The bundler packs instructions in source order, so bundle slots and
   stop bits are spent on an unscheduled stream: a load sits right next
   to its use, the group-split rule inserts a stop, and the machine eats
   the full L1 (or FP) latency as a stall.  This pass reorders each basic
   block before bundling so independent work fills those shadows and
   ld.a/ld.sa hoist toward the top of their block — the access/execute
   decoupling argument applied to the ALAT speculation machinery.

   Scheduling must not change what the program *does*, only when it does
   it, and the differential test harness holds it to bit-identity on
   every non-cycle counter.  Three rules deliver that:

   1. Ordered ops stay ordered.  Every instruction [Insn.is_ordered]
      classifies — loads of all kinds, stores, chk.a, invala.e, alloc,
      calls, prints — keeps its original position *relative to the
      others*: the cache's replacement state, the ALAT's arm/evict/check
      sequence, the heap pointer and the output stream all observe their
      order.  Only pure register compute (movl/mov/alu/falu/fcmp/
      itof/ftoi/sel/nop) moves across them.
   2. Register dependences are edges.  RAW edges are weighted with the
      producer's result latency (the machine's: L1-hit loads
      [Machine_model.lat_l1]/[lat_fp], the opcode table in Insn); WAR and WAW
      edges are order-only.  The ALAT arm→check contract needs no extra
      machinery: a check load or chk.a *uses* its tag register
      (Regalloc.uses_defs), so the RAW edge from the arming ld.a — plus
      rule 1 — pins it behind its arm.
   3. Terminals stay terminal.  Br/Brc/Ret/Chk_a end their block and
      keep their exact pc, so branch targets never need repatching, the
      static predictor's backward/forward geometry is untouched, and
      recovery blocks (whose boundaries are block boundaries here, as in
      layout.ml) are never entered mid-stream.

   Within those constraints a greedy cycle-driven list scheduler issues
   by critical-path height over the machine's issue resources
   (Machine_model's issue width and memory/FP ports, Insn's issue
   classes: ld.c occupies neither port), with
   [hoist_bonus] added to advanced loads so ld.a/ld.sa win
   ties against equally-critical compute and issue as early as their
   block allows.  Ties break on original index: the pass is a pure,
   deterministic function of the instruction stream. *)

module Model = Srp_ir.Machine_model

type stats = {
  mutable blocks : int; (* blocks considered (>= 2 movable insns) *)
  mutable moved : int; (* instructions whose index changed *)
  mutable hoist : int; (* slots of upward motion summed over ld.a/ld.sa *)
}

(* Critical-path priority bonus for ld.a/ld.sa, so advanced loads issue
   as early as their block allows: the speculative hoist-distance tuning. *)
let hoist_bonus = 4

(* Result latency in cycles before a dependent may issue: the machine's
   charges, with loads priced at their L1-hit latency (the scheduler
   cannot know about misses; the common case is what the stream should
   be shaped for).  A check load is priced as a hit — the whole point of
   promotion is that it usually is one. *)
let latency (ins : Insn.insn) : int =
  match ins with
  | Insn.Alu { op; _ } -> Insn.ialu_latency op
  | Insn.Falu { op; _ } -> Insn.falu_latency op
  | Insn.Fcmp _ -> Insn.fcmp_latency
  | Insn.Itof _ | Insn.Ftoi _ -> Insn.cvt_latency
  | Insn.Ld { kind = Insn.K_ld_c _; _ } -> 1
  | Insn.Ld { dst = Insn.DFlt _; _ } -> Model.lat_fp
  | Insn.Ld _ -> Model.lat_l1
  | _ -> 1

(* Exact packing cost (pad nops, stops) of one candidate block order, by
   running the bundler itself over an isolated copy.  Every leader starts
   a fresh bundle, and scheduling never changes control flow, so each
   block executes the same number of times with or without scheduling —
   a block whose scheduled order packs at least as tightly as its source
   order can only shrink the dynamic nop/split bill.  Control-transfer
   targets point outside the block; they are clamped to 0 for the trial
   packing (targets never influence template choice or hazards). *)
let pack_cost (block : Insn.insn array) : int * int =
  let clamped =
    Array.map
      (function
        | Insn.Br _ -> Insn.Br { target = 0 }
        | Insn.Brc { cond; site; _ } ->
          Insn.Brc { cond; ifso = 0; ifnot = 0; site }
        | Insn.Chk_a { tag; site; _ } -> Insn.Chk_a { tag; recovery = 0; site }
        | ins -> ins)
      block
  in
  let st = { Bundle.bundles = 0; nops_added = 0; stops = 0 } in
  ignore (Bundle.run ~stats:st clamped);
  (st.Bundle.nops_added, st.Bundle.stops)

(* Schedule [code[lo, hi)] in place into [out[lo, hi)].  Returns unit;
   [out] must already hold a copy of [code]. *)
let schedule_block stats (code : Insn.insn array)
    (out : Insn.insn array) lo hi =
  let n = hi - lo in
  let has_term = n > 0 && Insn.is_terminal code.(hi - 1) in
  let nsched = if has_term then n - 1 else n in
  let ins k = code.(lo + k) in
  let lat = Array.init n (fun k -> latency (ins k)) in
  (* A block of nothing but 1-cycle producers has no latency to hide:
     reordering it can only churn the bundler's packing (more pad nops,
     different stop placement) for zero stall savings, so leave it in
     source order. *)
  let worth = ref false in
  for k = 0 to nsched - 1 do
    if lat.(k) > 1 then worth := true
  done;
  if nsched >= 2 && !worth then begin
    (* --- dependence DAG: edges (j, weight) with source < j --- *)
    let succs = Array.make n [] in
    let indeg = Array.make n 0 in
    let add_edge i j wt =
      succs.(i) <- (j, wt) :: succs.(i);
      indeg.(j) <- indeg.(j) + 1
    in
    let last_def_i = Hashtbl.create 16 and last_def_f = Hashtbl.create 16 in
    let uses_i = Hashtbl.create 16 and uses_f = Hashtbl.create 16 in
    let last_ordered = ref (-1) in
    for k = 0 to n - 1 do
      let iu, fu, idf, fdf = Regalloc.uses_defs (ins k) in
      let raw defs r =
        match Hashtbl.find_opt defs r with
        | Some d -> add_edge d k lat.(d)
        | None -> ()
      in
      List.iter (raw last_def_i) iu;
      List.iter (raw last_def_f) fu;
      let def defs uses r =
        (* WAW: order after the previous writer *)
        (match Hashtbl.find_opt defs r with
        | Some d -> add_edge d k 0
        | None -> ());
        (* WAR: order after every reader of the previous value *)
        (match Hashtbl.find_opt uses r with
        | Some us -> List.iter (fun u -> if u <> k then add_edge u k 0) us
        | None -> ());
        Hashtbl.replace defs r k;
        Hashtbl.replace uses r []
      in
      List.iter (def last_def_i uses_i) idf;
      List.iter (def last_def_f uses_f) fdf;
      (* record reads (of the pre-def value: after def processing, so a
         self-read like r = r + 1 attaches to the previous generation) *)
      let record uses r =
        let us = Option.value ~default:[] (Hashtbl.find_opt uses r) in
        Hashtbl.replace uses r (k :: us)
      in
      List.iter (record uses_i) iu;
      List.iter (record uses_f) fu;
      if Insn.is_ordered (ins k) then begin
        if !last_ordered >= 0 then add_edge !last_ordered k 0;
        last_ordered := k
      end
    done;
    (* --- critical-path heights (terminal included so the chains feeding
       the branch condition keep their urgency), plus the hoist bonus on
       advanced loads --- *)
    let height = Array.make n 0 in
    for k = n - 1 downto 0 do
      let h =
        List.fold_left
          (fun acc (j, wt) -> max acc (wt + height.(j)))
          lat.(k) succs.(k)
      in
      height.(k) <- (if Insn.is_advanced_load (ins k) then h + hoist_bonus
                     else h)
    done;
    (* --- greedy cycle-driven issue over the machine's resource mirror --- *)
    let earliest = Array.make n 0 in
    let done_ = Array.make n false in
    let order = Array.make nsched (-1) in
    let placed = ref 0 in
    let time = ref 0 in
    let slots = ref 0 and mems = ref 0 and fps = ref 0 in
    while !placed < nsched do
      (* best ready candidate that fits this cycle's remaining resources *)
      let best = ref (-1) in
      for k = nsched - 1 downto 0 do
        if
          (not done_.(k))
          && indeg.(k) = 0
          && earliest.(k) <= !time
          && !slots < Model.issue_width
          && ((not (Insn.takes_mem (ins k))) || !mems < Model.mem_ports)
          && ((not (Insn.takes_fp (ins k))) || !fps < Model.fp_ports)
          && (!best < 0 || height.(k) >= height.(!best))
        then best := k
      done;
      match !best with
      | -1 ->
        (* Nothing fits this cycle.  If an already-ready node was only
           blocked by the resource caps, the next cycle frees them; if
           everything ready is waiting on a latency, jump straight to the
           earliest such cycle. *)
        let soonest = ref max_int in
        for k = 0 to nsched - 1 do
          if (not done_.(k)) && indeg.(k) = 0 && earliest.(k) < !soonest then
            soonest := earliest.(k)
        done;
        time := max (!time + 1) !soonest;
        slots := 0;
        mems := 0;
        fps := 0
      | k ->
        done_.(k) <- true;
        order.(!placed) <- k;
        incr placed;
        incr slots;
        if Insn.takes_mem (ins k) then incr mems;
        if Insn.takes_fp (ins k) then incr fps;
        List.iter
          (fun (j, wt) ->
            indeg.(j) <- indeg.(j) - 1;
            earliest.(j) <- max earliest.(j) (!time + wt))
          succs.(k)
    done;
    (* --- profitability gate: keep the reorder only if it packs at
       least as tightly as the source order.  Latency hiding is worth
       nothing if it costs extra bundles in a hot loop — the dynamic nop
       and split bill scales with the block's execution count, and the
       cost comparison here is per-block exact (pack_cost runs the real
       bundler), so a gated stream can never retire more pad nops than
       the unscheduled one. *)
    let changed = ref false in
    for p = 0 to nsched - 1 do
      if order.(p) <> p then changed := true
    done;
    if !changed then begin
      let cand =
        Array.init n (fun p -> if p < nsched then ins order.(p) else ins p)
      in
      let orig = Array.init n ins in
      let nops_s, stops_s = pack_cost cand in
      let nops_o, stops_o = pack_cost orig in
      if nops_s <= nops_o && stops_s <= stops_o then begin
        stats.blocks <- stats.blocks + 1;
        for p = 0 to nsched - 1 do
          let k = order.(p) in
          out.(lo + p) <- ins k;
          if k <> p then stats.moved <- stats.moved + 1;
          if Insn.is_advanced_load (ins k) && k > p then
            stats.hoist <- stats.hoist + (k - p)
        done
        (* the terminal (if any) already sits at out.(hi - 1) via the copy *)
      end
    end
  end

let run ?stats (code : Insn.insn array) :
    Insn.insn array =
  let n = Array.length code in
  if n = 0 then code
  else begin
    let st =
      match stats with
      | Some s -> s
      | None -> { blocks = 0; moved = 0; hoist = 0 }
    in
    (* block leaders, exactly layout.ml's rule *)
    let is_leader = Array.make n false in
    is_leader.(0) <- true;
    let mark t = if t < n then is_leader.(t) <- true in
    let split_after i = if i + 1 < n then is_leader.(i + 1) <- true in
    Array.iteri
      (fun i ins ->
        match ins with
        | Insn.Br { target } ->
          mark target;
          split_after i
        | Insn.Brc { ifso; ifnot; _ } ->
          mark ifso;
          mark ifnot;
          split_after i
        | Insn.Chk_a { recovery; _ } ->
          mark recovery;
          split_after i
        | Insn.Ret _ -> split_after i
        | _ -> ())
      code;
    let out = Array.copy code in
    let lo = ref 0 in
    for i = 1 to n do
      if i = n || is_leader.(i) then begin
        schedule_block st code out !lo i;
        lo := i
      end
    done;
    out
  end
