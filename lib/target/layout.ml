(* Post-regalloc block layout: loop rotation + fall-through chaining.

   The machine predicts conditional branches statically — backward taken,
   forward not taken (machine.ml).  Codegen emits while-loops in source
   order with the test at the top: the loop-head br.cond branches *forward*
   into the body on every iteration, so the predictor flushes the pipeline
   once per iteration of every loop, at every opt level.  This pass
   rearranges blocks after register allocation so the common path agrees
   with the predictor:

   1. Rebuild basic blocks from the resolved, indexed code.
   2. Find natural loops (DFS back edges on the block CFG; chk.a recovery
      edges are real edges here, so recovery blocks count as loop members).
   3. Rotate to test-at-bottom: a loop whose header ends in a br.cond that
      continues the loop on the taken side, and whose back edges are all
      unconditional br, is laid out with the header *after* every other
      member of the loop (usually right after its latch, whose jump then
      dissolves into fall-through).  The entry edge becomes a one-time
      forward guard jump and the header's br.cond turns into a
      backward-taken latch branch — predicted correctly every iteration.
      Multi-block `while (a && b)` heads rotate too, even though both
      br.cond targets stay in the loop.  No instruction is duplicated (a
      duplicated header would double-count per-site load/ALAT events), so
      steady state pays only the 1-cycle taken-branch redirect.
   4. Chain by fall-through: each remaining block prefers its fall-through
      continuation, its unconditional-jump target, or — where not-taken is
      plausibly the common case — the not-taken side of its br.cond as the
      next block, so forward conditional branches fall through (cost 0) on
      the not-taken path instead of paying a redirect.  Inside a loop the
      not-taken side is chained only when it is the side that stays in the
      loop; otherwise the emission order, whose dispatch branches are
      backward and predicted taken, is kept.
   5. Reassemble: drop jumps to the next block, insert jumps where a
      fall-through edge was severed, and patch every branch / chk.a
      recovery target to its new index.

   The pass never touches registers, so it composes with regalloc's ALAT
   pinning; and blocks at or past [body_len] (the chk.a recovery blocks
   codegen appends after the function body) are never moved or chained
   into, preserving the out-of-line recovery placement contract. *)

type stats = { mutable loops_rotated : int; mutable blocks_moved : int }

let run ?stats ~body_len (code : Insn.insn array) : Insn.insn array =
  let n = Array.length code in
  if n = 0 then code
  else begin
    (* --- block boundaries --- *)
    let is_leader = Insn.leaders code in
    let nb = Array.fold_left (fun a l -> if l then a + 1 else a) 0 is_leader in
    let start = Array.make nb 0 in
    let block_of = Array.make n 0 in
    let bi = ref (-1) in
    for i = 0 to n - 1 do
      if is_leader.(i) then begin
        incr bi;
        start.(!bi) <- i
      end;
      block_of.(i) <- !bi
    done;
    let bend = Array.init nb (fun b -> if b + 1 < nb then start.(b + 1) else n) in
    (* recovery blocks: everything codegen emitted after the body *)
    let first_recovery =
      let r = ref nb in
      for b = nb - 1 downto 0 do
        if start.(b) >= body_len then r := b
      done;
      !r
    in
    let is_recovery b = b >= first_recovery in
    let last b = code.(bend.(b) - 1) in
    let falls_through b =
      match last b with
      | Insn.Br _ | Insn.Brc _ | Insn.Ret _ -> false
      | _ -> b + 1 < nb
    in
    (* --- block CFG, chk.a recovery edges included: a chk.a ends its
       block, so a block's successors are its last instruction's.  A
       br.cond block lists its taken side first. --- *)
    let succ =
      Array.init nb (fun b ->
          List.map (fun s -> block_of.(s)) (Insn.successors code (bend.(b) - 1)))
    in
    let pred = Array.make nb [] in
    Array.iteri
      (fun b ss -> List.iter (fun s -> pred.(s) <- b :: pred.(s)) ss)
      succ;
    (* --- back edges: DFS, an edge into a gray node closes a loop --- *)
    let color = Array.make nb 0 in
    let back_edges = ref [] in
    let rec dfs b =
      color.(b) <- 1;
      List.iter
        (fun s ->
          if color.(s) = 0 then dfs s
          else if color.(s) = 1 then back_edges := (b, s) :: !back_edges)
        succ.(b);
      color.(b) <- 2
    in
    dfs 0;
    (* natural loop membership per header: union over its back edges of
       everything that reaches a latch without passing the header *)
    let loops = Hashtbl.create 8 in
    List.iter
      (fun (u, h) ->
        let members, latches =
          match Hashtbl.find_opt loops h with
          | Some x -> x
          | None ->
            let x = (Array.make nb false, ref []) in
            Hashtbl.replace loops h x;
            x
        in
        latches := u :: !latches;
        members.(h) <- true;
        let stack = ref [ u ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | b :: rest ->
            stack := rest;
            if not members.(b) then begin
              members.(b) <- true;
              List.iter (fun p -> stack := p :: !stack) pred.(b)
            end
        done)
      !back_edges;
    (* --- rotation candidates --- *)
    (* A header rotates when its br.cond continues the loop on the taken
       side and every back edge reaches it by an unconditional br (a
       conditional back edge means the loop is already bottom-tested).
       Rotation is purely a placement rule: the header goes after the last
       other member of its loop (the completion rule below), so its taken
       branch — and any in-loop target of its br.cond — becomes backward,
       which the static predictor gets right.  This covers multi-block
       headers too: a short-circuit `while (a && b)` head whose br.cond
       targets both stay in the loop still wants the test at the bottom. *)
    let rotated = Array.make nb false in
    Hashtbl.iter
      (fun h (members, latches) ->
        if h <> 0 && not (is_recovery h) then
          match last h, succ.(h) with
          | Insn.Brc _, ifso :: _ when members.(ifso) ->
            let br_latch u =
              match last u, succ.(u) with
              | Insn.Br _, [ t ] -> t = h
              | _ -> false
            in
            if List.for_all br_latch !latches then rotated.(h) <- true
          | _ -> ())
      loops;
    (* completion rule bookkeeping: which rotated headers each block counts
       toward, and how many non-header members each still waits for.
       Recovery-block members are excluded — they are pinned at the end and
       must not hold a header hostage. *)
    let containing = Array.make nb [] in
    let remaining = Array.make nb 0 in
    Hashtbl.iter
      (fun h (members, _) ->
        if rotated.(h) then
          Array.iteri
            (fun b m ->
              if m && b <> h && not (is_recovery b) then begin
                containing.(b) <- h :: containing.(b);
                remaining.(h) <- remaining.(h) + 1
              end)
            members)
      loops;
    (* --- fall-through chaining --- *)
    (* innermost loop per block (smallest member set), for the Ball-Larus
       style loop-branch heuristic below *)
    let loop_size h =
      let members, _ = Hashtbl.find loops h in
      Array.fold_left (fun a m -> if m then a + 1 else a) 0 members
    in
    let innermost = Array.make nb (-1) in
    Hashtbl.iter
      (fun h (members, _) ->
        Array.iteri
          (fun b m ->
            if m then
              let cur = innermost.(b) in
              if cur < 0 || loop_size h < loop_size cur then innermost.(b) <- h)
          members)
      loops;
    (* [t] is pinned after [t-1] when it is entered by fall-through; don't
       steal it into another chain. *)
    let ft_entered t = t > 0 && falls_through (t - 1) in
    let ds b =
      let guard t =
        if t = 0 || is_recovery t || rotated.(t) || ft_entered t then None
        else Some t
      in
      if falls_through b then begin
        let s = b + 1 in
        if is_recovery s || rotated.(s) then None else Some s
      end
      else
        match last b, succ.(b) with
        | Insn.Br _, [ t ] -> guard t
        | Insn.Brc _, [ ifso; ifnot ] -> (
          (* placing the not-taken side next makes the common forward branch
             fall through — but only when not-taken is plausibly the common
             case.  Outside any loop that is the default guess; inside a
             loop the loop-branch heuristic says the in-loop successor is
             the common one, so chain the not-taken side only when it is
             the one staying in the loop (exit-on-true).  When both sides
             stay in the loop the static predictor direction carries the
             information codegen's emission order already encodes (the
             short-circuit dispatch blocks sit after their targets, making
             the common taken branches backward) — keep that order. *)
          match innermost.(b) with
          | -1 -> guard ifnot
          | h ->
            let members, _ = Hashtbl.find loops h in
            if members.(ifnot) && not members.(ifso) then guard ifnot
            else None)
        | _ -> None
    in
    let placed = Array.make nb false in
    let rev_order = ref [] in
    let place b =
      placed.(b) <- true;
      rev_order := b :: !rev_order;
      List.iter (fun h -> remaining.(h) <- remaining.(h) - 1) containing.(b)
    in
    (* the completion rule: a rotated header is emitted the moment the rest
       of its loop is placed — right after its latch when the latch ends
       the chain, so the latch's back-edge jump dissolves into
       fall-through.  Placing an inner header can complete an outer loop,
       hence the fixpoint. *)
    let flush_completed () =
      let again = ref true in
      while !again do
        again := false;
        for h = 0 to first_recovery - 1 do
          if rotated.(h) && (not placed.(h)) && remaining.(h) = 0 then begin
            place h;
            again := true
          end
        done
      done
    in
    for b0 = 0 to first_recovery - 1 do
      if (not placed.(b0)) && not rotated.(b0) then begin
        let c = ref (Some b0) in
        let continue_ = ref true in
        while !continue_ do
          match !c with
          | Some b when not placed.(b) ->
            place b;
            c := ds b
          | _ -> continue_ := false
        done;
        flush_completed ()
      end
    done;
    (* safety net: loops with unreachable members never complete — place
       whatever is left in emission order *)
    for b = 0 to first_recovery - 1 do
      if not placed.(b) then place b
    done;
    (* recovery blocks stay at the end, in emission order *)
    for b = first_recovery to nb - 1 do
      place b
    done;
    let order = Array.of_list (List.rev !rev_order) in
    (match stats with
    | None -> ()
    | Some s ->
      Array.iter (fun r -> if r then s.loops_rotated <- s.loops_rotated + 1) rotated;
      Array.iteri
        (fun k b -> if k <> b then s.blocks_moved <- s.blocks_moved + 1)
        order);
    (* --- reassemble: fix terminators, then patch targets --- *)
    (* appended jumps carry *original* target indices; the patch pass below
       maps every target through its block's new start *)
    let rev_out = ref [] in
    let newstart = Array.make nb 0 in
    let pos = ref 0 in
    Array.iteri
      (fun k b ->
        newstart.(b) <- !pos;
        let next = if k + 1 < nb then Some order.(k + 1) else None in
        let len = bend.(b) - start.(b) in
        let keep, appended =
          match last b, succ.(b) with
          | Insn.Br _, [ t ] when next = Some t ->
            (len - 1, []) (* jump to the next block: fall through instead *)
          | _ when falls_through b && next <> Some (b + 1) ->
            (len, [ Insn.Br { target = start.(b + 1) } ]) (* severed edge *)
          | _ -> (len, [])
        in
        for i = start.(b) to start.(b) + keep - 1 do
          rev_out := code.(i) :: !rev_out
        done;
        List.iter (fun j -> rev_out := j :: !rev_out) appended;
        pos := !pos + keep + List.length appended)
      order;
    let out = Array.of_list (List.rev !rev_out) in
    Array.map (Insn.map_targets (fun t -> newstart.(block_of.(t)))) out
  end
