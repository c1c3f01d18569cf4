(* Dead-check elimination (paper section 3.4: "redundant checks should be
   removed as much as possible").

   Promotion plants a check after *every* speculative kill a version
   crosses and an invalidation on every cold edge; many of those write a
   promotion temp that is never read again before its next redefinition.
   A standard backward liveness analysis over temps finds them; removal
   iterates because deleting a dead move can kill the check feeding it. *)

open Srp_ir

(* A chk.a runs its recovery on a miss, and that recovery reloads the
   values promoted behind the checked pointer (the cascade crossing).  So
   the check stays while any of them is live, even when the pointer is
   dead, and it reads what its recovery reads. *)
let removable (ins : Instr.instr) (live : Temp.Set.t) =
  let dead t = not (Temp.Set.mem t live) in
  match ins with
  | Instr.Check { dst; recovery; _ } ->
    dead dst && List.for_all (fun r -> List.for_all dead (Instr.defs r)) recovery
  | Instr.Sw_check { dst; _ } | Instr.Mov { dst; _ } | Instr.Invala { dst } ->
    dead dst
  | Instr.Load _ | Instr.Store _ | Instr.Bin _ | Instr.Un _ | Instr.Call _
  | Instr.Alloc _ ->
    false

let uses (ins : Instr.instr) =
  match ins with
  | Instr.Check { recovery = _ :: _ as recovery; _ } ->
    Instr.uses ins @ List.concat_map Instr.uses recovery
  | _ -> Instr.uses ins

(* One liveness + sweep pass; returns true if anything was removed. *)
let sweep_once (f : Func.t) : bool =
  let cfg = Cfg.build f in
  let n = Cfg.num_nodes cfg in
  (* use/def per block *)
  let live_in = Array.make n Temp.Set.empty in
  let block_live_in i =
    (* backward within the block starting from successors' live-in *)
    let blk = Cfg.block cfg i in
    let live =
      List.fold_left
        (fun acc s -> Temp.Set.union acc live_in.(s))
        Temp.Set.empty (Cfg.succs cfg i)
    in
    let live = List.fold_left (fun acc t -> Temp.Set.add t acc) live
        (Instr.term_uses blk.Block.term)
    in
    List.fold_left
      (fun live ins ->
        let live = List.fold_left (fun a t -> Temp.Set.remove t a) live (Instr.defs ins) in
        List.fold_left (fun a t -> Temp.Set.add t a) live (uses ins))
      live
      (List.rev blk.Block.instrs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let v = block_live_in i in
      if not (Temp.Set.equal v live_in.(i)) then begin
        live_in.(i) <- v;
        changed := true
      end
    done
  done;
  (* sweep, tracking liveness backwards through each block *)
  let removed = ref false in
  for i = 0 to n - 1 do
    let blk = Cfg.block cfg i in
    let live =
      List.fold_left
        (fun acc s -> Temp.Set.union acc live_in.(s))
        Temp.Set.empty (Cfg.succs cfg i)
    in
    let live =
      List.fold_left (fun acc t -> Temp.Set.add t acc) live
        (Instr.term_uses blk.Block.term)
    in
    let keep = ref [] in
    let live = ref live in
    List.iter
      (fun ins ->
        if removable ins !live then removed := true
        else begin
          keep := ins :: !keep;
          live := List.fold_left (fun a t -> Temp.Set.remove t a) !live (Instr.defs ins);
          live := List.fold_left (fun a t -> Temp.Set.add t a) !live (uses ins)
        end)
      (List.rev blk.Block.instrs);
    blk.Block.instrs <- !keep
  done;
  !removed

let run (f : Func.t) : unit =
  let budget = ref 10 in
  while sweep_once f && !budget > 0 do
    decr budget
  done
