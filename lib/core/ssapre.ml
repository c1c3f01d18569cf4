(* SSAPRE (Kennedy et al., TOPLAS'99) specialized to load expressions, with
   the paper's speculative extensions:

   - Phi-insertion: capital-Phi for the hypothetical temporary h at the
     iterated dominance frontier of every occurrence/kill block.
   - Rename (speculative, paper section 3.3): a preorder dominator-tree
     walk with a stack of availability states.  Speculative kills (chi_s)
     are *ignored* — the version survives and the crossing is recorded so
     CodeMotion can plant a check statement after the store.
   - DownSafety: a backward anticipation dataflow (speculative kills are
     transparent).  Optionally, loop-header Phis that the profile shows hot
     are force-marked down-safe: the resulting insertions are control
     speculative and lower to ld.sa (paper section 2.3, Figure 3).
   - WillBeAvail: canonical canBeAvail/later propagation.
   - Finalize/CodeMotion (speculative, paper section 3.4): one promotion
     temp per expression; first computations load into it (flagged ld.a
     when any consumer is speculative), redundant loads become register
     moves, Phi-operand insertions become loads (ld.sa when forced), check
     statements (ld.c / software compare) follow speculative kills, and the
     invala.e strategy replaces insertion on cold paths (Figure 2). *)

open Srp_ir
module Alias_profile = Srp_profile.Alias_profile

(* --- per-expression analysis structures --- *)

type phi = {
  phi_node : int;
  mutable downsafe : bool;
  mutable spec_forced : bool; (* downsafe by control speculation *)
  mutable cba : bool;
  mutable later : bool;
  mutable operands : (int * opnd) list; (* pred node -> operand state *)
  mutable phi_ver : int;
  mutable lazy_ : bool; (* some path reaches this phi through invala.e *)
}

and opnd =
  | O_bot
  | O_uninsertable (* bottom, and a load cannot legally be inserted there *)
  | O_ver of { ver : int; last_real : bool; from_phi : phi option }

type vdef =
  | VD_load of { node : int; idx : int; dst : Temp.t }
  | VD_store of { node : int; idx : int; src : Ops.operand }
  | VD_phi of phi

(* A speculative kill: (node, idx, software-check info, cascade
   address-cell, conflict probability — the profiled chance one execution
   of the kill invalidates the promoted value, 0 under the binary
   verdict). *)
type kill = int * int * (Ops.addr * Ops.operand) option * Ops.addr option * float

type vinfo = {
  v_id : int;
  v_def : vdef;
  mutable v_uses : (int * int * Temp.t) list; (* redundant loads *)
  (* speculative kills crossed while this version was current *)
  mutable v_spec_kills : kill list;
  mutable v_feeds : (phi * bool) list; (* (phi fed, last_real at the edge) *)
  mutable v_lazy : bool; (* reads of this version must be checks *)
  mutable v_need : bool; (* value must materialize in the promotion temp *)
  mutable v_arm : bool; (* the materialization must allocate an ALAT entry *)
}

type analysis = {
  cfg : Cfg.t;
  dom : Dominance.t;
  key : Expr.key;
  events : Expr.event list array; (* per node *)
  phis : phi option array; (* per node *)
  mutable versions : vinfo list;
}

(* --- statistics --- *)

type stats = {
  mutable checks_inserted : int;
  mutable sw_checks_inserted : int;
  mutable invala_inserted : int;
  mutable loads_inserted : int;
  mutable ld_sa_inserted : int;
  mutable arms : int;
  mutable chk_a_inserted : int;
  mutable exprs_promoted : int;
}

let empty_stats () =
  { checks_inserted = 0; sw_checks_inserted = 0; invala_inserted = 0;
    loads_inserted = 0; ld_sa_inserted = 0; arms = 0; chk_a_inserted = 0;
    exprs_promoted = 0 }

let add_stats a b =
  a.checks_inserted <- a.checks_inserted + b.checks_inserted;
  a.sw_checks_inserted <- a.sw_checks_inserted + b.sw_checks_inserted;
  a.invala_inserted <- a.invala_inserted + b.invala_inserted;
  a.loads_inserted <- a.loads_inserted + b.loads_inserted;
  a.ld_sa_inserted <- a.ld_sa_inserted + b.ld_sa_inserted;
  a.arms <- a.arms + b.arms;
  a.chk_a_inserted <- a.chk_a_inserted + b.chk_a_inserted;
  a.exprs_promoted <- a.exprs_promoted + b.exprs_promoted

(* --- step 1: Phi insertion --- *)

let insert_phis (cfg : Cfg.t) (dom : Dominance.t) (events : Expr.event list array) :
    phi option array =
  let n = Cfg.num_nodes cfg in
  let event_blocks = ref [] in
  for i = 0 to n - 1 do
    if events.(i) <> [] then event_blocks := i :: !event_blocks
  done;
  let idf = Dominance.iterated_frontier dom !event_blocks in
  let phis = Array.make n None in
  List.iter
    (fun node ->
      phis.(node) <-
        Some
          { phi_node = node; downsafe = true; spec_forced = false; cba = true;
            later = true; operands = []; phi_ver = -1; lazy_ = false })
    idf;
  phis

(* --- step 2: speculative rename --- *)

type sentry = S_bot | S_ver of { v : vinfo; last_real : bool }

let rename (a : analysis) : unit =
  let counter = ref 0 in
  let versions = ref [] in
  let new_version def =
    incr counter;
    let v =
      { v_id = !counter; v_def = def; v_uses = []; v_spec_kills = [];
        v_feeds = []; v_lazy = false; v_need = false; v_arm = false }
    in
    versions := v :: !versions;
    v
  in
  let stack = ref [] in
  let push e = stack := e :: !stack in
  let top () = match !stack with e :: _ -> e | [] -> S_bot in
  let rec walk node =
    let depth0 = List.length !stack in
    (* Phi at block entry *)
    (match a.phis.(node) with
    | Some phi ->
      let v = new_version (VD_phi phi) in
      phi.phi_ver <- v.v_id;
      push (S_ver { v; last_real = false })
    | None -> ());
    (* events *)
    List.iter
      (fun (ev : Expr.event) ->
        match ev with
        | Expr.Use { idx; dst } -> (
          match top () with
          | S_ver { v; _ } ->
            v.v_uses <- (node, idx, dst) :: v.v_uses;
            push (S_ver { v; last_real = true })
          | S_bot ->
            let v = new_version (VD_load { node; idx; dst }) in
            push (S_ver { v; last_real = true }))
        | Expr.Def { idx; src } ->
          let v = new_version (VD_store { node; idx; src }) in
          push (S_ver { v; last_real = true })
        | Expr.Kill { idx; spec; prob; store; cascade } -> (
          if spec then (
            match top () with
            | S_ver { v; _ } ->
              v.v_spec_kills <- (node, idx, store, cascade, prob) :: v.v_spec_kills
            | S_bot -> ())
          else push S_bot))
      a.events.(node);
    (* feed Phi operands of CFG successors *)
    List.iter
      (fun succ ->
        match a.phis.(succ) with
        | Some phi ->
          let o =
            match top () with
            | S_bot -> O_bot
            | S_ver { v; last_real } ->
              let from_phi = match v.v_def with VD_phi p -> Some p | _ -> None in
              O_ver { ver = v.v_id; last_real; from_phi }
          in
          phi.operands <- (node, o) :: phi.operands;
          (match top () with
          | S_ver { v; last_real } -> v.v_feeds <- (phi, last_real) :: v.v_feeds
          | S_bot -> ())
        | None -> ())
      (Cfg.succs a.cfg node);
    (* recurse over dominator children *)
    List.iter walk (Dominance.children a.dom node);
    (* pop to entry depth *)
    while List.length !stack > depth0 do
      stack := List.tl !stack
    done
  in
  walk 0;
  a.versions <- !versions

(* --- step 3: DownSafety --- *)

(* First significant event of a block for anticipation purposes:
   a real use anticipates; an exact store or non-speculative kill blocks;
   speculative kills are transparent. *)
let first_signal (events : Expr.event list) : [ `Use | `Block | `None ] =
  let rec go = function
    | [] -> `None
    | Expr.Use _ :: _ -> `Use
    | Expr.Def _ :: _ -> `Block
    | Expr.Kill { spec = true; _ } :: rest -> go rest
    | Expr.Kill { spec = false; _ } :: _ -> `Block
  in
  go events

let downsafety (a : analysis) : unit =
  let n = Cfg.num_nodes a.cfg in
  let ant = Array.make n true in
  let sig_ = Array.init n (fun i -> first_signal a.events.(i)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let v =
        match sig_.(i) with
        | `Use -> true
        | `Block -> false
        | `None -> (
          match Cfg.succs a.cfg i with
          | [] -> false
          | succs -> List.for_all (fun s -> ant.(s)) succs)
      in
      if v <> ant.(i) then begin
        ant.(i) <- v;
        changed := true
      end
    done
  done;
  Array.iter
    (function
      | Some phi -> phi.downsafe <- ant.(phi.phi_node)
      | None -> ())
    a.phis

(* Control speculation: force down-safety of loop-header Phis whose body
   the profile shows executing (the branch-profiling guidance of section
   2.3, Figure 3).  Loop-carried load/store expressions qualify too: the
   preheader load plus the in-loop store materializations carry the value
   through the Phi, eliminating the in-loop load entirely. *)
let force_loop_speculation (a : analysis) ~(hot : int -> bool) : unit =
  let loops = Loops.find a.cfg a.dom in
  List.iter
    (fun (l : Loops.loop) ->
      match a.phis.(l.Loops.header) with
      | Some phi when not phi.downsafe ->
        if hot l.Loops.header then begin
          phi.downsafe <- true;
          phi.spec_forced <- true
        end
      | Some _ | None -> ())
    loops

(* --- step 4: WillBeAvail --- *)

(* [rescuable]: the invala.e strategy of paper Figure 2.  A Phi that would
   lose availability because of a bottom (or uninsertable) operand is kept
   "lazily available" instead: no load is inserted on the offending paths —
   an invala.e is — and every read of the Phi's version becomes an ld.c
   check, which reloads exactly on the paths that did not carry the value.
   Profitable only when those value-less paths essentially never execute
   (otherwise every read is a guaranteed reload plus a failed check), so
   the rescue demands profile evidence: every value-less operand edge must
   be dead under the training input.  It also needs at least one
   value-carrying operand. *)
let will_be_avail (a : analysis) ~(insertable : int -> bool)
    ~(rescuable : phi -> bool) : unit =
  let phis =
    Array.to_list a.phis |> List.filter_map (fun p -> p)
  in
  (* mark uninsertable bottom operands *)
  List.iter
    (fun phi ->
      phi.operands <-
        List.map
          (fun (pred, o) ->
            match o with
            | O_bot when not (insertable pred) -> (pred, O_uninsertable)
            | _ -> (pred, o))
          phi.operands)
    phis;
  (* canBeAvail, with lazy rescue *)
  let try_rescue phi =
    rescuable phi
    && List.exists
         (fun (_, o) -> match o with O_ver _ -> true | O_bot | O_uninsertable -> false)
         phi.operands
  in
  let q = Queue.create () in
  let kill_or_rescue phi =
    if phi.cba && not phi.lazy_ then begin
      if try_rescue phi then phi.lazy_ <- true
      else begin
        phi.cba <- false;
        Queue.add phi q
      end
    end
  in
  List.iter
    (fun phi ->
      let has_bad_bot =
        List.exists
          (fun (_, o) ->
            match o with
            | O_uninsertable -> true
            | O_bot -> not phi.downsafe
            | O_ver _ -> false)
          phi.operands
      in
      if has_bad_bot then kill_or_rescue phi)
    phis;
  while not (Queue.is_empty q) do
    let dead = Queue.pop q in
    List.iter
      (fun phi ->
        if phi.cba then begin
          let exposed =
            List.exists
              (fun (_, o) ->
                match o with
                | O_ver { from_phi = Some p; last_real = false; _ } -> p == dead
                | _ -> false)
              phi.operands
          in
          (* an operand whose Phi died is as good as bottom *)
          if exposed && not phi.downsafe then kill_or_rescue phi
        end)
      phis
  done;
  (* later; lazy Phis must materialize (their reads are checks) *)
  List.iter (fun phi -> phi.later <- phi.cba && not phi.lazy_) phis;
  let q2 = Queue.create () in
  List.iter
    (fun phi ->
      if phi.later then begin
        let has_real =
          List.exists
            (fun (_, o) -> match o with O_ver { last_real = true; _ } -> true | _ -> false)
            phi.operands
        in
        if has_real then begin
          phi.later <- false;
          Queue.add phi q2
        end
      end)
    phis;
  while not (Queue.is_empty q2) do
    let early = Queue.pop q2 in
    List.iter
      (fun phi ->
        if phi.later then begin
          let touched =
            List.exists
              (fun (_, o) ->
                match o with
                | O_ver { from_phi = Some p; _ } -> p == early
                | _ -> false)
              phi.operands
          in
          if touched then begin
            phi.later <- false;
            Queue.add phi q2
          end
        end)
      phis
  done

let wba phi = phi.cba && not phi.later

(* --- steps 5-6: Finalize and CodeMotion --- *)

(* Which versions need to materialize in the promotion temp: versions with
   redundant uses, plus (transitively) versions feeding a Phi operand of a
   will-be-avail Phi whose own version is needed. *)
let compute_need (a : analysis) : unit =
  let by_id = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace by_id v.v_id v) a.versions;
  let changed = ref true in
  List.iter (fun v -> v.v_need <- v.v_uses <> []) a.versions;
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if not v.v_need then begin
          let feeds_needed =
            List.exists
              (fun (phi, _) ->
                wba phi
                &&
                match Hashtbl.find_opt by_id phi.phi_ver with
                | Some pv -> pv.v_need
                | None -> false)
              v.v_feeds
          in
          if feeds_needed then begin
            v.v_need <- true;
            changed := true
          end
        end)
      a.versions
  done

(* Laziness (invala strategy): a Phi version reached through an invala.e
   path must be read through checks.  Initialized by mark_lazy_phis (cold
   operands), propagated along operand edges that did not pass a real
   occurrence. *)
let propagate_lazy (a : analysis) : unit =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        match v.v_def with
        | VD_phi phi when (not v.v_lazy) && phi.lazy_ ->
          v.v_lazy <- true;
          changed := true
        | VD_phi _ | VD_load _ | VD_store _ -> ())
      a.versions;
    List.iter
      (fun v ->
        if v.v_lazy then
          List.iter
            (fun (phi, last_real) ->
              if (not last_real) && not phi.lazy_ then begin
                phi.lazy_ <- true;
                changed := true
              end)
            v.v_feeds)
      a.versions
  done

(* Arming: a version must allocate an ALAT entry when a check will consult
   it — it crossed speculative kills (checks follow the stores), it feeds a
   lazy Phi (reads become ld.c), or it feeds a Phi whose version itself
   must be armed (the check after the kill inside a loop consults the entry
   allocated before the loop: Figure 3). *)
let compute_arms (a : analysis) ~alat : unit =
  if alat then begin
    let by_id = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace by_id v.v_id v) a.versions;
    List.iter
      (fun v ->
        if v.v_need then begin
          let lazy_feed = List.exists (fun (phi, _) -> phi.lazy_ && wba phi) v.v_feeds in
          v.v_arm <- v.v_spec_kills <> [] || lazy_feed || v.v_lazy
        end)
      a.versions;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun v ->
          if v.v_need && not v.v_arm then begin
            let feeds_armed =
              List.exists
                (fun (phi, _) ->
                  wba phi
                  &&
                  match Hashtbl.find_opt by_id phi.phi_ver with
                  | Some pv -> pv.v_arm
                  | None -> false)
                v.v_feeds
            in
            if feeds_armed then begin
              v.v_arm <- true;
              changed := true
            end
          end)
        a.versions
    done
  end

(* --- rewriting --- *)

(* What a commit does at one instruction of the pristine block: replace
   it, insert after it, or upgrade the check there to chk.a with reloads
   appended to its recovery (the cascade crossing). *)
type at_instr =
  | Replace of Instr.instr list
  | After of Instr.instr list
  | Recover of Instr.instr list

type edit = {
  at : (int, at_instr) Hashtbl.t; (* pristine idx -> edit *)
  mutable at_end : Instr.instr list; (* before terminator *)
}

(* Record [x] at instruction [idx].  One candidate edits an instruction
   at most once (each event belongs to one version), so a second edit is
   a later candidate's, composed as committing them in turn would: its
   insertions go right after the instruction, before the earlier ones',
   and its cascade reload after theirs.  Nothing else composes. *)
let add (e : edit) idx x =
  Hashtbl.replace e.at idx
    (match (Hashtbl.find_opt e.at idx, x) with
    | None, _ -> x
    | Some (After a), After b -> After (b @ a)
    | Some (Recover a), Recover b -> Recover (a @ b)
    | Some (Replace _ | After _ | Recover _), _ ->
      invalid_arg (Fmt.str "Ssapre: a second edit at instruction %d" idx))

let apply_edits (cfg : Cfg.t) (edits : edit array) : unit =
  Array.iteri
    (fun node e ->
      let blk = Cfg.block cfg node in
      let out = ref [] in
      List.iteri
        (fun idx ins ->
          match (Hashtbl.find_opt e.at idx, ins) with
          | None, _ -> out := ins :: !out
          | Some (Replace repl), _ -> out := List.rev_append repl !out
          | Some (After post), _ -> out := List.rev_append post (ins :: !out)
          | Some (Recover reloads), Instr.Check c ->
            out :=
              Instr.Check
                { c with kind = Instr.C_chk_a { clear = false };
                  recovery = c.recovery @ reloads }
              :: !out
          | Some (Recover _), _ ->
            invalid_arg (Fmt.str "Ssapre: chk.a upgrade of a non-check at %d" idx))
        blk.Block.instrs;
      blk.Block.instrs <- List.rev (List.rev_append e.at_end !out))
    edits

(* --- the driver for one expression --- *)

type codemotion_ctx = {
  config : Config.t;
  profile_hot : func:string -> label_id:int -> int; (* block exec count *)
  site_gen : Site.Gen.t;
}

(* The check plan of one needed version, derived once for both halves of
   the driver: how each of its uses is rewritten ([true]: a save, which
   materializes the value; [false]: a reload of the promotion temp) and
   which of its speculative kills get a check.  [assess] prices exactly
   [pl_checks]; [codemotion] walks [pl_uses] and then [pl_checks] in list
   order, which fixes the order fresh sites are drawn in. *)
type plan = {
  pl_v : vinfo;
  pl_uses : (bool * (int * int * Temp.t)) list;
  pl_checks : kill list;
}

let plan_version (a : analysis) (v : vinfo) : plan =
  match v.v_def with
  | VD_phi phi when not (wba phi) ->
    (* The Phi will not be available: its uses must self-materialize.  A
       use dominated by an earlier save of the same version reloads; the
       others become saves themselves.  Checks are only useful for kills
       that some save dominates — a check before any materialization would
       consult a stale or missing entry on every execution. *)
    let pos_dominates (n0, i0) (n1, i1) =
      if n0 = n1 then i0 < i1 else Dominance.strictly_dominates a.dom n0 n1
    in
    let after_save saved (node, idx) =
      List.exists (fun p -> pos_dominates p (node, idx)) saved
    in
    let sorted =
      List.sort
        (fun (n1, i1, _) (n2, i2, _) ->
          if n1 = n2 then Int.compare i1 i2 else Int.compare n1 n2)
        v.v_uses
    in
    let saved, uses =
      List.fold_left
        (fun (saved, uses) ((node, idx, _) as u) ->
          if after_save saved (node, idx) then (saved, (false, u) :: uses)
          else ((node, idx) :: saved, (true, u) :: uses))
        ([], []) sorted
    in
    { pl_v = v; pl_uses = List.rev uses;
      pl_checks =
        List.filter (fun (node, idx, _, _, _) -> after_save saved (node, idx))
          v.v_spec_kills }
  | VD_load _ | VD_store _ | VD_phi _ ->
    (* The value is in the temp before every use (materialized at the
       def, or carried in by the Phi's operand insertions): every use
       reloads, and every recorded kill sits between the value and a
       potential use. *)
    { pl_v = v; pl_uses = List.map (fun u -> (false, u)) v.v_uses;
      pl_checks = v.v_spec_kills }

(* The analysis half of the driver: everything up to (and including) the
   check plans, with no edits, no fresh temps and no fresh sites — safe
   to run purely for candidate ranking and discard.  There is work to do
   exactly when some version is needed, i.e. when [p_plans] is not
   empty. *)
type prepared = {
  p_a : analysis;
  p_insert_edges : (int * phi) list;
  p_invala_edges : (int * phi) list;
  p_plans : plan list; (* one per needed version, in version order *)
  p_block_count : int -> int; (* training executions of a node *)
  p_instrs : Instr.instr list array;
      (* each node's instruction list as prepared on, by identity: an edit
         replaces the list, so [commit] can tell a stale form *)
}

let instr_lists cfg = Array.init (Cfg.num_nodes cfg) (fun i -> (Cfg.block cfg i).Block.instrs)

let prepare (ctx : codemotion_ctx) (collect : Expr.collect_ctx) (f : Func.t)
    (key : Expr.key) : prepared =
  let cfg = collect.Expr.cfg in
  let dom = collect.Expr.dom in
  let n = Cfg.num_nodes cfg in
  let fp = Expr.footprint ~mgr:collect.Expr.mgr ~func:(Func.name f) key in
  let events = Array.init n (fun i -> Expr.events_in_block collect ~fp key i) in
  let phis = insert_phis cfg dom events in
  let a = { cfg; dom; key; events; phis; versions = [] } in
  rename a;
  downsafety a;
  let fname = Func.name f in
  let block_count node =
    ctx.profile_hot ~func:fname ~label_id:(Label.id (Cfg.label cfg node))
  in
  let profiled =
    match ctx.config.Config.policy with
    | Config.Spec_profile _ -> true
    | Config.Spec_never | Config.Spec_heuristic -> false
  in
  if ctx.config.Config.control_spec && ctx.config.Config.check_style = Config.Alat
     && profiled
  then force_loop_speculation a ~hot:(fun header -> block_count header > 0);
  (* insertion legality: an indirect expression's load may only be inserted
     where its address temp is defined, i.e. in blocks dominated by the
     temp's defining block *)
  let addr_def_node =
    match key.Expr.base with
    | Ops.Sym _ -> Some 0
    | Ops.Reg r ->
      (* single definition: insertions allowed below it; multiple
         definitions: no insertions at all (the address moves) *)
      let defs = ref [] in
      for i = 0 to n - 1 do
        List.iter
          (fun ins ->
            if List.exists (Temp.equal r) (Instr.defs ins) then defs := i :: !defs)
          (Cfg.block cfg i).Block.instrs
      done;
      (match !defs with [ d ] -> Some d | _ -> None)
  in
  let insertable node =
    match addr_def_node with
    | Some d -> Dominance.dominates dom d node
    | None -> false
  in
  let invala_ok =
    ctx.config.Config.use_invala && ctx.config.Config.check_style = Config.Alat
  in
  (* rescue only when every value-less operand edge was dead in training *)
  let rescuable phi =
    invala_ok && profiled
    && List.for_all
         (fun (pred, o) ->
           match o with
           | O_bot | O_uninsertable -> block_count pred = 0
           | O_ver _ -> true)
         phi.operands
  in
  will_be_avail a ~insertable ~rescuable;
  (* Placement: every non-value-carrying operand of a will-be-avail Phi
     needs either a load insertion (classic PRE) or, for lazy Phis and
     never-executed edges, an invala.e (paper Figure 2).  An edge the
     training run never took also switches its Phi to the lazy regime —
     inserting a load on unexplored paths is gratuitous. *)
  let invala_edges = ref [] in
  let insert_edges = ref [] in
  List.iter
    (function
      | None -> ()
      | Some phi when wba phi ->
        List.iter
          (fun (pred, o) ->
            let needs_insert =
              match o with
              | O_bot | O_uninsertable -> true
              | O_ver { from_phi = Some p; last_real = false; _ } -> not (wba p)
              | O_ver _ -> false
            in
            if needs_insert then begin
              let cold = profiled && block_count pred = 0 in
              if invala_ok && (phi.lazy_ || cold) then begin
                invala_edges := (pred, phi) :: !invala_edges;
                phi.lazy_ <- true
              end
              else insert_edges := (pred, phi) :: !insert_edges
            end)
          phi.operands
      | Some _ -> ())
    (Array.to_list a.phis);
  compute_need a;
  propagate_lazy a;
  compute_arms a ~alat:(ctx.config.Config.check_style = Config.Alat);
  { p_a = a; p_insert_edges = !insert_edges; p_invala_edges = !invala_edges;
    p_plans =
      List.filter_map
        (fun v -> if v.v_need then Some (plan_version a v) else None)
        a.versions;
    p_block_count = block_count; p_instrs = instr_lists cfg }

(* The promotion ledger of one candidate, priced off its check plans.

   [as_saved]: per eliminable use, the load latency its class saves
   (Machine_model.load_latency: the L1 hit for integers, the L1-bypassing
   FP load for floats), scaled by the training execution count of the
   use's block when a profile is available.  [as_occ] is the matching
   dynamic occurrence estimate, the unit the spill side of the verdict is
   charged in.

   [as_bill]: the expected speculation bill — per planned check,
   (Machine_model.check_issue_cost + P(conflict) x recovery price) x the
   check block's training count, rounded up so a nonzero expectation is
   never priced free.  The recovery price follows the machine: a plain
   ld.c miss re-runs one ordinary load, while a cascade chk.a failure also
   pays Machine_model.check_recovery_penalty.  The bill is charged only
   under probability gating, so the binary verdict keeps its exact legacy
   ledger (bill 0).

   [as_work]: some version is needed, so committing would edit the
   function.  Promote.accepts turns a ledger into the verdict. *)
type assessment = {
  as_saved : int;
  as_bill : int;
  as_occ : int;
  as_work : bool;
}

(* saved latency net of the expected check bill *)
let net (a : assessment) = a.as_saved - a.as_bill

(* Expected cycles of one execution of a planned check on a cell whose
   load costs [lat]: the issue tax plus P(conflict) x the recovery
   price. *)
let check_price ~lat ((_, _, _, cascade, p) : kill) =
  let recover =
    match cascade with
    | Some _ -> Machine_model.check_recovery_penalty + lat
    | None -> lat
  in
  Machine_model.check_issue_cost +. (p *. float_of_int recover)

(* [assess] prepares the candidate and prices the form; the form comes
   back with its ledger, so a caller that commits it need not prepare
   again while the function is unedited. *)
let assess (ctx : codemotion_ctx) (collect : Expr.collect_ctx) (f : Func.t)
    (key : Expr.key) : assessment * prepared =
  let p = prepare ctx collect f key in
  let weight node =
    Spec_policy.occurrence_weight collect.Expr.policy
      ~block_count:(p.p_block_count node)
  in
  let lat = Machine_model.load_latency key.Expr.mty in
  let occ = ref 0 in
  let bill = ref 0.0 in
  List.iter
    (fun pl ->
      List.iter (fun (_, (node, _, _)) -> occ := !occ + weight node) pl.pl_uses;
      if collect.Expr.prob_gate <> None then
        List.iter
          (fun ((node, _, _, _, _) as k) ->
            bill := !bill +. (float_of_int (weight node) *. check_price ~lat k))
          pl.pl_checks)
    p.p_plans;
  ( { as_saved = !occ * lat; as_bill = int_of_float (Float.ceil !bill);
      as_occ = !occ; as_work = p.p_plans <> [] },
    p )

(* The rewriting half: record a prepared candidate's plans in [edits] at
   the pristine positions they name. *)
let codemotion (ctx : codemotion_ctx) (edits : edit array) (f : Func.t)
    (key : Expr.key) (stats : stats) (p : prepared) : unit =
  let a = p.p_a in
  let cfg = a.cfg in
  if p.p_plans <> [] then begin
    stats.exprs_promoted <- stats.exprs_promoted + 1;
    let mty = key.Expr.mty in
    let addr = Expr.addr_of_key key in
    let t_e = Func.fresh_temp f mty in
    let fresh_site () = Site.Gen.fresh ctx.site_gen in
    (* a Phi version that nothing consumes gets neither insertions nor
       invalidations *)
    let phi_version phi = List.find_opt (fun v -> v.v_id = phi.phi_ver) a.versions in
    let phi_needed phi =
      match phi_version phi with Some pv -> pv.v_need | None -> false
    in
    (* insertions at Phi operands *)
    List.iter
      (fun (pred, phi) ->
        if phi_needed phi then begin
          (* arm when the fed phi version is lazy or its consumers cross
             speculative kills *)
          let phi_arm =
            match phi_version phi with
            | Some pv -> pv.v_arm || phi.lazy_
            | None -> false
          in
          let promo =
            if phi.spec_forced then Instr.P_ld_sa
            else if ctx.config.Config.check_style = Config.Alat && phi_arm then
              Instr.P_ld_a
            else Instr.P_none
          in
          edits.(pred).at_end <-
            edits.(pred).at_end
            @ [ Instr.Load { dst = t_e; addr; mty; site = fresh_site (); promo } ];
          stats.loads_inserted <- stats.loads_inserted + 1;
          if promo = Instr.P_ld_sa then stats.ld_sa_inserted <- stats.ld_sa_inserted + 1
        end)
      p.p_insert_edges;
    List.iter
      (fun (pred, phi) ->
        if phi_needed phi then begin
          edits.(pred).at_end <- edits.(pred).at_end @ [ Instr.Invala { dst = t_e } ];
          stats.invala_inserted <- stats.invala_inserted + 1
        end)
      p.p_invala_edges;
    (* per-version rewrites *)
    let instr_at node idx = List.nth (Cfg.block cfg node).Block.instrs idx in
    let load_site node idx =
      match instr_at node idx with
      | Instr.Load { site; _ } -> site
      | _ -> fresh_site ()
    in
    let alat = ctx.config.Config.check_style = Config.Alat in
    (* rewrite a first computation: load straight into the promotion temp,
       then copy into the occurrence's original destination *)
    let rewrite_save v node idx dst =
      let promo = if v.v_arm && alat then Instr.P_ld_a else Instr.P_none in
      if promo = Instr.P_ld_a then stats.arms <- stats.arms + 1;
      add edits.(node) idx
        (Replace
           [ Instr.Load { dst = t_e; addr; mty; site = load_site node idx; promo };
             Instr.Mov { dst; src = Ops.Temp t_e } ])
    in
    (* rewrite a redundant load: a register move, or an ld.c check when the
       version is lazy (reached through an invala.e path) *)
    let rewrite_reload v node idx dst =
      let site = load_site node idx in
      add edits.(node) idx
        (Replace
           (if v.v_lazy && alat then
              [ Instr.Check
                  { dst = t_e; addr; mty; site; kind = Instr.C_ld_c { clear = false };
                    recovery = [] };
                Instr.Mov { dst; src = Ops.Temp t_e } ]
            else [ Instr.Mov { dst; src = Ops.Temp t_e } ]))
    in
    let emit_check (node, idx, store_info, cascade_cell, _prob) =
      match ctx.config.Config.check_style with
      | Config.Alat -> (
        match cascade_cell with
        | Some _ ->
          (* Cascade crossing (Figure 4): the kill is the pointer's own
             check statement.  Upgrade it in place to chk.a; its recovery
             routine reloads the pointer (the generic part of chk.a
             lowering) and then our data cell, re-arming both entries.  A
             chk.a hit means the pointer did not change, so the promoted
             data value is still addressed correctly (data aliasing has its
             own ld.c checks). *)
          add edits.(node) idx
            (Recover
               [ Instr.Load
                   { dst = t_e; addr; mty; site = fresh_site (); promo = Instr.P_ld_a } ]);
          stats.chk_a_inserted <- stats.chk_a_inserted + 1
        | None ->
          add edits.(node) idx
            (After
               [ Instr.Check
                   { dst = t_e; addr; mty; site = fresh_site ();
                     kind = Instr.C_ld_c { clear = false }; recovery = [] } ]);
          stats.checks_inserted <- stats.checks_inserted + 1)
      | Config.Software -> (
        match store_info with
        | Some (store_addr, stored) ->
          add edits.(node) idx
            (After
               [ Instr.Sw_check
                   { dst = t_e; addr; store_addr; stored; mty; site = fresh_site () } ]);
          stats.sw_checks_inserted <- stats.sw_checks_inserted + 1
        | None -> ())
      | Config.No_speculation -> ()
    in
    List.iter
      (fun pl ->
        let v = pl.pl_v in
        (* materialize the defining occurrence *)
        (match v.v_def with
        | VD_load { node; idx; dst } -> rewrite_save v node idx dst
        | VD_store { node; idx; src } ->
          if v.v_arm && alat then begin
            (* arm after the store with an advanced load (Figure 1(b)) *)
            stats.arms <- stats.arms + 1;
            add edits.(node) idx
              (After
                 [ Instr.Load
                     { dst = t_e; addr; mty; site = fresh_site (); promo = Instr.P_ld_a } ])
          end
          else add edits.(node) idx (After [ Instr.Mov { dst = t_e; src } ])
        | VD_phi _ -> ());
        List.iter
          (fun (save, (node, idx, dst)) ->
            if save then rewrite_save v node idx dst else rewrite_reload v node idx dst)
          pl.pl_uses;
        List.iter emit_check pl.pl_checks)
      p.p_plans
  end

(* Commit the accepted candidates of [f], all prepared on [f] as it
   stands, as one batch of edits applied once.  Temps and sites are drawn
   in candidate order, so the result is what committing them one at a
   time, each prepared afresh, gives. *)
let commit (ctx : codemotion_ctx) (f : Func.t) (stats : stats)
    (forms : (Expr.key * prepared) list) : unit =
  match forms with
  | [] -> ()
  | (_, p0) :: _ ->
    let cfg = p0.p_a.cfg in
    let edits =
      Array.init (Cfg.num_nodes cfg) (fun _ -> { at = Hashtbl.create 4; at_end = [] })
    in
    List.iter
      (fun (key, p) ->
        if p.p_a.cfg != cfg || not (Array.for_all2 ( == ) (instr_lists cfg) p.p_instrs)
        then invalid_arg "Ssapre.commit: a form prepared on another state of the function";
        codemotion ctx edits f key stats p)
      forms;
    apply_edits cfg edits

(* --- the speculative SSA form, printed --- *)

(* The h-version at each occurrence and speculative kill of a prepared
   candidate, by (node, instruction index): the version a use reads or
   starts, the version a def starts, the version a chi_s leaves current.
   Hard kills, and a chi_s crossed with no version current, have none. *)
let event_versions (a : analysis) : (int * int, int) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let set v (node, idx) = Hashtbl.replace tbl (node, idx) v.v_id in
  List.iter
    (fun v ->
      (match v.v_def with
      | VD_load { node; idx; _ } | VD_store { node; idx; _ } -> set v (node, idx)
      | VD_phi _ -> ());
      List.iter (fun (node, idx, _) -> set v (node, idx)) v.v_uses;
      List.iter (fun (node, idx, _, _, _) -> set v (node, idx)) v.v_spec_kills)
    a.versions;
  tbl

(* One candidate's form, block by block in the style of the paper's
   Figure 6: each Phi with its operand per predecessor (a version or
   bot), then each occurrence and kill beside its instruction.  A use or
   def shows its h-version; a hard kill shows as chi; a speculative one as
   chi_s with its conflict probability and the version it keeps, marked
   "check" when a check statement is planned after it. *)
let pp_prepared ppf (p : prepared) =
  let a = p.p_a in
  let versions = event_versions a in
  let checked =
    List.concat_map
      (fun pl -> List.map (fun (node, idx, _, _, _) -> (node, idx)) pl.pl_checks)
      p.p_plans
  in
  let pp_opnd ppf (pred, o) =
    Fmt.pf ppf "%a: %s" Label.pp (Cfg.label a.cfg pred)
      (match o with
      | Some (O_ver { ver; _ }) -> Fmt.str "h%d" ver
      | Some (O_bot | O_uninsertable) -> "bot"
      | None -> "?")
  in
  for node = 0 to Cfg.num_nodes a.cfg - 1 do
    if a.phis.(node) <> None || a.events.(node) <> [] then begin
      let blk = Cfg.block a.cfg node in
      Fmt.pf ppf "    %a:@." Label.pp (Block.label blk);
      Option.iter
        (fun phi ->
          Fmt.pf ppf "      h%d = phi(%a)@." phi.phi_ver
            (Fmt.list ~sep:(Fmt.any ", ") pp_opnd)
            (List.map
               (fun pred -> (pred, List.assoc_opt pred phi.operands))
               (Cfg.preds a.cfg node)))
        a.phis.(node);
      let instrs = Array.of_list blk.Block.instrs in
      List.iter
        (fun (ev : Expr.event) ->
          let idx =
            match ev with
            | Expr.Use { idx; _ } | Expr.Def { idx; _ } | Expr.Kill { idx; _ } ->
              idx
          in
          let h =
            match Hashtbl.find_opt versions (node, idx) with
            | Some v -> Fmt.str "h%d" v
            | None -> "bot"
          in
          let note =
            match ev with
            | Expr.Use _ -> "use " ^ h
            | Expr.Def _ -> "def " ^ h
            | Expr.Kill { spec = false; _ } -> "chi"
            | Expr.Kill { spec = true; prob; _ } ->
              Fmt.str "chi_s p=%.3g, keeps %s%s" prob h
                (if List.mem (node, idx) checked then ", check" else "")
          in
          Fmt.pf ppf "      %a  [%s]@." Instr.pp instrs.(idx) note)
        a.events.(node)
    end
  done
