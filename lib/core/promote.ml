(* Register promotion driver.

   Bottom-up rounds over the expression syntax tree (paper section 3.2:
   p before *p before **p): round 1 promotes direct references; rounds 2..n
   promote indirect references through address temps that became
   single-definition SSA values in earlier rounds.  The alias analyses and
   mod/ref summaries are recomputed between rounds because each round
   manufactures new temps the previous solution has never seen. *)

open Srp_ir
module Manager = Srp_alias.Manager
module Modref = Srp_alias.Modref

type result = {
  stats : Ssapre.stats;
  per_func : (string * Ssapre.stats) list;
}

(* Per-function register-pressure summary, produced by the backend's
   allocator machinery (srp_core cannot see srp_target, so the driver
   injects the estimator as a callback). *)
type pressure = {
  webs : int; (* allocation entities across both classes *)
  peak_int : int;
      (* projected co-resident stacked integer registers: the function's
         own allocated frame plus the deepest partner frame — what the
         RSE pool is actually charged while this function is live *)
  peak_fp : int; (* the function's fp register count (not RSE-stacked) *)
  spill_traffic : int; (* projected stacked registers beyond the RSE pool *)
}

let block_count_fn (config : Config.t) =
  match config.Config.policy with
  | Config.Spec_profile p ->
    fun ~func ~label_id -> Srp_profile.Alias_profile.block_count p ~func ~label_id
  | Config.Spec_never | Config.Spec_heuristic -> fun ~func:_ ~label_id:_ -> 0

(* A promotion round's candidates of [f], in the order they are assessed
   and committed: direct references, then indirect ones. *)
let candidates f = Expr.candidates ~indirect:false f @ Expr.candidates ~indirect:true f

(* The contexts SSAPRE reads for the candidates of one function, built as
   every round of [run] builds them: [contexts config prog] runs the
   whole-program alias and mod analyses and the speculation policy once;
   applying the result to a function adds its CFG. *)
let contexts (config : Config.t) (prog : Program.t) :
    Func.t -> Ssapre.codemotion_ctx * Expr.collect_ctx =
  let module Stats = Srp_obs.Stats in
  let mgr = Stats.time ~pass:"promote" "alias" (fun () -> Manager.build prog) in
  let modref =
    Stats.time ~pass:"promote" "modref" (fun () -> Modref.compute mgr prog)
  in
  let policy = Spec_policy.create prog config.Config.policy in
  let cm_ctx =
    { Ssapre.config; profile_hot = block_count_fn config;
      site_gen = prog.Program.site_gen }
  in
  (* Probability gating needs measured frequencies: it is live only for
     the profiled ALAT level.  The heuristic policy's synthetic 0/1
     verdicts carry no expectation to price, so alat-heuristic keeps the
     binary pipeline. *)
  let prob_gate =
    match (config.Config.policy, config.Config.check_style) with
    | Config.Spec_profile _, Config.Alat when config.Config.prob ->
      Some config.Config.spec_threshold
    | _ -> None
  in
  fun f ->
    let cfg = Cfg.build f in
    ( cm_ctx,
      { Expr.mgr; modref; policy; style = config.Config.check_style;
        cascade = config.Config.cascade; prob_gate; cfg;
        dom = Dominance.compute cfg } )

(* The one verdict on a candidate's ledger.  A candidate with no work is
   declined.  The expected-value gate is the paper's section 3.1 rule,
   P x recovery < saved latency: a candidate whose nonzero check bill eats
   its whole saving is declined no matter how empty the register pool is
   (under the binary verdict the bill is always 0 and this never fires).
   With a pressure estimate, [pool = (projected, spill_occ)] adds the RSE
   test: within Machine_model.rse_pool a register is free; above it the
   net saving must beat Machine_model.spill_cost x [spill_occ]. *)
let accepts ?pool (a : Ssapre.assessment) =
  a.Ssapre.as_work
  && (a.Ssapre.as_bill = 0 || Ssapre.net a > 0)
  &&
  match pool with
  | None -> true
  | Some (projected, spill_occ) ->
    projected <= Machine_model.rse_pool
    || Ssapre.net a > Machine_model.spill_cost * spill_occ

(* Per-candidate scope choice under probability gating.  Each candidate is
   assessed twice: once with the configured threshold (kills up to
   P <= thr crossed speculatively) and once at thr = 0, the binary-verdict
   scope priced under the same check-traffic model.  Every downstream gate
   — the verdict, the ranking — reads the threshold-scope ledger: that
   scope is what the policy asked for, and its bill is the candidate's
   honest price.  The *committed* shape, though, is whichever scope nets
   more, ties to binary — a probabilistic extension must pay for itself or
   the candidate keeps its legacy shape.  When the threshold scope fails
   the verdict, the fallback is scope-aware: a check-free binary scope
   keeps the plain redundancy elimination (the crossed kills just stay
   hard) and is judged on its own ledger, but a binary scope that still
   carries checks rests on the very traffic estimates the bill just
   flagged as conflict-heavy, so the candidate stays declined.  The legacy
   path (prob_gate = None) takes none of this machinery.

   The choice carries the committed scope's own ledger beside the gate's,
   and its prepared form: committing that form is committing the scope
   ([Ssapre.commit] refuses a form prepared on another state of the
   function).

   The gate ledger is load-bearing where the binary scope commits:
   ranking the third branch on [a_b] instead moves vpr at alat from
   26,194,892 to 26,774,033 cycles (+2.21%; rse_spilled_regs 240,002 ->
   360,002, checks_retired 120,000 -> 240,000) and twolf by -0.16%.
   "vpr at alat: register stack under gate-ledger ranking" pins it. *)
type choice = {
  scope : Expr.collect_ctx; (* the scope committed *)
  gate : Ssapre.assessment; (* the ledger the verdict and ranking read *)
  ledger : Ssapre.assessment; (* the committed scope's own ledger *)
  prepared : Ssapre.prepared; (* the committed scope's form *)
}

let choose_scope cm_ctx (collect : Expr.collect_ctx) f key : choice =
  let ((a_p, _) as thr_form) = Ssapre.assess cm_ctx collect f key in
  let pick scope gate (ledger, prepared) = { scope; gate; ledger; prepared } in
  match collect.Expr.prob_gate with
  | None -> pick collect a_p thr_form
  | Some thr ->
    let collect_bin = { collect with Expr.prob_gate = Some 0.0 } in
    let ((a_b, _) as bin_form) =
      if thr = 0.0 then thr_form else Ssapre.assess cm_ctx collect_bin f key
    in
    if not (accepts a_p) then
      pick collect_bin (if a_b.Ssapre.as_bill > 0 then a_p else a_b) bin_form
    else if Ssapre.net a_p > Ssapre.net a_b then pick collect a_p thr_form
    else pick collect_bin a_p bin_form

type budget = {
  est : pressure;
  overflow_calls : int;
  claimed : int ref * int ref; (* integer, fp *)
}

(* [overflow_calls] is the dynamic RSE-overflow proxy: the RSE spills and fills a resident frame
   around every overflowing call beneath it, so a leaf pays at its own
   entry count while a caller's frame is churned by its descendants'
   calls.  Without a call graph, call-making functions are charged the
   busiest entry count in the program (their descendants can only be
   among those functions).  Training counts, the same unit the benefit
   side is weighted in; [max 1] keeps the comparison
   static-per-occurrence under the profile-free policies. *)
let budgets ?pressure (config : Config.t) (prog : Program.t) :
    Func.t -> budget option =
  match pressure with
  | Some estimate when config.Config.pressure ->
    let block_count = block_count_fn config in
    let entry_count f =
      block_count ~func:(Func.name f) ~label_id:(Label.id (Func.entry f))
    in
    let max_entry =
      List.fold_left (fun acc f -> max acc (entry_count f)) 0 (Program.funcs prog)
    in
    let overflow_calls f =
      let makes_calls =
        List.exists
          (fun b ->
            List.exists
              (function Instr.Call _ -> true | _ -> false)
              b.Block.instrs)
          (Func.blocks f)
      in
      let own = entry_count f in
      max 1 (if makes_calls then max own max_entry else own)
    in
    let table =
      List.map
        (fun f ->
          ( Func.name f,
            Option.map
              (fun est -> { est; overflow_calls = overflow_calls f; claimed = (ref 0, ref 0) })
              (estimate (Func.name f)) ))
        (Program.funcs prog)
    in
    fun f -> Option.join (List.assoc_opt (Func.name f) table)
  | Some _ | None -> fun _ -> None

(* Candidate selection, one path with or without the pressure gate: every
   candidate of [f] is assessed ([choose_scope]) on [f] as it stands,
   ranked by net saved latency, and accepted greedily through [accepts].
   Without a budget the verdict is the ledger's alone, so the ranking
   does not matter.  With one, it is free while the projected co-resident
   stack (estimator projection + registers already claimed) stays within
   the RSE pool.  Above the pool, an integer candidate pays the RSE's
   marginal price: one more frame register costs a spill plus a fill
   around every overflowing call while the function is resident, so
   [spill_occ] is [overflow_calls], not a per-occurrence charge (a load
   eliminated a thousand times per call amortizes its register; a
   once-per-call load does not).  Float candidates are not RSE-stacked;
   past the threshold they keep the occurrence-weighted memory-spill
   comparison (lat_fp beats a spill round-trip, so fp promotion stays
   profitable, matching the paper's fp-heavy kernels).  The accepted
   candidates come back in candidate order, each with its choice, for
   one [Ssapre.commit]. *)
let select ?budget cm_ctx collect f keys : (Expr.key * choice) list =
  let assessed = List.mapi (fun i key -> (i, key, choose_scope cm_ctx collect f key)) keys in
  let ranked =
    List.stable_sort
      (fun (_, _, a) (_, _, b) -> Int.compare (Ssapre.net b.gate) (Ssapre.net a.gate))
      assessed
  in
  let accepted =
    List.filter
      (fun (_, key, c) ->
        match budget with
        | None -> accepts c.gate
        | Some b ->
          let ci, cf = b.claimed in
          let counter, base, spill_occ =
            match key.Expr.mty with
            | Mem_ty.I64 -> (ci, b.est.peak_int, b.overflow_calls)
            | Mem_ty.F64 -> (cf, b.est.peak_fp, c.gate.Ssapre.as_occ)
          in
          accepts ~pool:(base + !counter + 1, spill_occ) c.gate
          && (incr counter; true))
      ranked
  in
  List.map (fun (_, key, c) -> (key, c))
    (List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) accepted)

(* Promote every function of [prog] in place.  [pressure] is the
   per-function estimator callback; the gate is active only when both the
   config enables it and a callback is supplied — otherwise every
   candidate that passes its own ledger verdict is promoted.  Each round
   selects every function's candidates on the function as the previous
   round left it, and commits them in one batch. *)
let run ?(config = Config.baseline) ?pressure (prog : Program.t) : result =
  let total = Ssapre.empty_stats () in
  let per_func = Hashtbl.create 8 in
  let budget_of = budgets ?pressure config prog in
  let func_stats f =
    match Hashtbl.find_opt per_func (Func.name f) with
    | Some s -> s
    | None ->
      let s = Ssapre.empty_stats () in
      Hashtbl.replace per_func (Func.name f) s;
      s
  in
  let module Stats = Srp_obs.Stats in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ && !round < max 1 config.Config.max_rounds do
    incr round;
    Stats.incr (Stats.counter ~pass:"promote" "rounds");
    (* fresh whole-program analyses: each round makes new temps *)
    let contexts_of = contexts config prog in
    let round_work = ref false in
    Stats.time ~pass:"promote" "ssapre" (fun () ->
        List.iter
          (fun f ->
            let keys = candidates f in
            if keys <> [] then begin
              let cm_ctx, collect = contexts_of f in
              let stats = func_stats f in
              let before = stats.Ssapre.exprs_promoted in
              Ssapre.commit cm_ctx f stats
                (List.map
                   (fun (key, c) -> (key, c.prepared))
                   (select ?budget:(budget_of f) cm_ctx collect f keys));
              if stats.Ssapre.exprs_promoted > before then round_work := true
            end)
          (Program.funcs prog));
    (* expose this round's promotion temps as address bases for the next *)
    Stats.time ~pass:"promote" "copy_prop" (fun () ->
        List.iter Copy_prop.run (Program.funcs prog);
        List.iter Copy_prop.run_local (Program.funcs prog));
    continue_ := !round_work
  done;
  List.iter
    (fun f ->
      Check_cleanup.run f;
      f.Func.ssa_temps <- false)
    (Program.funcs prog);
  Hashtbl.iter (fun _ s -> Ssapre.add_stats total s) per_func;
  Stats.add
    (Stats.counter ~pass:"promote" "exprs_promoted")
    total.Ssapre.exprs_promoted;
  { stats = total;
    per_func = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_func [] }

(* --- the speculative SSA form --- *)

type form = { fn : Func.t; key : Expr.key; choice : choice }

(* Round 1 of [run] on [prog] with nothing committed: every candidate in
   [run]'s order with its choice on the unedited program, so exactly the
   forms round 1 selects from and commits. *)
let round1_forms (config : Config.t) (prog : Program.t) : form list =
  let contexts_of = contexts config prog in
  List.concat_map
    (fun f ->
      match candidates f with
      | [] -> []
      | keys ->
        let cm_ctx, collect = contexts_of f in
        List.map
          (fun key ->
            { fn = f; key; choice = choose_scope cm_ctx collect f key })
          keys)
    (Program.funcs prog)

let pp_forms ppf (forms : form list) =
  ignore
    (List.fold_left
       (fun last fm ->
         let name = Func.name fm.fn in
         if last <> Some name then Fmt.pf ppf "func %s:@." name;
         let c = fm.choice in
         Fmt.pf ppf "  %a: scope %s, saved %d, bill %d@." Expr.pp_key fm.key
           (match c.scope.Expr.prob_gate with
           | None | Some 0.0 -> "binary"
           | Some thr -> Fmt.str "p<=%g" thr)
           c.ledger.Ssapre.as_saved c.ledger.Ssapre.as_bill;
         Ssapre.pp_prepared ppf c.prepared;
         Some name)
       None forms)
