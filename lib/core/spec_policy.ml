(* Speculation policy: the conflict probability of every may-def (chi) a
   promotion candidate crosses (paper section 3.1).  A kill of location L
   at site s becomes a chi_s when, per the policy, it is unlikely enough
   to touch L at run time.

   - [Spec_profile]: the fraction of the site's training executions that
     touched L (the paper's primary scheme, fig. 5, extended with the
     probability-annotated alias facts of the probabilistic-alias-analysis
     line of work).  Call sites use the callee's *dynamic* mod rates:
     per-invocation touch frequencies of the locations its store sites
     (and transitively its callees') were observed to write.
   - [Spec_heuristic]: no profile; an indirect store is taken not to touch
     a location unless its points-to set is a singleton (a crude stand-in
     the paper mentions as "heuristic rules").  Probabilities are binary.
   - [Spec_never]: the conservative baseline — every probability is 1. *)

open Srp_ir
module Location = Srp_alias.Location
module Alias_profile = Srp_profile.Alias_profile

type t = {
  policy : Config.speculation_policy;
  dyn_mod : (string, float Location.Map.t) Hashtbl.t;
      (* per-function dynamic mod: location -> per-invocation touch rate *)
}

(* Dynamic mod rates: which locations did each function's stores actually
   touch (transitively), per the profile, and how often per invocation.
   Fixpoint over the call graph.  A function's own stores contribute
   hits / entry-count (clamped to 1); callee maps propagate by point-wise
   max — monotone and drawn from a finite value set, so the fixpoint
   terminates even on recursive call graphs.  The support of the map (the
   rate > 0 locations) is exactly the legacy dynamic mod *set*. *)
let compute_dyn_mod (prog : Program.t) (profile : Alias_profile.t) =
  let tbl = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None -> Location.Map.empty
  in
  let max_merge a b =
    Location.Map.union (fun _ x y -> Some (Float.max x y)) a b
  in
  (* Per-function own-store hit totals, divided by training invocations. *)
  let own f =
    let fname = Func.name f in
    let entries =
      Alias_profile.block_count profile ~func:fname
        ~label_id:(Label.id (Func.entry f))
    in
    let hits = ref Location.Map.empty in
    let add loc h =
      if h > 0 then
        hits :=
          Location.Map.update loc
            (function Some n -> Some (n + h) | None -> Some h)
            !hits
    in
    Func.iter_instrs
      (fun _ ins ->
        match ins with
        | Instr.Store { addr; site; _ } -> (
          match addr.Ops.base with
          | Ops.Sym s ->
            if Alias_profile.executed profile site then
              add (Location.Sym s) (Alias_profile.count profile site)
          | Ops.Reg _ ->
            Location.Set.iter
              (fun loc -> add loc (Alias_profile.touch_count profile site loc))
              (Alias_profile.targets profile site))
        | _ -> ())
      f;
    Location.Map.map
      (fun h -> Float.min 1.0 (float_of_int h /. float_of_int (max 1 entries)))
      !hits
  in
  let owns =
    List.map (fun f -> (f, own f)) (Program.funcs prog)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f, own_rates) ->
        let fname = Func.name f in
        let acc = ref own_rates in
        Func.iter_instrs
          (fun _ ins ->
            match ins with
            | Instr.Call { callee; _ } ->
              if not (Program.is_builtin callee) then
                acc := max_merge !acc (get callee)
            | _ -> ())
          f;
        if not (Location.Map.equal Float.equal !acc (get fname)) then begin
          Hashtbl.replace tbl fname !acc;
          changed := true
        end)
      owns
  done;
  tbl

let create (prog : Program.t) (policy : Config.speculation_policy) : t =
  let dyn_mod =
    match policy with
    | Config.Spec_profile p -> compute_dyn_mod prog p
    | Config.Spec_never | Config.Spec_heuristic -> Hashtbl.create 1
  in
  { policy; dyn_mod }

(* Conflict probability of the indirect access at [site] against [loc]:
   how likely is one execution of the site to touch it?  [n_targets] is
   the size of the static points-to set (for the heuristic). *)
let store_conflict_prob t ~site ~n_targets loc =
  match t.policy with
  | Config.Spec_never -> 1.0
  | Config.Spec_heuristic -> if n_targets <= 1 then 1.0 else 0.0
  | Config.Spec_profile p -> Alias_profile.conflict_rate p site loc

(* Conflict probability of the call at [site] (to [callee]) against
   [loc]: the callee's transitive per-invocation touch rate. *)
let call_conflict_prob t ~callee ~site loc =
  ignore site;
  match t.policy with
  | Config.Spec_never -> 1.0
  | Config.Spec_heuristic ->
    1.0 (* never speculate across calls without a profile *)
  | Config.Spec_profile _ -> (
    match Hashtbl.find_opt t.dyn_mod callee with
    | Some m -> (
      match Location.Map.find_opt loc m with Some r -> r | None -> 0.0)
    | None -> 0.0 (* callee never ran under training input *)
  )

(* --- cost-model inputs threaded to the promoter --- *)

(* How many dynamic executions one static occurrence stands for.  With a
   profile the training block count is the estimate (a never-executed
   block contributes nothing); without one every occurrence counts once. *)
let occurrence_weight t ~block_count =
  match t.policy with
  | Config.Spec_profile _ -> max 0 block_count
  | Config.Spec_never | Config.Spec_heuristic -> 1
