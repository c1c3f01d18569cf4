(* Compilation pipelines — the experiment matrix of the paper:

   - [O0]: straight lowering, no promotion (for reference only);
   - [Baseline]: the ORC -O3 stand-in: conservative PRE register promotion
     plus software run-time disambiguation on scalars (paper section 4
     says the baseline includes the software approach of [30]);
   - [Alat]: baseline machinery plus ALAT data speculation driven by an
     alias profile collected on the *train* input (the paper's system);
   - [Alat_heuristic]: ALAT speculation from static heuristics only —
     the no-profile ablation;
   - [Conservative]: PRE without any speculation (software checks off),
     isolating the value of the software baseline itself.

   Since the staged-pipeline refactor a compile is a chain of named stages
   (lower -> apply-input -> profile -> promote -> select -> regalloc ->
   layout -> bundle), each keyed by content (Stage.Key) and each an
   immutable artifact that any number of builds can share — the bench
   sweep lowers each source once and `srp serve` shares train profiles
   across a batch.  A build is fully described by its level and its
   canonical ablation list, and the store never changes what it builds:
   test_stage holds every build over a shared store to the same target
   as a storeless rebuild, and test_e2e holds every level's output to
   the IR interpreter's. *)

open Srp_ir
module Alias_profile = Srp_profile.Alias_profile

type level =
  | O0
  | Conservative
  | Baseline
  | Alat
  | Alat_heuristic

let level_name = function
  | O0 -> "O0"
  | Conservative -> "conservative"
  | Baseline -> "baseline"
  | Alat -> "alat"
  | Alat_heuristic -> "alat-heuristic"

let all_levels = [ O0; Conservative; Baseline; Alat; Alat_heuristic ]

let level_of_string s =
  List.find_opt (fun l -> level_name l = s) all_levels

(* --- ablations ---

   Every build switch, registered once by name: the promotion-config
   overrides of the bench sweep (A, E, F, G, H and a round-limit probe)
   and the backend stages that can be turned off.  Ablations B-D are
   level choices and already reachable via
   [-l baseline|conservative|alat-heuristic]. *)

type ablation =
  | No_invala
  | No_control_spec
  | Cascade
  | Single_round
  | No_layout
  | No_sched
  | No_bundle
  | No_split
  | No_pressure
  | No_prob

let all_ablations =
  [ No_invala; No_control_spec; Cascade; Single_round; No_layout; No_sched;
    No_bundle; No_split; No_pressure; No_prob ]

let ablation_name = function
  | No_invala -> "no-invala"
  | No_control_spec -> "no-control-spec"
  | Cascade -> "cascade"
  | Single_round -> "single-round"
  | No_layout -> "no-layout"
  | No_sched -> "no-sched"
  | No_bundle -> "no-bundle"
  | No_split -> "no-split"
  | No_pressure -> "no-pressure"
  | No_prob -> "no-prob"

let ablation_of_string s =
  List.find_opt (fun a -> ablation_name a = s) all_ablations

let parse_ablation s =
  match ablation_of_string s with
  | Some a -> Ok a
  | None ->
    Error
      (Fmt.str "unknown ablation %S (expected one of: %s)" s
         (String.concat ", " (List.map ablation_name all_ablations)))

let canonical_ablations (l : ablation list) : ablation list =
  List.filter (fun a -> List.mem a l) all_ablations

(* The backend ablations leave the config alone: [compile] reads them
   where it picks the regalloc policy and the layout/bundle inputs. *)
let apply_ablation (a : ablation) (c : Srp_core.Config.t) : Srp_core.Config.t =
  match a with
  | No_invala -> { c with Srp_core.Config.use_invala = false }
  | No_control_spec -> { c with Srp_core.Config.control_spec = false }
  | Cascade -> { c with Srp_core.Config.cascade = true }
  | Single_round -> { c with Srp_core.Config.max_rounds = 1 }
  | No_pressure -> { c with Srp_core.Config.pressure = false }
  | No_prob -> { c with Srp_core.Config.prob = false }
  | No_layout | No_sched | No_bundle | No_split -> c

let config_of_level (level : level) (profile : Alias_profile.t option) :
    Srp_core.Config.t option =
  match level, profile with
  | O0, _ -> None
  | Conservative, _ -> Some Srp_core.Config.conservative
  | Baseline, _ -> Some Srp_core.Config.baseline
  | Alat, Some p -> Some (Srp_core.Config.alat ~profile:p)
  | Alat, None -> Some Srp_core.Config.alat_heuristic
  | Alat_heuristic, _ -> Some Srp_core.Config.alat_heuristic

let ablated_config level profile ablations =
  Option.map
    (fun c -> List.fold_left (Fun.flip apply_ablation) c ablations)
    (config_of_level level profile)

type compiled = {
  level : level;
  ablations : ablation list;
  split : bool; (* hole-aware regalloc with live-range splitting *)
  ir : Program.t;
  target : Srp_target.Insn.program;
  promote : Srp_core.Promote.result option;
}

(* Per-function pressure estimator handed to the promoter (srp_core cannot
   see srp_target, so the driver closes the loop): instruction selection
   plus a discarded allocator run over every function, snapshotted in one
   pass at the first request.  The first request arrives before any
   candidate commits, so every frame is the pristine unpromoted one and
   the snapshot is promotion-order independent; later rounds reuse it.

   [peak_int] is the projected co-resident stacked-register demand: the
   function's own allocated frame plus the largest other frame in the
   program — the two-deep call-stack model (main + one leaf at a time)
   that matches these kernels' measured max_stacked_regs exactly.  The
   RSE spills whole co-resident stacks, so a function whose own frame
   looks modest is still over budget when it sits under (or over) a fat
   partner frame.  Always computed against the default (hole-aware)
   policy — the estimate feeds the promote stage, whose content key must
   not depend on the downstream no-split ablation. *)
let pressure_fn (prog : Program.t) :
    string -> Srp_core.Promote.pressure option =
  let memo : (string, Srp_core.Promote.pressure option) Hashtbl.t =
    Hashtbl.create 16
  in
  let snapshot () =
    let open Srp_target in
    let ests =
      List.map
        (fun f ->
          let s = Codegen.select_func f in
          ( Func.name f,
            Regalloc.estimate
              { Regalloc.code = s.Codegen.sel_code;
                nivregs = s.Codegen.sel_nivregs;
                nfvregs = s.Codegen.sel_nfvregs;
                live_in = s.Codegen.sel_live_in;
                flive_in = s.Codegen.sel_flive_in;
                pinned = s.Codegen.sel_pinned;
                fpinned = s.Codegen.sel_fpinned;
                spill_base = s.Codegen.sel_frame_bytes } ))
        (Program.funcs prog)
    in
    List.iter
      (fun (name, e) ->
        let partner =
          List.fold_left
            (fun acc (n, o) ->
              if n = name then acc else max acc o.Regalloc.est_frame_int)
            0 ests
        in
        let stacked = e.Regalloc.est_frame_int + partner in
        Hashtbl.replace memo name
          (Some
             { Srp_core.Promote.webs = e.Regalloc.est_webs;
               peak_int = stacked;
               peak_fp = e.Regalloc.est_frame_fp;
               spill_traffic = max 0 (stacked - Machine_model.rse_pool) }))
      ests
  in
  fun name ->
    if Hashtbl.length memo = 0 then snapshot ();
    match Hashtbl.find_opt memo name with Some r -> r | None -> None

(* --- the staged pipeline --- *)

(* Each stage helper returns (key, artifact-payload).  [cache] is an
   optional Stage.store: with one, artifacts are shared and reused across
   builds; without one, stages still run in the staged order (single
   lower, explicit clones) but nothing is retained. *)

(* Every stage build runs under a span ("stage.lower", ..., category
   "stage") carrying the content key, so a span file shows which builds
   ran, on which domain, against which artifact — cache hits emit no
   build span (the store emits a "cache.hit" instant instead). *)
let staged name ~key (build : unit -> Stage.artifact) () : Stage.artifact =
  Srp_obs.Span.with_span ~cat:"stage" ("stage." ^ name)
    ~args:[ ("key", Srp_obs.Json.String key) ]
    build

let lower_stage cache (source : string) : string * Program.t =
  let key = Stage.Key.lower ~source in
  ( key,
    Stage.as_lowered
      (Stage.get cache ~key
         ~build:
           (staged "lower" ~key (fun () ->
                Stage.Lowered (Srp_frontend.Lower.compile_source source)))) )

(* Input application works on a clone: the lowered artifact is shared by
   every build of this source, so baking an input set into it in place
   would corrupt every other consumer (see the regression tests). *)
let apply_stage cache ~(lower_key : string) (lowered : Program.t)
    (input : Workload.input) : string * Program.t =
  let key = Stage.Key.apply ~lower_key input in
  ( key,
    Stage.as_applied
      (Stage.get cache ~key
         ~build:
           (staged "apply-input" ~key (fun () ->
                let prog = Program.clone lowered in
                Workload.apply_input prog input;
                Stage.Applied prog))) )

let profile_stage cache ~(applied_key : string) (applied : Program.t) :
    string * Alias_profile.t =
  let key = Stage.Key.profile ~applied_key in
  ( key,
    Stage.as_profiled
      (Stage.get cache ~key
         ~build:
           (staged "profile" ~key (fun () ->
                Srp_obs.Stats.time ~pass:"profile" "train_interp" @@ fun () ->
                let interp = Srp_profile.Interp.create applied in
                ignore (Srp_profile.Interp.run interp);
                Stage.Profiled (Srp_profile.Interp.profile interp)))) )

(* Promotion mutates the program, so it too clones its (shared) input
   artifact.  At O0 there is no promotion: the applied artifact flows
   through unpromoted, under a key that still separates it from promoted
   siblings. *)
let promote_stage cache ~(applied_key : string) (applied : Program.t)
    (config : Srp_core.Config.t option) :
    string * Program.t * Srp_core.Promote.result option =
  let config_fp =
    match config with
    | None -> "none"
    | Some c -> Stage.Key.config_fingerprint c
  in
  let key = Stage.Key.promote ~applied_key ~config:config_fp in
  let art =
    Stage.get cache ~key
      ~build:
        (staged "promote" ~key (fun () ->
             match config with
             | None -> Stage.Applied applied
             | Some config ->
               let ir = Program.clone applied in
               let result =
                 Srp_core.Promote.run ~config ~pressure:(pressure_fn ir) ir
               in
               Stage.Promoted (ir, Some result)))
  in
  let ir, result = Stage.as_promoted art in
  (key, ir, result)

let select_stage cache ~(promote_key : string) (ir : Program.t) :
    string * Srp_target.Codegen.selected list =
  let key = Stage.Key.select ~promote_key in
  ( key,
    Stage.as_selected
      (Stage.get cache ~key
         ~build:
           (staged "select" ~key (fun () ->
                Stage.Selected (Srp_target.Codegen.select_program ir)))) )

let regalloc_stage cache ~(select_key : string) ~(split : bool)
    (sel : Srp_target.Codegen.selected list) :
    string * Srp_target.Codegen.allocated list =
  let key = Stage.Key.regalloc ~select_key ~split in
  let ra =
    if split then Srp_target.Regalloc.default_policy
    else Srp_target.Regalloc.closed_policy
  in
  ( key,
    Stage.as_allocated
      (Stage.get cache ~key
         ~build:
           (staged "regalloc" ~key (fun () ->
                Stage.Allocated (Srp_target.Codegen.alloc_program ~ra sel)))) )

let layout_stage cache ~(regalloc_key : string) ~(layout : bool)
    (al : Srp_target.Codegen.allocated list) :
    string * Srp_target.Codegen.allocated list =
  let key = Stage.Key.layout ~regalloc_key ~layout in
  ( key,
    Stage.as_allocated
      (Stage.get cache ~key
         ~build:
           (staged "layout" ~key (fun () ->
                Stage.Allocated
                  (if layout then Srp_target.Codegen.layout_program al else al)))) )

(* Scheduling and bundling share one stage: the scheduler's output only
   ever flows into the bundler (or the flat fallback), so a separate
   artifact would never be shared across different downstream settings. *)
let bundle_stage cache ~(layout_key : string) ~(sched : bool)
    ~(bundle : bool) (al : Srp_target.Codegen.allocated list) :
    string * Srp_target.Insn.func list =
  let key = Stage.Key.bundle ~layout_key ~sched ~bundle in
  ( key,
    Stage.as_bundled
      (Stage.get cache ~key
         ~build:
           (staged "bundle" ~key (fun () ->
                Stage.Bundled
                  (Srp_target.Codegen.bundle_program ~sched ~bundle al)))) )

(* Collect an alias profile by interpreting the program on the train
   input, via the lower / apply-input / profile stages — the train run
   reuses the same lower artifact as the ref build. *)
let train_profile ?cache (w : Workload.t) : Alias_profile.t =
  let lower_key, lowered = lower_stage cache w.Workload.source in
  let applied_key, applied =
    apply_stage cache ~lower_key lowered w.Workload.train
  in
  snd (profile_stage cache ~applied_key applied)

(* Compile [w] at [level]; the ref input is applied to the globals before
   code generation (static data), the profile comes from the train run.
   [ablations] are put in canonical form and recorded in the result: the
   config ones flow through the promote content key (no effect at O0,
   which runs no promotion at all), the backend ones through the
   regalloc, layout and bundle stage keys.  The [layout] .. [prob] labels
   only exist for the benchmark harness under perfbench/: each [false] is
   the same as listing its ablation. *)
let compile ?cache ?profile ?(ablations = []) ?(layout = true)
    ?(sched = true) ?(bundle = true) ?(split = true) ?(pressure = true)
    ?(prob = true) ~(input : Workload.input) (w : Workload.t) (level : level)
    : compiled =
  let ablations =
    canonical_ablations
      (ablations
      @ List.filter_map
          (fun (on, a) -> if on then None else Some a)
          [ (layout, No_layout); (sched, No_sched); (bundle, No_bundle);
            (split, No_split); (pressure, No_pressure); (prob, No_prob) ])
  in
  let on a = not (List.mem a ablations) in
  let lower_key, lowered = lower_stage cache w.Workload.source in
  let applied_key, applied = apply_stage cache ~lower_key lowered input in
  let promote_key, ir, promote =
    promote_stage cache ~applied_key applied
      (ablated_config level profile ablations)
  in
  let select_key, sel = select_stage cache ~promote_key ir in
  let split = on No_split in
  let regalloc_key, al = regalloc_stage cache ~select_key ~split sel in
  let layout_key, al =
    layout_stage cache ~regalloc_key ~layout:(on No_layout) al
  in
  let _bundle_key, fns =
    bundle_stage cache ~layout_key ~sched:(on No_sched)
      ~bundle:(on No_bundle) al
  in
  let target = Srp_target.Codegen.assemble_program ir fns in
  { level; ablations; split; ir; target; promote }

type run_result = {
  compiled : compiled;
  exit_code : int64;
  output : string;
  counters : Srp_machine.Counters.t;
  site_stats : Srp_obs.Site_hist.t;
}

let run ?fuel ?trace ?timeline (c : compiled) : run_result =
  let m = Srp_machine.Machine.create ?fuel ?trace ?timeline c.target in
  let exit_code = Srp_machine.Machine.run m in
  { compiled = c; exit_code;
    output = Srp_machine.Machine.output m;
    counters = Srp_machine.Machine.counters m;
    site_stats = Srp_machine.Machine.site_stats m }

(* The standard experiment: profile on train, compile at [level], run on
   ref.  Without an explicit [cache] an ephemeral store scoped to this
   run still shares the lower artifact between the train-profile and ref
   builds, so parse/lower fires once per distinct source (the seed path
   lowered the same source twice per alat run). *)
let profile_compile_run ?fuel ?trace ?timeline ?cache ?ablations
    (w : Workload.t) (level : level) : run_result =
  let cache =
    match cache with Some c -> c | None -> Stage.create ~capacity:16 ()
  in
  let profile =
    match level with
    | Alat -> Some (train_profile ~cache w)
    | O0 | Conservative | Baseline | Alat_heuristic -> None
  in
  let c = compile ~cache ?profile ?ablations ~input:w.Workload.ref_ w level in
  run ?fuel ?trace ?timeline c
