(** Compilation pipelines — the experiment matrix of the paper.

    A compile is a chain of named stages (lower, apply-input, profile,
    promote, select, regalloc, layout, bundle), each producing an
    immutable artifact under a content-addressed key ({!Stage.Key}).
    Passing [?cache] (a {!Stage.store}) shares artifacts across builds —
    a bench sweep lowers each source once; [srp serve] shares the train
    profile across a whole batch.  A build is fully described by its
    {!level} and its canonical {!ablation} list.  The store only shares
    work: a build over a shared store yields the same target as a build
    without one, and that target computes what the IR interpreter
    computes on the same input (output and exit code). *)

open Srp_ir

(** The optimization levels the experiments compare. *)
type level =
  | O0  (** straight lowering, no promotion *)
  | Conservative  (** PRE register promotion, no speculation *)
  | Baseline
      (** the ORC -O3 stand-in: conservative PRE + software run-time
          disambiguation on scalars (paper section 4) *)
  | Alat
      (** the paper's system: ALAT speculation driven by an alias profile
          collected on the train input *)
  | Alat_heuristic  (** ALAT speculation from static heuristics only *)

val level_name : level -> string
val all_levels : level list
val level_of_string : string -> level option

(** Collect an alias profile by interpreting the workload on its train
    input.  With [?cache], the lowered program and the profile itself are
    shared artifacts (a later [compile] of the same workload reuses the
    lower stage; a later [train_profile] is a cache hit). *)
val train_profile : ?cache:Stage.store -> Workload.t -> Srp_profile.Alias_profile.t

val config_of_level :
  level -> Srp_profile.Alias_profile.t option -> Srp_core.Config.t option

(** Every build switch of the experiment matrix, registered once by name:
    the CLI's [--ablation], [srp serve]'s ["ablations"], the serve job
    key and the run JSON all go through {!all_ablations} and
    {!ablation_name}.  Ablations B-D of the sweep are level choices and
    are reachable via [-l]. *)
type ablation =
  | No_invala  (** disable the invala.e cold-path strategy (ablation A) *)
  | No_control_spec  (** disable ld.sa hoisting (ablation E) *)
  | Cascade  (** enable section-2.4 cascade promotion (ablation F) *)
  | Single_round  (** max_rounds = 1: direct references only *)
  | No_layout
      (** skip the post-regalloc block layout pass (loop rotation and
          fall-through chaining), to A/B the branch-layout contribution *)
  | No_sched
      (** skip the pre-bundle latency-aware list scheduler
          ({!Srp_target.Sched}) and bundle in source order (ablation G);
          bit-identical on every non-cycle counter *)
  | No_bundle
      (** skip IA-64 3-slot bundling: the machine issues from a flat
          instruction stream *)
  | No_split
      (** allocate one closed interval per vreg instead of hole-aware
          live ranges with splitting *)
  | No_pressure
      (** turn the promoter's pressure-aware candidate gate off:
          promote-everything exactly (a config override, so the promote
          content key records it) *)
  | No_prob
      (** turn the probabilistic expected-value speculation gate off: the
          exact binary-verdict legacy path (ablation H; a config
          override, recorded in the promote content key) *)

(** Every ablation, in canonical order. *)
val all_ablations : ablation list

val ablation_name : ablation -> string
val ablation_of_string : string -> ablation option

(** [ablation_of_string] with an error that names the input and lists
    the valid names. *)
val parse_ablation : string -> (ablation, string) result

(** The set of [l] in the order of {!all_ablations}, without
    duplicates: two lists describe the same build iff their canonical
    forms are equal. *)
val canonical_ablations : ablation list -> ablation list

(** The promotion-config override of an ablation; the four backend ones
    ([No_layout], [No_sched], [No_bundle], [No_split]) return the config
    unchanged. *)
val apply_ablation : ablation -> Srp_core.Config.t -> Srp_core.Config.t

type compiled = {
  level : level;
  ablations : ablation list;  (** canonical ({!canonical_ablations}) *)
  split : bool;
      (** [No_split] is not among [ablations]; kept for the benchmark
          harness, which builds [compiled] records itself *)
  ir : Program.t;  (** the (possibly promoted) IR *)
  target : Srp_target.Insn.program;
  promote : Srp_core.Promote.result option;
}

(** The per-function register-pressure estimator the promote stage feeds
    to {!Srp_core.Promote.run}: instruction selection plus the
    allocator's analysis prefix ({!Srp_target.Regalloc.estimate}) over
    the named function's current body, memoized by name.  Exposed for
    the benchmark harness under [perfbench/], which drives
    {!Srp_core.Promote.run} exactly as the promote stage does. *)
val pressure_fn : Program.t -> string -> Srp_core.Promote.pressure option

(** Compile a workload at a level; [input] (usually the ref input) is baked
    into the global initializers before promotion and code generation.
    [ablations] are put in canonical form and recorded in the result
    (the config ones have no effect at O0).  [cache] shares stage
    artifacts with other builds; without it the stages still run (one
    lower, clones before mutation) but retain nothing.

    [layout] .. [prob] (default on) exist only for the benchmark harness
    under [perfbench/]: each [false] is the same as listing [No_layout]
    .. [No_prob], and is recorded in [ablations] the same way.  Other
    callers pass ablations. *)
val compile :
  ?cache:Stage.store ->
  ?profile:Srp_profile.Alias_profile.t ->
  ?ablations:ablation list ->
  ?layout:bool ->
  ?sched:bool ->
  ?bundle:bool ->
  ?split:bool ->
  ?pressure:bool ->
  ?prob:bool ->
  input:Workload.input ->
  Workload.t ->
  level ->
  compiled

type run_result = {
  compiled : compiled;
  exit_code : int64;
  output : string;
  counters : Srp_machine.Counters.t;
  site_stats : Srp_obs.Site_hist.t;
      (** per-site event attribution (pfmon stand-in) *)
}

val run :
  ?fuel:int -> ?trace:Srp_obs.Trace.sink ->
  ?timeline:Srp_machine.Timeline.t -> compiled -> run_result

(** The standard experiment protocol: profile on train (for [Alat]),
    compile at [level], execute on ref.  Without an explicit [cache] an
    ephemeral store still shares the lower artifact between the train
    profile and the ref build, so parse/lower runs once per source. *)
val profile_compile_run :
  ?fuel:int ->
  ?trace:Srp_obs.Trace.sink ->
  ?timeline:Srp_machine.Timeline.t ->
  ?cache:Stage.store ->
  ?ablations:ablation list ->
  Workload.t ->
  level ->
  run_result
