(** Register promotion driver — the paper's primary contribution.

    Runs bottom-up rounds of per-expression SSAPRE over every function of a
    program, in place (paper section 3.2: [p] before [*p] before [**p]):
    round 1 promotes direct references; later rounds promote indirect
    references through address temps exposed by earlier rounds.  The alias
    analyses and mod/ref summaries are recomputed between rounds because
    each round manufactures new temps.

    After promotion the program contains multiple-definition temps plus
    [Check]/[Invala]/[Sw_check] pseudo-instructions; it is no longer
    interpretable by {!Srp_profile.Interp} but compiles via
    {!Srp_target.Codegen} and runs on {!Srp_machine.Machine}. *)

type result = {
  stats : Ssapre.stats;  (** whole-program promotion statistics *)
  per_func : (string * Ssapre.stats) list;
}

(** Per-function register-pressure summary fed back from the backend's
    allocator (injected by the driver — srp_core cannot depend on
    srp_target). *)
type pressure = {
  webs : int;  (** allocation entities across both classes *)
  peak_int : int;  (** must-reside integer peak, stack pointer included *)
  peak_fp : int;
  spill_traffic : int;  (** projected registers beyond the RSE pool *)
}

(** [run ~config ~pressure prog] promotes every function of [prog] in
    place and returns the statistics.  Defaults to {!Config.baseline}.

    [pressure] maps a function name to its register-pressure estimate;
    when supplied and [config.pressure] is set, candidates are ranked by
    weighted saved load latency and promoted only while the projected
    class pressure stays within {!Srp_ir.Machine_model.rse_pool} — above
    it a candidate must still out-pay its spill round-trip.  Without the
    callback (or with [config.pressure = false], the no-pressure
    ablation) every candidate that passes its own ledger verdict
    ({!accepts} without a pool) is promoted. *)
val run :
  ?config:Config.t ->
  ?pressure:(string -> pressure option) ->
  Srp_ir.Program.t ->
  result

(** The one verdict on a candidate's ledger ({!Ssapre.assessment}): it
    has work, it passes the expected-value gate (a nonzero check bill
    must leave a positive net saving, the paper's
    P x recovery < saved latency), and, given
    [pool = (projected, spill_occ)], the projected register count stays
    within {!Srp_ir.Machine_model.rse_pool} or the net saving beats
    {!Srp_ir.Machine_model.spill_cost} x [spill_occ]. *)
val accepts : ?pool:int * int -> Ssapre.assessment -> bool

(** A round's candidates of a function, in the order {!run} assesses and
    commits them: direct references, then indirect ones. *)
val candidates : Srp_ir.Func.t -> Expr.key list

(** [contexts config prog f]: the contexts SSAPRE reads for the
    candidates of [f], built as every round of {!run} builds them.  The
    whole-program alias and mod analyses and the speculation policy run
    once per [contexts config prog]. *)
val contexts :
  Config.t -> Srp_ir.Program.t -> Srp_ir.Func.t ->
  Ssapre.codemotion_ctx * Expr.collect_ctx

(** A candidate's scope choice ({!choose_scope}). *)
type choice = {
  scope : Expr.collect_ctx;  (** the scope the promoter commits *)
  gate : Ssapre.assessment;
      (** the ledger the verdict ({!accepts}) and the ranking read: the
          threshold scope's, or the binary scope's when that is judged on
          its own *)
  ledger : Ssapre.assessment;  (** the committed scope's own ledger *)
  prepared : Ssapre.prepared;  (** the committed scope's form *)
}

(** [choose_scope cm_ctx collect f key]: under probability gating, assess
    [key] at the configured threshold and at the binary verdict and pick
    the scope to commit (the one that nets more, ties to binary); without
    gating, the one scope [collect] names.  Committing [prepared] with
    {!Ssapre.commit} is committing the choice. *)
val choose_scope :
  Ssapre.codemotion_ctx -> Expr.collect_ctx -> Srp_ir.Func.t -> Expr.key -> choice

(** The pressure gate's state for one function: its estimate and the
    registers accepted promotions have claimed, across rounds. *)
type budget

(** [budgets ?pressure config prog f]: [f]'s budget as {!run} keeps it,
    or [None] when the gate is off for [f]. *)
val budgets :
  ?pressure:(string -> pressure option) -> Config.t -> Srp_ir.Program.t ->
  Srp_ir.Func.t -> budget option

(** [select ?budget cm_ctx collect f keys]: the candidates {!run}
    accepts among [keys], in order, each chosen ({!choose_scope}) on [f]
    as it stands; with a budget, greedily by net saving through the
    pool test, claiming a register per acceptance. *)
val select :
  ?budget:budget -> Ssapre.codemotion_ctx -> Expr.collect_ctx -> Srp_ir.Func.t ->
  Expr.key list -> (Expr.key * choice) list

(** One candidate's speculative SSA form (paper sections 3.1-3.3): the
    SSAPRE analysis the promoter commits from ([choice.prepared]: Phis,
    versions and check plans), with the scope and ledger that decide
    it. *)
type form = { fn : Srp_ir.Func.t; key : Expr.key; choice : choice }

(** Round 1 of {!run} on [prog] with nothing committed: every candidate
    in {!run}'s order, with the scope, ledger and form {!choose_scope}
    gives it on the unedited program, exactly the forms round 1 selects
    and commits from. *)
val round1_forms : Config.t -> Srp_ir.Program.t -> form list

(** Per candidate: its scope and ledger (saved, bill), then block by
    block each Phi with its operand per predecessor and each occurrence
    and kill with its h-version ({!Ssapre.pp_prepared}). *)
val pp_forms : Format.formatter -> form list -> unit
