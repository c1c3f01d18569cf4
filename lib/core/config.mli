(** Configuration of the register-promotion pass — the experiment matrix of
    the paper maps onto these knobs.

    Only decisions live here.  The machine the promoter prices against —
    load latencies, the check issue tax, the chk.a recovery penalty, the
    RSE pool and its spill price — is {!Srp_ir.Machine_model}, the same
    numbers the simulator charges, so no config can price a different
    machine than the one that runs the code. *)

(** How possibly-aliased promotions are protected at run time. *)
type check_style =
  | No_speculation
      (** conservative PRE only: a may-aliased store kills availability *)
  | Software
      (** address-compare + conditional update after aliased stores — the
          run-time disambiguation of Nicolau (1989), part of the ORC -O3
          baseline per section 5 of the paper; scalars only *)
  | Alat
      (** advanced loads + ALAT check statements — the paper's scheme *)

(** What evidence licenses ignoring a chi (paper section 3.1). *)
type speculation_policy =
  | Spec_never  (** nothing is speculative *)
  | Spec_heuristic  (** only singleton points-to sets *)
  | Spec_profile of Srp_profile.Alias_profile.t
      (** alias-profiling feedback: a chi is speculative when the profiled
          run never observed the store touching the location *)

type t = {
  check_style : check_style;
  policy : speculation_policy;
  control_spec : bool;
      (** allow ld.sa hoisting of loads into loop preheaders when the
          profile shows the loop body executing (section 2.3, Figure 3) *)
  use_invala : bool;
      (** plant invala.e on training-dead paths instead of inserting loads,
          turning downstream reads into lazy ld.c checks (Figure 2) *)
  max_rounds : int;
      (** bottom-up promotion rounds: 1 covers direct references only,
          3 covers [*p] and [**q] chains (section 3.2) *)
  cascade : bool;
      (** promote across checks of the address temp itself: the pointer's
          check becomes chk.a with a recovery routine reloading pointer and
          data (section 2.4, Figure 4).  Off by default, matching the
          paper's implementation note in section 4. *)
  pressure : bool;
      (** rank candidates by saved latency and stop promoting once the
          projected register demand exceeds the RSE pool
          ({!Srp_ir.Machine_model.rse_pool}), unless the candidate still
          pays for its marginal spill (a spill plus a fill at the RSE's
          per-register rate).  [false] reproduces promote-everything
          exactly (the no-pressure ablation). *)
  prob : bool;
      (** expected-value speculation gating over the probabilistic
          profile: kills speculate while their observed conflict rate
          stays at or under [spec_threshold], every check a candidate
          would plant is debited from its benefit (issue-slot tax plus
          P(conflict) x recovery price, the price including
          {!Srp_ir.Machine_model.check_recovery_penalty} for a cascade
          chk.a), and each candidate commits the
          cheaper of the threshold scope and the binary scope.  [false]
          reproduces the binary-verdict pipeline bit for bit (the
          no-prob ablation). *)
  spec_threshold : float;
      (** maximum tolerated per-execution conflict probability for a
          speculated kill; 1.0 (the default) delegates admission wholly
          to the expected-value ledger (swept in EXPERIMENTS.md) *)
}

(** PRE register promotion with no speculation of any kind. *)
val conservative : t

(** The ORC -O3 stand-in: conservative PRE plus software run-time
    disambiguation on scalars. *)
val baseline : t

(** The paper's system: ALAT speculation driven by an alias profile. *)
val alat : profile:Srp_profile.Alias_profile.t -> t

(** [alat] with the section 2.4 cascade extension enabled. *)
val alat_cascade : profile:Srp_profile.Alias_profile.t -> t

(** ALAT speculation from static heuristics only (no profile). *)
val alat_heuristic : t
