(* Configuration of the register-promotion pass.  The experiment matrix of
   the paper maps onto these knobs:

   - baseline ORC -O3: [conservative] + [software_check] (the run-time
     disambiguation of [Nicolau 89] is enabled at O3; paper section 5);
   - the paper's contribution: [alat ~policy:(Profile p)];
   - ablations: heuristic speculation, no control speculation, invala.e
     strategy on/off. *)

type check_style =
  | No_speculation (* conservative PRE only *)
  | Software (* address-compare + conditional update after aliased stores *)
  | Alat (* advanced loads + ALAT checks *)

type speculation_policy =
  | Spec_never
  | Spec_heuristic (* singleton points-to sets only *)
  | Spec_profile of Srp_profile.Alias_profile.t

type t = {
  check_style : check_style;
  policy : speculation_policy;
  control_spec : bool; (* allow ld.sa hoisting into loop preheaders *)
  use_invala : bool; (* invala.e on cold paths instead of load insertion *)
  max_rounds : int; (* 1 = direct refs only; 3 covers *p and **q chains *)
  (* promote across checks of the address temp itself (paper section 2.4):
     the data check becomes chk.a with a recovery routine reloading both
     the pointer and the data.  Off by default, matching the paper's
     implementation note in section 4. *)
  cascade : bool;
  (* pressure-aware candidate selection: promote only while the projected
     register demand stays under the RSE pool, or when a candidate's saved
     load latency still beats its marginal spill cost above it (both
     priced from Srp_ir.Machine_model). *)
  pressure : bool;
  (* expected-value speculation gating over the probabilistic profile: a
     kill is speculated past while its observed conflict rate stays at or
     under [spec_threshold], and each check the candidate would plant is
     debited from its benefit before the pressure gate sees it — an
     issue-slot tax per expected execution plus P(conflict) x the real
     recovery price (one reload for ld.c, the machine's
     check_recovery_penalty + reload for a cascade chk.a).  The default
     threshold of 1.0 leaves admission entirely to that ledger: the
     candidate is also priced at the binary scope (threshold 0) and the
     cheaper shape is committed, so a crossing that does not pay for
     itself falls back to a hard kill.
     [prob = false] reproduces the binary-verdict pipeline bit for bit
     (the no-prob ablation): only P = 0 kills speculate and no check
     cost is charged. *)
  prob : bool;
  spec_threshold : float; (* max tolerated P(conflict) per crossed kill *)
}

let conservative =
  { check_style = No_speculation; policy = Spec_never; control_spec = false;
    use_invala = false; max_rounds = 3; cascade = false; pressure = true;
    prob = true; spec_threshold = 1.0 }

(* The ORC -O3 baseline: conservative PRE plus software run-time
   disambiguation on scalars. *)
let baseline = { conservative with check_style = Software }

let alat ~profile =
  { conservative with
    check_style = Alat; policy = Spec_profile profile; control_spec = true;
    use_invala = true }

(* the section 2.4 extension enabled: *p promoted even when p itself is
   speculative, repaired by chk.a recovery routines *)
let alat_cascade ~profile = { (alat ~profile) with cascade = true }

let alat_heuristic =
  { conservative with check_style = Alat; policy = Spec_heuristic }
