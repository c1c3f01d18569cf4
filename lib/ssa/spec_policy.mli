(** Speculation policy: decides which chi/mu operations are *speculative*
    (paper section 3.1) — an update/use of location L at site s is marked
    chi_s/mu_s when, per the policy, it is unlikely to touch L at runtime.

    Call sites are judged against the callee's *dynamic mod set*: the union
    of locations its store sites (and transitively its callees') were
    observed writing under the training input, computed by a fixpoint over
    the call graph. *)

open Srp_ir

type mode =
  | Never  (** the conservative baseline: nothing is speculative *)
  | Heuristic
      (** no profile: speculate only when the static points-to set is not
          a singleton (the paper's "heuristic rules" stand-in) *)
  | Profile of Srp_profile.Alias_profile.t  (** the paper's scheme *)

type t

val create : Program.t -> mode -> t

(** Conflict probability of the indirect store at [site] against [loc]:
    the fraction of its training executions that touched it.  [n_targets]
    is the size of its static points-to set (used by the heuristic, which
    answers 0 or 1).  [Never] always answers 1. *)
val store_conflict_prob :
  t -> site:Site.t -> n_targets:int -> Srp_alias.Location.t -> float

(** Conflict probability of the call at [site] to [callee] against [loc]:
    the callee's transitive per-invocation touch rate under training. *)
val call_conflict_prob :
  t -> callee:string -> site:Site.t -> Srp_alias.Location.t -> float

(** May the indirect store at [site] touch [loc]?  Exactly
    [store_conflict_prob > 0], which preserves the legacy set-membership
    verdict.  [false] licenses a chi_s. *)
val store_may_touch : t -> site:Site.t -> n_targets:int -> Srp_alias.Location.t -> bool

(** May the call at [site] to [callee] modify [loc]?  Exactly
    [call_conflict_prob > 0]. *)
val call_may_touch : t -> callee:string -> site:Site.t -> Srp_alias.Location.t -> bool

(** How many dynamic executions one static occurrence stands for: the
    training block count under a profile (0 for a never-executed block),
    1 per occurrence otherwise. *)
val occurrence_weight : t -> block_count:int -> int
