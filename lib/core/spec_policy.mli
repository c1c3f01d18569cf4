(** Speculation policy: the conflict probability of every may-def (chi) a
    promotion candidate crosses (paper section 3.1).  The promoter marks a
    kill chi_s when that probability is 0, or under probability gating at
    most the configured threshold.

    Call sites are judged against the callee's *dynamic mod rates*: the
    per-invocation touch frequencies of the locations its store sites (and
    transitively its callees') were observed writing under the training
    input, computed by a fixpoint over the call graph. *)

open Srp_ir

type t

val create : Program.t -> Config.speculation_policy -> t

(** Conflict probability of the indirect store at [site] against [loc]:
    the fraction of its training executions that touched it.  [n_targets]
    is the size of its static points-to set (used by the heuristic, which
    answers 0 or 1).  [Spec_never] always answers 1. *)
val store_conflict_prob :
  t -> site:Site.t -> n_targets:int -> Srp_alias.Location.t -> float

(** Conflict probability of the call at [site] to [callee] against [loc]:
    the callee's transitive per-invocation touch rate under training. *)
val call_conflict_prob :
  t -> callee:string -> site:Site.t -> Srp_alias.Location.t -> float

(** How many dynamic executions one static occurrence stands for: the
    training block count under a profile (0 for a never-executed block),
    1 per occurrence otherwise. *)
val occurrence_weight : t -> block_count:int -> int
