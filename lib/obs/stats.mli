(** Pass statistics — an LLVM [-stats] style registry.

    Compiler phases report named counters and timers into one
    process-global table; the driver renders it with {!report} (a table
    like [llvm -stats]) or {!to_json}.  The registry accumulates across
    runs in the same process; {!reset} clears it.  Instrumentation sites
    should look counters up at use time ([Stats.add (Stats.counter ...)]),
    not cache handles across resets.  All operations are domain-safe: the
    bench harness feeds the registry from a pool of worker domains. *)

type counter

(** Find-or-create the counter [(pass, name)]. Idempotent. *)
val counter : pass:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Raise the counter to [n] if it is below (high-water marks). *)
val set_max : counter -> int -> unit

val value : counter -> int

(** Read the statistic [(pass, name)] without creating it:
    [(count_or_calls, seconds)]. *)
val find : pass:string -> string -> (int * float) option

(** [time ~pass name f] runs [f ()], accumulating its monotonic
    wall-clock time ({!Clock.now}) and call count under the timer
    [(pass, name)].  When a {!Span} tracer is installed, the scope also
    emits a span named ["pass.name"] (category ["pass"]).
    Exception-safe. *)
val time : pass:string -> string -> (unit -> 'a) -> 'a

(** Render every statistic, ordered by (pass, name) — deterministic even
    when counters were registered from concurrent domains. *)
val report : unit -> string

val to_json : unit -> Json.t

(** Drop all statistics. *)
val reset : unit -> unit

(** {1 Per-job scopes}

    The registry is process-global, which conflates concurrent daemon
    jobs: an [srp serve] response must carry the pass statistics of its
    own job only.  {!with_scope} installs a domain-local shadow registry
    for the extent of [f]: every counter bump and timer tick inside [f]
    (on this domain) lands in both the global table and the returned
    scope.  Scopes are per-domain, so jobs running on different worker
    domains never bleed into each other's scopes; work a job waits on
    (another domain's in-flight stage build) is charged to the builder,
    not the waiter.  Nested scopes shadow the outer one for their
    extent. *)

module Scope : sig
  type t

  (** [(pass, name, count_or_calls, seconds)], sorted by (pass, name);
      [seconds] is 0 for plain counters. *)
  val entries : t -> (string * string * int * float) list

  (** Counter value / timer call count in this scope; 0 if absent. *)
  val value : t -> pass:string -> string -> int

  val to_json : t -> Json.t
end

(** Run [f] with a fresh scope active on the calling domain; returns
    [f ()]'s result and the scope. *)
val with_scope : (unit -> 'a) -> 'a * Scope.t
