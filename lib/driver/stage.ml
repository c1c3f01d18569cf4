(* The staged pipeline's artifact layer: content-addressed keys, typed
   per-stage artifacts, and a bounded in-memory store.

   Every compile decomposes into named stages

     lower -> apply-input -> profile -> promote -> select (codegen)
           -> regalloc -> layout -> bundle

   and each stage's output is an immutable artifact addressed by the hash
   of everything that determines it: the stage name, the upstream stage
   keys, and the stage's own inputs (source text, input set, promotion
   config, backend flags).  An input set enters by the digest it carries
   (Workload.digest), taken once per input value, so a cache hit costs a
   few short hashes and never a pass over the input's words.  The store
   lives in memory for one process, so no artifact can outlive the code
   that built it and keys carry no version tags.  Two jobs that share a
   prefix of that graph share the artifacts — the bench sweep compiles ten
   kernels at two levels but lowers each source once, and `srp serve`
   shares the train-input alias profile across every build of a workload.

   Artifacts are immutable by contract: stages that need to mutate their
   input (input application, promotion) clone it first (Program.clone,
   which copies everything mutable and shares the read-only initializer
   payloads).  The store is domain-safe and dedupes in-flight builds —
   when two domains race to the same missing key, one builds and the other
   waits, so a parallel sweep still lowers each distinct source exactly
   once. *)

open Srp_ir
module Alias_profile = Srp_profile.Alias_profile
module Codegen = Srp_target.Codegen

type artifact =
  | Lowered of Program.t  (** pristine lowered source; never mutated *)
  | Applied of Program.t  (** clone of a [Lowered] with an input applied *)
  | Profiled of Alias_profile.t  (** train-input alias profile *)
  | Promoted of Program.t * Srp_core.Promote.result option
      (** clone of an [Applied] after promotion (None at O0: the applied
          program itself, unpromoted) *)
  | Selected of Codegen.selected list  (** instruction selection, per func *)
  | Allocated of Codegen.allocated list  (** post-regalloc (or post-layout) *)
  | Bundled of Srp_target.Insn.func list  (** final funcs, bundled or flat *)

(* A key resolved to an artifact of the wrong constructor: a key-derivation
   bug, never a user error. *)
exception Stage_mismatch of string

let mismatch what = raise (Stage_mismatch what)

(* --- content-addressed keys --- *)

module Key = struct
  (* Injective encoding: every part is length-prefixed, so no choice of
     separator can be confused by part contents (marshal bytes, source
     text).  MD5 (Digest) is plenty for an in-memory cache. *)
  let digest (parts : string list) : string =
    let buf = Buffer.create 128 in
    List.iter
      (fun p ->
        Buffer.add_string buf (string_of_int (String.length p));
        Buffer.add_char buf ':';
        Buffer.add_string buf p)
      parts;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let lower ~(source : string) = digest [ "lower"; source ]

  let apply ~(lower_key : string) (input : Workload.input) =
    digest [ "apply"; lower_key; Workload.digest input ]

  let profile ~(applied_key : string) = digest [ "profile"; applied_key ]

  (* The promotion config's content fingerprint: the whole record,
     marshalled, so a field added to Config.t reaches the key by
     construction.  A profile-driven policy is blanked out of the record
     and keyed by the profile's serialized form instead, so retraining (or
     a different train input) changes every downstream key. *)
  let config_fingerprint (c : Srp_core.Config.t) : string =
    let c, profile =
      match c.Srp_core.Config.policy with
      | Srp_core.Config.Spec_profile p ->
        ( { c with Srp_core.Config.policy = Srp_core.Config.Spec_never },
          "profile:" ^ Digest.to_hex (Digest.string (Alias_profile.save p)) )
      | Srp_core.Config.Spec_never | Srp_core.Config.Spec_heuristic -> (c, "")
    in
    digest [ "config"; profile; Marshal.to_string c [ Marshal.No_sharing ] ]

  let promote ~(applied_key : string) ~(config : string) =
    digest [ "promote"; applied_key; config ]

  let select ~(promote_key : string) = digest [ "select"; promote_key ]

  let regalloc ~(select_key : string) ~(split : bool) =
    digest [ "regalloc"; select_key; string_of_bool split ]

  let layout ~(regalloc_key : string) ~(layout : bool) =
    digest [ "layout"; regalloc_key; string_of_bool layout ]

  let bundle ~(layout_key : string) ~(sched : bool) ~(bundle : bool) =
    digest
      [ "bundle"; layout_key; string_of_bool sched; string_of_bool bundle ]
end

(* --- the bounded store --- *)

type cache_stats = { hits : int; misses : int; evictions : int }

type slot =
  | Ready of { art : artifact; mutable last_use : int }
  | Building  (** another caller is computing this key right now *)

type store = {
  capacity : int;
  tbl : (string, slot) Hashtbl.t;
  mutable ready : int; (* Ready slots in [tbl] *)
  mutable tick : int; (* LRU clock *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mu : Mutex.t;
  cond : Condition.t; (* signaled when a Building slot resolves *)
}

let create ?(capacity = 256) () : store =
  if capacity < 1 then Fmt.invalid_arg "Stage.create: capacity %d" capacity;
  { capacity; tbl = Hashtbl.create 64; ready = 0; tick = 0; hits = 0;
    misses = 0; evictions = 0; mu = Mutex.create ();
    cond = Condition.create () }

let stats (t : store) : cache_stats =
  Mutex.protect t.mu (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions })

let hit_rate (s : cache_stats) : float =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

(* Evict least-recently-used Ready entries down to capacity; Building
   slots are never evicted (a domain is about to fill them).  The table is
   scanned only when the running count of Ready slots is over capacity.
   Called with the store lock held. *)
let evict_locked (t : store) =
  while t.ready > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun key -> function
        | Ready r -> (
          match !victim with
          | Some (_, lu) when lu <= r.last_use -> ()
          | _ -> victim := Some (key, r.last_use))
        | Building -> ())
      t.tbl;
    match !victim with
    | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1;
      Srp_obs.Stats.incr (Srp_obs.Stats.counter ~pass:"cache" "evictions");
      Srp_obs.Span.instant ~cat:"cache" "cache.evict"
        ~args:[ ("key", Srp_obs.Json.String key) ];
      t.ready <- t.ready - 1
    | None -> assert false (* ready > capacity >= 1 *)
  done

let rec find_or_build (t : store) ~(key : string)
    ~(build : unit -> artifact) : artifact =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.tbl key with
  | Some (Ready r) ->
    t.tick <- t.tick + 1;
    r.last_use <- t.tick;
    t.hits <- t.hits + 1;
    Mutex.unlock t.mu;
    Srp_obs.Stats.incr (Srp_obs.Stats.counter ~pass:"cache" "hits");
    Srp_obs.Span.instant ~cat:"cache" "cache.hit"
      ~args:[ ("key", Srp_obs.Json.String key) ];
    r.art
  | Some Building ->
    (* another domain is building this key: wait for it to resolve, then
       look again (the slot may also have vanished if the builder failed,
       in which case this caller becomes the builder).  The span makes
       dedup stalls visible: its duration is time spent blocked on
       someone else's in-flight build of the same key. *)
    Srp_obs.Span.with_span ~cat:"cache" "cache.wait"
      ~args:[ ("key", Srp_obs.Json.String key) ]
      (fun () -> Condition.wait t.cond t.mu);
    Mutex.unlock t.mu;
    find_or_build t ~key ~build
  | None ->
    Hashtbl.replace t.tbl key Building;
    t.misses <- t.misses + 1;
    Mutex.unlock t.mu;
    Srp_obs.Stats.incr (Srp_obs.Stats.counter ~pass:"cache" "misses");
    Srp_obs.Span.instant ~cat:"cache" "cache.miss"
      ~args:[ ("key", Srp_obs.Json.String key) ];
    (match build () with
    | art ->
      Mutex.lock t.mu;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.tbl key (Ready { art; last_use = t.tick });
      t.ready <- t.ready + 1;
      evict_locked t;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      art
    | exception e ->
      Mutex.lock t.mu;
      Hashtbl.remove t.tbl key;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      raise e)

(* [get cache ~key ~build]: go through the store when one is provided;
   compute directly otherwise (the staged-but-uncached path). *)
let get (t : store option) ~(key : string) ~(build : unit -> artifact) :
    artifact =
  match t with None -> build () | Some t -> find_or_build t ~key ~build

(* --- typed accessors --- *)

let as_lowered = function Lowered p -> p | _ -> mismatch "lowered"
let as_applied = function Applied p -> p | _ -> mismatch "applied"
let as_profiled = function Profiled p -> p | _ -> mismatch "profiled"

let as_promoted = function
  | Promoted (p, r) -> (p, r)
  | Applied p -> (p, None) (* O0 shares the applied artifact unpromoted *)
  | _ -> mismatch "promoted"

let as_selected = function Selected s -> s | _ -> mismatch "selected"
let as_allocated = function Allocated a -> a | _ -> mismatch "allocated"
let as_bundled = function Bundled fs -> fs | _ -> mismatch "bundled"
