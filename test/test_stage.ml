(* The staged pipeline and its artifact cache.

   The load-bearing property: the store never changes what is built.
   For every kernel at every level, with and without no-prob (and on mcf
   under each ablation), a staged build over one shared store yields the
   same target as the monolithic build with no store; the targets only
   built here are also held to the IR interpreter.  Around it:
   content-key soundness (QCheck), artifact sharing and store bounds, the
   single-lower guarantee, per-job Stats scopes, and the apply-input
   independence regression. *)

open Srp_driver
module Stats = Srp_obs.Stats

let levels =
  [ Pipeline.O0; Pipeline.Conservative; Pipeline.Baseline; Pipeline.Alat;
    Pipeline.Alat_heuristic ]

(* train-as-ref, like the e2e suite: full-size ref inputs belong to the
   bench harness *)
let small name =
  let w = Srp_workloads.Registry.find name in
  { w with Workload.ref_ = w.Workload.train }

let kernels =
  [ "gzip"; "vpr"; "mcf"; "parser"; "bzip2"; "twolf"; "gap"; "ammp"; "art";
    "equake" ]

let digest (c : Pipeline.compiled) =
  Digest.string (Marshal.to_string c.Pipeline.target [])

(* --- staged = monolithic ---

   The monolithic build is the compile chain run with no store.  The
   staged build goes through one store shared by every build of the
   kernel, so later builds are served cached lower, apply, profile and
   promote artifacts.  The two must be the same target bytes; a stage
   that mutated a shared artifact in place (promotion without its clone,
   say) breaks this on every kernel.  test_e2e's "all levels agree"
   holds each level's default target to the interpreter; the targets
   only built here are simulated here against it. *)

type kernel = {
  name : string; w : Workload.t; cache : Stage.store;
  staged_profile : Srp_profile.Alias_profile.t;
  monolithic_profile : Srp_profile.Alias_profile.t }

let kernel name =
  let w = small name in
  let cache = Stage.create () in
  { name; w; cache; staged_profile = Pipeline.train_profile ~cache w;
    monolithic_profile = Pipeline.train_profile w }

let compile ?cache k profile level ablations =
  let profile = if level = Pipeline.Alat then Some profile else None in
  Pipeline.compile ?cache ?profile ~ablations ~input:k.w.Workload.ref_ k.w
    level

let cell k level ablations what =
  Fmt.str "%s at %s [%s]: %s" k.name (Pipeline.level_name level)
    (String.concat " " (List.map Pipeline.ablation_name ablations))
    what

(* The staged build of the cell, checked against its monolithic build. *)
let staged_build k level ablations =
  let staged = compile ~cache:k.cache k k.staged_profile level ablations in
  Alcotest.(check string)
    (cell k level ablations "staged = monolithic")
    (digest (compile k k.monolithic_profile level ablations))
    (digest staged);
  staged

(* Simulate [c] and check its output and exit code are the
   interpreter's run of the lowered program on the same input. *)
let check_interpreter k level ablations c =
  let code, out, _ =
    Test_random.interp_reference ~input:k.w.Workload.ref_ k.w.Workload.source
  in
  let r = Pipeline.run c and tag = cell k level ablations in
  Alcotest.(check string) (tag "output") out r.Pipeline.output;
  Alcotest.(check int64) (tag "exit code") code r.Pipeline.exit_code

let test_differential name () =
  let k = kernel name in
  List.iter (fun level -> ignore (staged_build k level [])) levels

(* The probability gate: under no-prob the staged build takes the legacy
   binary-verdict route and must still be the monolithic one.  At every
   level but Alat the gate is inert (those configs carry no speculation
   probabilities), so there the no-prob target is the default one; at
   Alat it is simulated against the interpreter. *)
let test_no_prob_differential name () =
  let k = kernel name in
  let ablations = [ Pipeline.No_prob ] in
  List.iter
    (fun level ->
      let default = compile ~cache:k.cache k k.staged_profile level [] in
      let off = staged_build k level ablations in
      if level = Pipeline.Alat then check_interpreter k level ablations off
      else
        Alcotest.(check string)
          (cell k level ablations "no-prob is inert")
          (digest default) (digest off))
    levels

(* Every ablation on its own at alat on one small kernel: staged =
   monolithic, and each distinct target simulated once against the
   interpreter. *)
let test_ablation_differential () =
  let k = kernel "mcf" in
  let simulated = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let c = staged_build k Pipeline.Alat [ a ] in
      if not (Hashtbl.mem simulated (digest c)) then begin
        Hashtbl.add simulated (digest c) ();
        check_interpreter k Pipeline.Alat [ a ] c
      end)
    Pipeline.all_ablations

(* --- ablation routing ---

   Each ablation reaches exactly the stage it changes: over one shared
   store, an ablated build after a default one rebuilds that stage and
   everything downstream of it, and hits every stage above.  The stage
   builds are read off the span tracer (a cache hit emits no build
   span). *)
let rebuilt_from = function
  | Pipeline.No_sched | Pipeline.No_bundle -> [ "bundle" ]
  | Pipeline.No_layout -> [ "layout"; "bundle" ]
  | Pipeline.No_split -> [ "regalloc"; "layout"; "bundle" ]
  | Pipeline.No_invala | Pipeline.No_control_spec | Pipeline.Cascade
  | Pipeline.Single_round | Pipeline.No_pressure | Pipeline.No_prob ->
    [ "promote"; "select"; "regalloc"; "layout"; "bundle" ]

let stages_built f =
  let module Span = Srp_obs.Span in
  let tracer = Span.create () in
  Span.install tracer;
  Fun.protect ~finally:Span.uninstall f;
  List.filter_map
    (fun (cat, name, _, _) ->
      if cat = "stage" then
        Some (String.sub name 6 (String.length name - 6))
      else None)
    (Span.totals tracer)
  |> List.sort compare

let test_ablation_routing () =
  let w = small "mcf" in
  let profile = Pipeline.train_profile w in
  let cache = Stage.create () in
  let build ablations =
    ignore
      (Pipeline.compile ~cache ~profile ~ablations ~input:w.Workload.ref_ w
         Pipeline.Alat)
  in
  build [];
  List.iter
    (fun a ->
      Alcotest.(check (list string))
        (Pipeline.ablation_name a ^ " rebuilds")
        (List.sort compare (rebuilt_from a))
        (stages_built (fun () -> build [ a ])))
    Pipeline.all_ablations

(* The benchmark harness's labelled flags are the ablations by another
   name: the same target, bit for bit, and the same recorded list. *)
let test_labels_are_ablations () =
  let w = small "mcf" in
  let profile = Pipeline.train_profile w in
  let input = w.Workload.ref_ in
  let digest (c : Pipeline.compiled) =
    Digest.string (Marshal.to_string c.Pipeline.target [])
  in
  List.iter
    (fun (a, labelled) ->
      let by_name =
        Pipeline.compile ~profile ~ablations:[ a ] ~input w Pipeline.Alat
      in
      let name = Pipeline.ablation_name a in
      Alcotest.(check string) (name ^ ": same target") (digest by_name)
        (digest labelled);
      Alcotest.(check (list string)) (name ^ ": same ablations")
        (List.map Pipeline.ablation_name by_name.Pipeline.ablations)
        (List.map Pipeline.ablation_name labelled.Pipeline.ablations))
    [ ( Pipeline.No_layout,
        Pipeline.compile ~profile ~layout:false ~input w Pipeline.Alat );
      ( Pipeline.No_sched,
        Pipeline.compile ~profile ~sched:false ~input w Pipeline.Alat );
      ( Pipeline.No_bundle,
        Pipeline.compile ~profile ~bundle:false ~input w Pipeline.Alat );
      ( Pipeline.No_split,
        Pipeline.compile ~profile ~split:false ~input w Pipeline.Alat );
      ( Pipeline.No_pressure,
        Pipeline.compile ~profile ~pressure:false ~input w Pipeline.Alat );
      ( Pipeline.No_prob,
        Pipeline.compile ~profile ~prob:false ~input w Pipeline.Alat ) ]

(* --- content-key soundness (QCheck) --- *)

(* A job descriptor exercising every field of a job: source, input,
   level, ablation set, machine config.  The property: [Serve.job_key] is
   injective on descriptors — equal keys iff equal descriptors. *)
type desc = {
  d_source : int; (* index into distinct sources *)
  d_input : int; (* index into distinct ref inputs *)
  d_level : int;
  d_ablations : bool list; (* inclusion mask over all_ablations *)
  d_fuel : int option;
}

let sources =
  [| "int main() { return 1; }"; "int main() { return 2; }" |]

let inputs = [| []; [ ("input_len", Srp_workloads.Input_gen.scalar_int 7) ] |]

let job_of_desc ?(arrange = Fun.id) (d : desc) : Serve.job =
  { Serve.j_id = Srp_obs.Json.Null;
    j_w =
      { Workload.name = "qcheck"; description = "";
        source = sources.(d.d_source); train = []; ref_ = inputs.(d.d_input) };
    j_level = List.nth Pipeline.all_levels d.d_level;
    j_ablations =
      arrange
        (List.filteri
           (fun i _ -> List.nth d.d_ablations i)
           Pipeline.all_ablations);
    j_fuel = d.d_fuel }

let gen_desc =
  let open QCheck.Gen in
  let* d_source = int_bound 1 in
  let* d_input = int_bound 1 in
  let* d_level = int_bound (List.length Pipeline.all_levels - 1) in
  let* d_ablations =
    flatten_l (List.map (fun _ -> bool) Pipeline.all_ablations)
  in
  let+ d_fuel = oneof [ return None; map (fun n -> Some (n + 1)) (int_bound 3) ] in
  { d_source; d_input; d_level; d_ablations; d_fuel }

let print_desc d =
  Fmt.str "{src=%d;in=%d;lvl=%d;abl=%a;fuel=%a}" d.d_source d.d_input
    d.d_level
    Fmt.(list ~sep:comma bool)
    d.d_ablations
    Fmt.(option int)
    d.d_fuel

let key_soundness =
  QCheck.Test.make ~count:500 ~name:"job keys: equal iff descriptors equal"
    (QCheck.make ~print:(QCheck.Print.pair print_desc print_desc)
       QCheck.Gen.(pair gen_desc gen_desc))
    (fun (d1, d2) ->
      let k1 = Serve.job_key (job_of_desc d1)
      and k2 = Serve.job_key (job_of_desc d2) in
      if d1 = d2 then k1 = k2 else k1 <> k2)

(* The ablation list enters the key as a set: any permutation, with any
   entries repeated, keys the same job. *)
let key_canonical =
  QCheck.Test.make ~count:200 ~name:"job keys: ablation order and repeats ignored"
    (QCheck.make ~print:(QCheck.Print.pair print_desc QCheck.Print.int)
       QCheck.Gen.(pair gen_desc (int_bound 1_000_000)))
    (fun (d, seed) ->
      let rng = Random.State.make [| seed |] in
      let scramble l =
        (l @ List.filter (fun _ -> Random.State.bool rng) l)
        |> List.map (fun a -> (Random.State.bits rng, a))
        |> List.sort compare |> List.map snd
      in
      Serve.job_key (job_of_desc d)
      = Serve.job_key (job_of_desc ~arrange:scramble d))

(* Stage keys directly: each input that must invalidate a stage does. *)
let test_stage_keys () =
  let distinct what l =
    let n = List.length (List.sort_uniq compare l) in
    Alcotest.(check int) (what ^ " keys distinct") (List.length l) n
  in
  distinct "lower"
    [ Stage.Key.lower ~source:"a"; Stage.Key.lower ~source:"b" ];
  let lk = Stage.Key.lower ~source:"a" in
  distinct "apply"
    [ Stage.Key.apply ~lower_key:lk [];
      Stage.Key.apply ~lower_key:lk
        [ ("x", Srp_workloads.Input_gen.scalar_int 1) ];
      Stage.Key.apply ~lower_key:(Stage.Key.lower ~source:"b") [] ];
  let ak = Stage.Key.apply ~lower_key:lk [] in
  distinct "promote"
    (List.map
       (fun c -> Stage.Key.promote ~applied_key:ak ~config:c)
       ("none"
       :: List.map Stage.Key.config_fingerprint
            [ Srp_core.Config.conservative; Srp_core.Config.baseline;
              Srp_core.Config.alat_heuristic;
              (* one case per Config field: a knob that did not reach the
                 fingerprint would be served a stale cached promote
                 artifact, silently undoing the setting *)
              { Srp_core.Config.baseline with
                Srp_core.Config.policy = Srp_core.Config.Spec_heuristic };
              (* a profile policy is keyed by the profile's content *)
              { Srp_core.Config.baseline with
                Srp_core.Config.policy =
                  Srp_core.Config.Spec_profile
                    (Srp_profile.Alias_profile.create ()) };
              { Srp_core.Config.baseline with
                Srp_core.Config.policy =
                  Srp_core.Config.Spec_profile
                    (let p = Srp_profile.Alias_profile.create () in
                     Srp_profile.Alias_profile.add_block_count p ~func:"main"
                       ~label_id:0 1;
                     p) };
              { Srp_core.Config.baseline with Srp_core.Config.control_spec = true };
              { Srp_core.Config.baseline with Srp_core.Config.use_invala = true };
              { Srp_core.Config.baseline with Srp_core.Config.max_rounds = 1 };
              { Srp_core.Config.baseline with Srp_core.Config.cascade = true };
              { Srp_core.Config.baseline with Srp_core.Config.pressure = false };
              { Srp_core.Config.baseline with Srp_core.Config.prob = false };
              { Srp_core.Config.baseline with
                Srp_core.Config.spec_threshold = 0.25 }
            ]));
  let pk = Stage.Key.promote ~applied_key:ak ~config:"none" in
  let sk = Stage.Key.select ~promote_key:pk in
  distinct "regalloc"
    [ Stage.Key.regalloc ~select_key:sk ~split:true;
      Stage.Key.regalloc ~select_key:sk ~split:false ];
  let rk = Stage.Key.regalloc ~select_key:sk ~split:true in
  distinct "layout"
    [ Stage.Key.layout ~regalloc_key:rk ~layout:true;
      Stage.Key.layout ~regalloc_key:rk ~layout:false ];
  let yk = Stage.Key.layout ~regalloc_key:rk ~layout:true in
  (* the sched and bundle knobs share the stage: all four settings must
     key distinctly or a no-sched build could be served a scheduled
     artifact *)
  distinct "bundle"
    [ Stage.Key.bundle ~layout_key:yk ~sched:true ~bundle:true;
      Stage.Key.bundle ~layout_key:yk ~sched:true ~bundle:false;
      Stage.Key.bundle ~layout_key:yk ~sched:false ~bundle:true;
      Stage.Key.bundle ~layout_key:yk ~sched:false ~bundle:false ]

(* Identical builds through one store share artifacts physically. *)
let test_artifact_sharing () =
  let w = small "mcf" in
  let cache = Stage.create () in
  let r1 = Pipeline.profile_compile_run ~cache w Pipeline.Baseline in
  let r2 = Pipeline.profile_compile_run ~cache w Pipeline.Baseline in
  Alcotest.(check bool) "promoted IR physically shared" true
    (r1.Pipeline.compiled.Pipeline.ir == r2.Pipeline.compiled.Pipeline.ir);
  Alcotest.(check string) "same output" r1.Pipeline.output r2.Pipeline.output

(* --- the single-lower guarantee (the seed double-lower bug) --- *)

let test_single_lower () =
  let w = small "twolf" in
  Stats.reset ();
  ignore (Pipeline.profile_compile_run w Pipeline.Alat);
  (match Stats.find ~pass:"frontend" "parse" with
  | Some (calls, _) ->
    Alcotest.(check int) "parse/lower once per distinct source" 1 calls
  | None -> Alcotest.fail "no frontend/parse statistic recorded");
  match Stats.find ~pass:"profile" "train_interp" with
  | Some (calls, _) ->
    Alcotest.(check int) "one train interpretation" 1 calls
  | None -> Alcotest.fail "no profile/train_interp statistic recorded"

(* --- per-job Stats scopes --- *)

(* Two domains bump different counters concurrently inside their own
   scopes; neither scope may see the other's counts (the global registry
   sees both). *)
let test_scope_isolation () =
  let iters = 10_000 in
  let bump name () =
    for _ = 1 to iters do
      Stats.incr (Stats.counter ~pass:"test_scope" name)
    done
  in
  let d1 = Domain.spawn (fun () -> Stats.with_scope (bump "alpha")) in
  let d2 = Domain.spawn (fun () -> Stats.with_scope (bump "beta")) in
  let (), s1 = Domain.join d1 in
  let (), s2 = Domain.join d2 in
  Alcotest.(check int) "scope 1 own counter" iters
    (Stats.Scope.value s1 ~pass:"test_scope" "alpha");
  Alcotest.(check int) "scope 1 clean of scope 2" 0
    (Stats.Scope.value s1 ~pass:"test_scope" "beta");
  Alcotest.(check int) "scope 2 own counter" iters
    (Stats.Scope.value s2 ~pass:"test_scope" "beta");
  Alcotest.(check int) "scope 2 clean of scope 1" 0
    (Stats.Scope.value s2 ~pass:"test_scope" "alpha")

(* --- store bounds and in-flight dedup --- *)

let test_eviction () =
  let cache = Stage.create ~capacity:2 () in
  let get k = ignore (Stage.get (Some cache) ~key:k ~build:(fun () -> Stage.Bundled [])) in
  get "k1";
  get "k2";
  get "k3";
  (* k1 is the LRU victim *)
  let s = Stage.stats cache in
  Alcotest.(check int) "evictions" 1 s.Stage.evictions;
  Alcotest.(check int) "misses" 3 s.Stage.misses;
  get "k2";
  get "k1";
  let s = Stage.stats cache in
  Alcotest.(check int) "k2 still resident" 1 s.Stage.hits;
  Alcotest.(check int) "k1 rebuilt after eviction" 4 s.Stage.misses

let test_inflight_dedup () =
  let cache = Stage.create () in
  let builds = Atomic.make 0 in
  let racers = 4 in
  let domains =
    List.init racers (fun _ ->
        Domain.spawn (fun () ->
            Stage.get (Some cache) ~key:"same" ~build:(fun () ->
                Atomic.incr builds;
                (* widen the in-flight window so waiters actually wait *)
                ignore (Sys.opaque_identity (Array.make 100_000 0));
                Stage.Bundled [])))
  in
  List.iter (fun d -> ignore (Domain.join d)) domains;
  Alcotest.(check int) "one build for racing domains" 1 (Atomic.get builds);
  let s = Stage.stats cache in
  Alcotest.(check int) "every racer accounted" racers
    (s.Stage.hits + s.Stage.misses)

(* --- apply-input independence (the copy-on-write regression) --- *)

(* Two builds of one workload with different inputs, from one cached
   lower artifact, must not see each other's input: re-building with the
   first input must reproduce the first output exactly. *)
let test_apply_input_independence () =
  let w = Srp_workloads.Registry.find "gzip" in
  let cache = Stage.create () in
  let build input =
    Pipeline.run
      (Pipeline.compile ~cache ~input w Pipeline.Baseline)
  in
  let a1 = build w.Workload.train in
  let b = build w.Workload.ref_ in
  let a2 = build w.Workload.train in
  Alcotest.(check bool) "different inputs give different outputs" true
    (a1.Pipeline.output <> b.Pipeline.output);
  Alcotest.(check string) "first input reproducible after second"
    a1.Pipeline.output a2.Pipeline.output;
  Alcotest.(check bool) "train build artifact shared, not rebuilt" true
    (a1.Pipeline.compiled.Pipeline.ir == a2.Pipeline.compiled.Pipeline.ir)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " staged = monolithic") `Slow
        (test_differential name))
    kernels
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ " --no-prob legacy path") `Slow
          (test_no_prob_differential name))
      kernels
  @ [ Alcotest.test_case "mcf staged = monolithic under each ablation" `Slow
        test_ablation_differential;
      Alcotest.test_case "each ablation rebuilds exactly its stages" `Quick
        test_ablation_routing;
      Alcotest.test_case "compile labels = named ablations" `Quick
        test_labels_are_ablations;
      QCheck_alcotest.to_alcotest key_soundness;
      QCheck_alcotest.to_alcotest key_canonical;
      Alcotest.test_case "stage keys invalidate per input" `Quick
        test_stage_keys;
      Alcotest.test_case "identical builds share artifacts" `Quick
        test_artifact_sharing;
      Alcotest.test_case "alat run lowers each source once" `Quick
        test_single_lower;
      Alcotest.test_case "scopes isolate concurrent domains" `Quick
        test_scope_isolation;
      Alcotest.test_case "LRU eviction respects capacity" `Quick test_eviction;
      Alcotest.test_case "racing builds dedup in flight" `Quick
        test_inflight_dedup;
      Alcotest.test_case "apply-input leaves shared artifacts intact" `Slow
        test_apply_input_independence ]
