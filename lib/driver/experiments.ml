(* The paper's experiment suite: one runner, then one function per
   figure plus the ablations DESIGN.md commits to, each a rendering over
   the runner's table.  [run] takes every (workload, build) through the
   full pipeline (profile on train, compile, execute on ref in the
   machine simulator) once and checks output equality between the builds
   of each workload — a bench run doubles as an end-to-end correctness
   check. *)

module C = Srp_machine.Counters

type bench_result = {
  w : Workload.t;
  base : Pipeline.run_result;
  spec : Pipeline.run_result;
}

exception Output_mismatch of string

(* A count read from the environment: unset or empty is [default];
   any other value must be an integer >= [min], or the error names the
   variable and the value.  [lookup] stands in for the environment in
   tests. *)
let env_count ?(lookup = Sys.getenv_opt) var ~default ~min =
  match lookup var with
  | None | Some "" -> Ok default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (Fmt.str "%s=%S: expected an integer >= %d" var s min))

(* The pool size: SRP_BENCH_JOBS when set (mostly for exercising the
   multi-domain path on single-core machines), else the runtime's
   recommended domain count. *)
let bench_jobs ?lookup () =
  env_count ?lookup "SRP_BENCH_JOBS"
    ~default:(Domain.recommended_domain_count ()) ~min:1

(* The worker-domain pool the suite (and `srp serve`) fans out on: hand
   task indices out by an atomic ticket counter, land every result in its
   submission slot so output order never depends on domain scheduling.
   The calling domain works too.  A malformed SRP_BENCH_JOBS fails with
   the message naming it. *)
let pool_map ~(ntasks : int) (f : int -> 'a) : ('a, exn) result array =
  let jobs =
    match bench_jobs () with Ok j -> j | Error msg -> failwith msg
  in
  let slots = Array.make ntasks None in
  let next = Atomic.make 0 in
  let worker () =
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= ntasks then continue_ := false
      else
        slots.(i) <-
          Some
            (try
               Ok
                 (Srp_obs.Span.with_span ~cat:"pool" "pool.task"
                    ~args:[ ("task", Srp_obs.Json.Int i) ]
                    (fun () -> f i))
             with e -> Error e)
    done
  in
  let helpers = max 0 (min (ntasks - 1) (jobs - 1)) in
  let domains = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Array.map (function Some r -> r | None -> assert false) slots

(* --- the runner --- *)

(* One build of the staged pipeline, profiled on train and run on ref by
   [Pipeline.profile_compile_run]: a level plus its ablations. *)
type build = { level : Pipeline.level; ablations : Pipeline.ablation list }

let canonical (b : build) : build =
  { b with ablations = Pipeline.canonical_ablations b.ablations }

(* "alat", "alat+no-bundle", ...: a build as the mismatch error names it *)
let build_name (b : build) : string =
  String.concat "+"
    (Pipeline.level_name b.level :: List.map Pipeline.ablation_name b.ablations)

(* Every run of one [run], by (workload name, canonical build). *)
type table = (string * build, Pipeline.run_result) Hashtbl.t

let find (t : table) (w : Workload.t) (b : build) : Pipeline.run_result =
  Hashtbl.find t (w.Workload.name, canonical b)

(* Run every workload at every build from a pool of worker domains
   (pool_map), one task per distinct (workload, canonical build), then
   check once per workload that all its builds printed the same output.
   The pipeline has no cross-run mutable state apart from the Stats
   registry and the optional stage cache, both domain-safe; with [cache]
   the builds of a workload share its lower, apply-input and train-profile
   artifacts, so the sweep lowers each source once. *)
let run ?fuel ?cache ~(builds : build list) (workloads : Workload.t list) :
    table =
  let builds =
    List.rev
      (List.fold_left
         (fun acc b ->
           let b = canonical b in
           if List.mem b acc then acc else b :: acc)
         [] builds)
  in
  let tasks =
    Array.of_list
      (List.concat_map (fun w -> List.map (fun b -> (w, b)) builds) workloads)
  in
  let slots =
    pool_map ~ntasks:(Array.length tasks) (fun i ->
        let w, b = tasks.(i) in
        Pipeline.profile_compile_run ?fuel ?cache ~ablations:b.ablations w
          b.level)
  in
  let t = Hashtbl.create (Array.length tasks) in
  Array.iteri
    (fun i (w, b) ->
      match slots.(i) with
      | Ok r -> Hashtbl.replace t (w.Workload.name, b) r
      | Error e -> raise e)
    tasks;
  List.iter
    (fun w ->
      match builds with
      | [] -> ()
      | b0 :: rest ->
        let out0 = (find t w b0).Pipeline.output in
        List.iter
          (fun b ->
            if (find t w b).Pipeline.output <> out0 then
              raise
                (Output_mismatch
                   (Fmt.str "%s: outputs differ between %s and %s"
                      w.Workload.name (build_name b0) (build_name b))))
          rest)
    workloads;
  t

let alat = { level = Pipeline.Alat; ablations = [] }
let at level = { alat with level }
let alat_with a = { alat with ablations = [ a ] }

(* The paper sweep: every workload at baseline and at alat.  [ablations]
   apply to the speculative build only — the baseline stays the fixed
   reference the figures are normalized against. *)
let sweep ?fuel ?cache ?(ablations = []) (workloads : Workload.t list) :
    bench_result list =
  let base = at Pipeline.Baseline and spec = { alat with ablations } in
  let t = run ?fuel ?cache ~builds:[ base; spec ] workloads in
  List.map (fun w -> { w; base = find t w base; spec = find t w spec }) workloads

(* --- the four figures --- *)

let figure8 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure8_row ~name:r.w.Workload.name
          ~base:r.base.Pipeline.counters ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure8 rows

let figure9 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure9_row ~name:r.w.Workload.name ~base:r.base ~spec:r.spec)
      rs
  in
  Report.render_figure9 rows

let figure10 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure10_row ~name:r.w.Workload.name ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure10 rows

let figure11 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure11_row ~name:r.w.Workload.name
          ~base:r.base.Pipeline.counters ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure11 rows

(* --- ablations --- *)

(* The ablation suite DESIGN.md commits to, as (title, label, build,
   label, build) rows; the gain column is the second build's cycle
   reduction over the first. *)
let ablations : (string * string * build * string * build) list =
  [ ( "Ablation A: invala.e strategy (Figure 2) on/off",
      "no-invala", alat_with Pipeline.No_invala, "invala", alat );
    ( "Ablation B: software run-time disambiguation vs ALAT",
      "software", at Pipeline.Baseline, "alat", alat );
    ( "Ablation C: conservative PRE vs software checks",
      "conservative", at Pipeline.Conservative,
      "software", at Pipeline.Baseline );
    ( "Ablation D: heuristic speculation vs alias profile",
      "heuristic", at Pipeline.Alat_heuristic, "profile", alat );
    ( "Ablation E: control speculation (ld.sa) on/off",
      "no-ld.sa", alat_with Pipeline.No_control_spec, "ld.sa", alat );
    ( "Ablation F: cascade promotion (section 2.4) on/off",
      "no-cascade", alat, "cascade", alat_with Pipeline.Cascade );
    ( "Ablation G: pre-bundle list scheduling on/off",
      "no-sched", alat_with Pipeline.No_sched, "sched", alat );
    ( "Ablation H: probabilistic expected-value speculation gate on/off",
      "no-prob", alat_with Pipeline.No_prob, "prob", alat ) ]

let render_compare ~label_a ~label_b rows =
  Srp_support.Pp_util.render_table
    ~header:[ "benchmark"; label_a ^ " cycles"; label_b ^ " cycles"; "gain %" ]
    ~rows:
      (List.map
         (fun (n, a, b, red) ->
           [ n; string_of_int a; string_of_int b; Fmt.str "%.2f" red ])
         rows)

(* The ablation suite over [workloads]: every distinct build of its rows
   runs once in one [run], then each row is rendered from that table as
   (title, cycle table). *)
let ablation_tables ?fuel ?cache (workloads : Workload.t list) :
    (string * string) list =
  let builds = List.concat_map (fun (_, _, a, _, b) -> [ a; b ]) ablations in
  let t = run ?fuel ?cache ~builds workloads in
  List.map
    (fun (title, label_a, a, label_b, b) ->
      let row w =
        let ca = (find t w a).Pipeline.counters.C.cycles
        and cb = (find t w b).Pipeline.counters.C.cycles in
        let red = 100.0 *. float_of_int (ca - cb) /. float_of_int (max 1 ca) in
        (w.Workload.name, ca, cb, red)
      in
      (title, render_compare ~label_a ~label_b (List.map row workloads)))
    ablations

(* Threshold sweep: cycles at ALAT as [spec_threshold] varies, against
   the binary-verdict column (no-prob), one row per workload.  The sweep
   drives {!Srp_core.Promote.run} directly, since [spec_threshold] has no
   pipeline route, and checks program output equality across every
   cell. *)
let threshold_sweep ?fuel ~(thresholds : float list)
    (workloads : Workload.t list) : string =
  let rows =
    List.map
      (fun w ->
        let profile = Pipeline.train_profile w in
        let run config =
          let ir = Srp_frontend.Lower.compile_source w.Workload.source in
          Workload.apply_input ir w.Workload.ref_;
          ignore
            (Srp_core.Promote.run ~config ~pressure:(Pipeline.pressure_fn ir)
               ir);
          let target = Srp_target.Codegen.gen_program ir in
          Srp_machine.Machine.run_program ?fuel target
        in
        let alat = Srp_core.Config.alat ~profile in
        let _, out0, c0 = run { alat with Srp_core.Config.prob = false } in
        let cells =
          List.map
            (fun t ->
              let _, out, c =
                run { alat with Srp_core.Config.spec_threshold = t }
              in
              if out <> out0 then
                raise
                  (Output_mismatch
                     (Fmt.str "%s: threshold-sweep outputs differ at %.3f!"
                        w.Workload.name t));
              c.C.cycles)
            thresholds
        in
        (w.Workload.name, c0.C.cycles, cells))
      workloads
  in
  Srp_support.Pp_util.render_table
    ~header:
      ("benchmark" :: "no-prob cycles"
      :: List.map (fun t -> Fmt.str "t=%.3f" t) thresholds)
    ~rows:
      (List.map
         (fun (n, c0, cells) ->
           n :: string_of_int c0 :: List.map string_of_int cells)
         rows)
