(* The paper's experiment suite: one function per figure, plus the
   ablations DESIGN.md commits to.  Each experiment runs the full pipeline
   (profile on train, compile, execute on ref in the machine simulator)
   and checks output equality between builds as it goes — a bench run
   doubles as an end-to-end correctness check. *)

module C = Srp_machine.Counters

type bench_result = {
  w : Workload.t;
  base : Pipeline.run_result;
  spec : Pipeline.run_result;
}

exception Output_mismatch of string

let promote_stats (r : Pipeline.run_result) : Srp_core.Ssapre.stats =
  match r.Pipeline.compiled.Pipeline.promote with
  | Some p -> p.Srp_core.Promote.stats
  | None -> Srp_core.Ssapre.empty_stats ()

(* The worker-domain pool the suite (and `srp serve`) fans out on: hand
   task indices out by an atomic ticket counter, land every result in its
   submission slot so output order never depends on domain scheduling.
   The calling domain works too; SRP_BENCH_JOBS overrides the pool size
   (mostly for exercising the multi-domain path on single-core
   machines). *)
let pool_map ~(ntasks : int) (f : int -> 'a) : ('a, exn) result array =
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
  let jobs =
    match Sys.getenv_opt "SRP_BENCH_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 1 )
    | None -> Domain.recommended_domain_count ()
  in
  let helpers = max 0 (min (ntasks - 1) (jobs - 1)) in
  let domains = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Array.map (function Some r -> r | None -> assert false) slots

(* Run one workload at baseline and ALAT levels and check equivalence.
   [ablations] apply to the speculative build only — the baseline stays
   the fixed reference the figures are normalized against.  [cache]
   shares stage artifacts between the two builds (one lower, one input
   application per input set). *)
let run_pair ?fuel ?cache ?ablations (w : Workload.t) : bench_result =
  let base = Pipeline.profile_compile_run ?fuel ?cache w Pipeline.Baseline in
  let spec =
    Pipeline.profile_compile_run ?fuel ?cache ?ablations w Pipeline.Alat
  in
  if base.Pipeline.output <> spec.Pipeline.output then
    raise
      (Output_mismatch
         (Fmt.str "%s: baseline and speculative outputs differ!" w.Workload.name));
  { w; base; spec }

(* Run the whole suite from a pool of worker domains (pool_map).  The
   work unit is one (workload, level) build-and-run — two tasks per
   workload — so the figure tables and the --json rows come out in
   registry order no matter how the domains are scheduled.  The pipeline
   has no cross-run mutable state apart from the Stats registry and the
   optional stage cache, both domain-safe; with [cache] the two builds of
   a workload share its lower and apply-input artifacts, so the sweep
   lowers each source once instead of thrice (train + 2 levels).  The
   baseline-vs-speculative output check happens after the join, exactly
   as in the sequential run_pair. *)
let run_all ?fuel ?cache (workloads : Workload.t list) : bench_result list =
  let ws = Array.of_list workloads in
  let n = Array.length ws in
  let ntasks = 2 * n in
  let run_task i =
    let w = ws.(i / 2) in
    let level = if i mod 2 = 0 then Pipeline.Baseline else Pipeline.Alat in
    Pipeline.profile_compile_run ?fuel ?cache w level
  in
  let slots = pool_map ~ntasks run_task in
  let result i =
    match slots.(i) with Ok r -> r | Error e -> raise e
  in
  List.init n (fun k ->
      let base = result (2 * k) and spec = result ((2 * k) + 1) in
      if base.Pipeline.output <> spec.Pipeline.output then
        raise
          (Output_mismatch
             (Fmt.str "%s: baseline and speculative outputs differ!"
                ws.(k).Workload.name));
      { w = ws.(k); base; spec })

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
        Report.figure9_row ~name:r.w.Workload.name
          ~base:(promote_stats r.base) ~spec:(promote_stats r.spec))
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

(* One side of an ablation: a build of the staged pipeline, profiled on
   train and run on ref by [Pipeline.profile_compile_run]. *)
type build = { level : Pipeline.level; ablations : Pipeline.ablation list }

let alat = { level = Pipeline.Alat; ablations = [] }
let at level = { alat with level }
let alat_with a = { alat with ablations = [ a ] }

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

(* Run one ablation row over [workloads], checking that both builds print
   the same output, and render its cycle table. *)
let run_ablation ?fuel ?cache (_title, label_a, a, label_b, b) workloads =
  let run w (bld : build) =
    Pipeline.profile_compile_run ?fuel ?cache ~ablations:bld.ablations w
      bld.level
  in
  List.map
    (fun w ->
      let ra = run w a and rb = run w b in
      if ra.Pipeline.output <> rb.Pipeline.output then
        raise
          (Output_mismatch
             (Fmt.str "%s: ablation outputs differ!" w.Workload.name));
      let ca = ra.Pipeline.counters.C.cycles
      and cb = rb.Pipeline.counters.C.cycles in
      let red = 100.0 *. float_of_int (ca - cb) /. float_of_int (max 1 ca) in
      (w.Workload.name, ca, cb, red))
    workloads
  |> render_compare ~label_a ~label_b

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
