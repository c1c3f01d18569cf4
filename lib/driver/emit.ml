(* Structured emission: assemble the JSON documents behind `srp run --json`
   and `srp bench --json`.

   Two schemas:
   - "srp-run-v1": one execution — global counters, promotion statistics,
     process pass statistics, per-site event histogram and the top
     mis-speculating sites (the pfmon event-sampling stand-in);
   - "srp-bench-v1": one baseline-vs-speculative comparison per workload,
     carrying the Figure 8-11 rows machine-readably (the BENCH_*.json
     perf-trajectory feed).

   Per-event sums over the site histogram equal the matching global
   counters by construction; tests assert it. *)

module J = Srp_obs.Json
module C = Srp_machine.Counters
module Site_hist = Srp_obs.Site_hist

let promotion_json (s : Srp_core.Ssapre.stats) : J.t =
  J.Obj
    [ ("exprs_promoted", J.Int s.Srp_core.Ssapre.exprs_promoted);
      ("checks_inserted", J.Int s.Srp_core.Ssapre.checks_inserted);
      ("sw_checks_inserted", J.Int s.Srp_core.Ssapre.sw_checks_inserted);
      ("invala_inserted", J.Int s.Srp_core.Ssapre.invala_inserted);
      ("loads_inserted", J.Int s.Srp_core.Ssapre.loads_inserted);
      ("ld_sa_inserted", J.Int s.Srp_core.Ssapre.ld_sa_inserted);
      ("arms", J.Int s.Srp_core.Ssapre.arms);
      ("chk_a_inserted", J.Int s.Srp_core.Ssapre.chk_a_inserted) ]

(* The "top mis-speculating sites" rows: check-failure ranking with
   volumes and failure rates. *)
let top_missers_json ?(n = 10) (h : Site_hist.t) : J.t =
  J.Arr
    (List.map
       (fun (site, fails) ->
         let checks = Site_hist.count h ~site Site_hist.Checks_retired in
         J.Obj
           [ ("site", J.Int site);
             ("check_failures", J.Int fails);
             ("checks_retired", J.Int checks);
             ("failure_rate_pct",
              J.Float
                (if checks = 0 then 0.0
                 else 100.0 *. float_of_int fails /. float_of_int checks)) ])
       (Site_hist.top h Site_hist.Check_failures ~n))

(* The "top mispredicting branches" rows: branch sites ranked by static
   predictor misses, the per-site view of the branch_mispredicts counter. *)
let top_mispredicts_json ?(n = 10) (h : Site_hist.t) : J.t =
  J.Arr
    (List.map
       (fun (site, misses) ->
         J.Obj [ ("site", J.Int site); ("branch_mispredicts", J.Int misses) ])
       (Site_hist.top h Site_hist.Branch_mispredicts ~n))

(* One `srp run` execution. *)
let run_json ~name (r : Pipeline.run_result) : J.t =
  J.Obj
    [ ("schema", J.String "srp-run-v1");
      ("workload", J.String name);
      ("level", J.String (Pipeline.level_name r.Pipeline.compiled.Pipeline.level));
      ("ablations",
       J.Arr
         (List.map
            (fun a -> J.String (Pipeline.ablation_name a))
            r.Pipeline.compiled.Pipeline.ablations));
      ("exit_code", J.Int (Int64.to_int r.Pipeline.exit_code));
      ("output", J.String r.Pipeline.output);
      ("counters", C.to_json r.Pipeline.counters);
      ("promotion",
       match r.Pipeline.compiled.Pipeline.promote with
       | Some p -> promotion_json p.Srp_core.Promote.stats
       | None -> J.Null);
      ("pass_stats", Srp_obs.Stats.to_json ());
      ("site_histogram", Site_hist.to_json r.Pipeline.site_stats);
      ("top_misspeculating_sites", top_missers_json r.Pipeline.site_stats);
      ("top_mispredicting_branches", top_mispredicts_json r.Pipeline.site_stats) ]

(* Register demand of one build: the per-function physical file sizes the
   allocator settled on.  [total] is what the RSE sees (every call
   allocates the callee's frame), [max] is the widest single frame. *)
let nregs_json (r : Pipeline.run_result) : J.t =
  let tgt = r.Pipeline.compiled.Pipeline.target in
  let total = ref 0 and widest = ref 0 and ftotal = ref 0 in
  Hashtbl.iter
    (fun _ f ->
      total := !total + f.Srp_target.Insn.nregs;
      ftotal := !ftotal + f.Srp_target.Insn.nfregs;
      if f.Srp_target.Insn.nregs > !widest then widest := f.Srp_target.Insn.nregs)
    tgt.Srp_target.Insn.funcs;
  J.Obj
    [ ("nregs", J.Int !total);
      ("max_frame_nregs", J.Int !widest);
      ("nfregs", J.Int !ftotal);
      ("split", J.Bool r.Pipeline.compiled.Pipeline.split) ]

(* One baseline-vs-speculative comparison, as the bench harness computes
   it: the four figure rows plus both builds' raw counters. *)
let bench_entry_json (r : Experiments.bench_result) : J.t =
  let name = r.Experiments.w.Workload.name in
  let base = r.Experiments.base.Pipeline.counters in
  let spec = r.Experiments.spec.Pipeline.counters in
  J.Obj
    [ ("name", J.String name);
      ("regalloc",
       J.Obj
         [ ("baseline", nregs_json r.Experiments.base);
           ("alat", nregs_json r.Experiments.spec) ]);
      ("figure8", Report.fig8_json (Report.figure8_row ~name ~base ~spec));
      ("figure9",
       Report.fig9_json
         (Report.figure9_row ~name ~base:r.Experiments.base
            ~spec:r.Experiments.spec));
      ("figure10", Report.fig10_json (Report.figure10_row ~name ~spec));
      ("figure11", Report.fig11_json (Report.figure11_row ~name ~base ~spec));
      ("baseline_counters", C.to_json base);
      ("alat_counters", C.to_json spec);
      ("alat_top_misspeculating_sites",
       top_missers_json r.Experiments.spec.Pipeline.site_stats);
      ("branch_mispredicts",
       J.Obj
         [ ("baseline", J.Int base.C.branch_mispredicts);
           ("alat", J.Int spec.C.branch_mispredicts) ]);
      ("alat_top_mispredicting_branches",
       top_mispredicts_json r.Experiments.spec.Pipeline.site_stats) ]

(* The artifact-cache block of a bench run: store counters plus the
   sweep's effective build throughput.  [compiles] is the number of
   (workload, level) build-and-run tasks, [wall_secs] the sweep's
   wall-clock time. *)
let cache_json ~(stats : Stage.cache_stats) ~compiles ~wall_secs : J.t =
  J.Obj
    [ ("hits", J.Int stats.Stage.hits);
      ("misses", J.Int stats.Stage.misses);
      ("evictions", J.Int stats.Stage.evictions);
      ("hit_rate", J.Float (Stage.hit_rate stats));
      ("compiles", J.Int compiles);
      ("wall_secs", J.Float wall_secs);
      ("compiles_per_sec",
       J.Float
         (if wall_secs > 0.0 then float_of_int compiles /. wall_secs else 0.0))
    ]

(* One sweep's document; ["ablations"] is the canonical list its alat
   builds ran with (the baseline builds never take any). *)
let bench_json ?cache (rs : Experiments.bench_result list) : J.t =
  let ablations =
    match rs with
    | r :: _ -> r.Experiments.spec.Pipeline.compiled.Pipeline.ablations
    | [] -> []
  in
  J.Obj
    ([ ("schema", J.String "srp-bench-v1");
       ("ablations",
        J.Arr (List.map (fun a -> J.String (Pipeline.ablation_name a)) ablations));
       ("benchmarks", J.Arr (List.map bench_entry_json rs)) ]
    @ (match cache with None -> [] | Some c -> [ ("cache", c) ])
    @ [ ("pass_stats", Srp_obs.Stats.to_json ()) ])

let write_file path (doc : J.t) : unit =
  let oc = open_out path in
  output_string oc (J.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc
