(* srp — the command-line driver.

   Subcommands:
     compile   parse + promote a MiniC file and dump IR or assembly
     run       compile and execute on the machine simulator
     profile   interpret a MiniC file and dump its alias profile
     ssa       print the promoter's speculative SSA form (figure 6 style)
     bench     run a workload (or the full sweep: Figures 8-11) at two
               levels and compare counters; --compare diffs two bench
               documents as a regression gate
     report    render wall-time tables and a text flamegraph from a
               --trace-spans file
     serve     batch compile-and-simulate daemon (JSON-lines on stdin)
     list      list the built-in SPEC-like workloads *)

open Cmdliner
module Pipeline = Srp_driver.Pipeline
module Workload = Srp_driver.Workload
module Emit = Srp_driver.Emit
module J = Srp_obs.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let level_names =
  String.concat ", " (List.map Pipeline.level_name Pipeline.all_levels)

let level_conv =
  let parse s =
    match Pipeline.level_of_string s with
    | Some l -> Ok l
    | None ->
      Error
        (`Msg (Fmt.str "unknown level %S (expected one of: %s)" s level_names))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Pipeline.level_name l))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")

let level_arg =
  Arg.(value & opt level_conv Pipeline.Alat
       & info [ "l"; "level" ] ~docv:"LEVEL"
           ~doc:("optimization level: " ^ level_names))

let asm_arg =
  Arg.(value & flag & info [ "S"; "asm" ] ~doc:"dump target assembly instead of IR")

let ablation_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Pipeline.parse_ablation s)),
      fun ppf a -> Fmt.string ppf (Pipeline.ablation_name a) )

let ablation_arg =
  Arg.(value & opt_all ablation_conv []
       & info [ "ablation" ] ~docv:"NAME"
           ~doc:
             ("build switch on top of the level (repeatable): "
             ^ String.concat ", "
                 (List.map Pipeline.ablation_name Pipeline.all_ablations)))

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"emit a machine-readable JSON document")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"stream a bounded per-cycle event trace (JSON lines) to FILE")

(* The closing message's drop count: the N of the file's
   {"ev":"truncated","dropped":N} record. *)
let pp_dropped ppf sink =
  let n = Srp_obs.Trace.dropped sink in
  if n > 0 then Fmt.pf ppf ", %d dropped" n

(* Run [f] with an optional trace sink streaming to [path]. *)
let with_trace path f =
  match path with
  | None -> f None
  | Some path ->
    let oc = open_out path in
    let sink = Srp_obs.Trace.create oc in
    Fun.protect
      ~finally:(fun () ->
        Srp_obs.Trace.close sink;
        close_out oc;
        Fmt.epr "trace written to %s (%d events%a)@." path
          (Srp_obs.Trace.emitted sink) pp_dropped sink)
      (fun () -> f (Some sink))

let trace_spans_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-spans" ] ~docv:"FILE"
           ~doc:"write wall-clock spans (schema srp-spans-v1, Chrome \
                 trace-event JSON — load in Perfetto or chrome://tracing) \
                 to FILE")

(* Run [f] with the process span tracer installed and streaming to
   [path]; every instrumented scope (stage builds, pool tasks, serve
   jobs, timed passes) in [f] lands in the file. *)
let with_spans path f =
  match path with
  | None -> f ()
  | Some path ->
    let oc = open_out path in
    let tracer = Srp_obs.Span.create ~out:oc () in
    Srp_obs.Span.install tracer;
    Fun.protect
      ~finally:(fun () ->
        Srp_obs.Span.uninstall ();
        Srp_obs.Span.close tracer;
        close_out oc;
        Fmt.epr "spans written to %s (%d events%s)@." path
          (Srp_obs.Span.emitted tracer)
          (if Srp_obs.Span.truncated tracer then ", truncated" else ""))
      f

let timeline_arg =
  Arg.(value & opt (some string) None
       & info [ "timeline" ] ~docv:"FILE"
           ~doc:"sample machine occupancy (ALAT live entries, RSE \
                 dirty/clean registers, issue utilization, cache misses) \
                 every N cycles to FILE as JSON lines (schema \
                 srp-timeline-v1)")

let timeline_interval_arg =
  Arg.(value & opt int 1000
       & info [ "timeline-interval" ] ~docv:"N"
           ~doc:"cycles between timeline samples (with --timeline)")

(* Run [f] with an optional timeline sampler writing to [path]. *)
let with_timeline path ~interval f =
  match path with
  | None -> f None
  | Some path ->
    let oc = open_out path in
    let sink = Srp_obs.Trace.create oc in
    let tl = Srp_machine.Timeline.create ~interval sink in
    Fun.protect
      ~finally:(fun () ->
        Srp_obs.Trace.close sink;
        close_out oc;
        Fmt.epr "timeline written to %s (%d rows%a)@." path
          (Srp_obs.Trace.emitted sink) pp_dropped sink)
      (fun () -> f (Some tl))

(* Run [f] over the MiniC source in [file]: a front-end error in it
   prints as [FILE:LINE:COL: message] and exits 1, instead of escaping as
   an internal error. *)
let with_source_errors file f =
  try f ()
  with e -> (
    match Srp_frontend.Lower.error_message e with
    | Some msg ->
      Fmt.epr "%s:%s@." file msg;
      exit 1
    | None -> raise e)

(* A malformed SRP_BENCH_JOBS (the worker pool's size) is a user error:
   checked before any work starts, it prints its message and exits 2. *)
let check_bench_jobs () =
  match Srp_driver.Experiments.bench_jobs () with
  | Ok _ -> ()
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    exit 2

(* Build a trivial single-input workload out of a source file so the
   pipeline's profile-then-compile flow applies unchanged. *)
let workload_of_file path =
  { Workload.name = Filename.basename path; description = "user program";
    source = read_file path; train = Workload.input [];
    ref_ = Workload.input [] }

let compile_cmd =
  let run file level asm ablations =
    with_source_errors file @@ fun () ->
    let w = workload_of_file file in
    let profile =
      match level with Pipeline.Alat -> Some (Pipeline.train_profile w) | _ -> None
    in
    let c =
      Pipeline.compile ?profile ~ablations ~input:w.Workload.ref_ w level
    in
    if asm then
      List.iter
        (fun name ->
          let f = Hashtbl.find c.Pipeline.target.Srp_target.Insn.funcs name in
          Fmt.pr "%a@." Srp_target.Insn.pp_func f)
        c.Pipeline.target.Srp_target.Insn.func_order
    else Fmt.pr "%a@." Srp_ir.Program.pp c.Pipeline.ir;
    (match c.Pipeline.promote with
    | Some r ->
      let s = r.Srp_core.Promote.stats in
      Fmt.epr
        "promotion: %d exprs, %d checks, %d invala.e@."
        s.Srp_core.Ssapre.exprs_promoted s.checks_inserted s.invala_inserted
    | None -> ())
  in
  Cmd.v (Cmd.info "compile" ~doc:"compile a MiniC file and dump IR/assembly")
    Term.(const run $ file_arg $ level_arg $ asm_arg $ ablation_arg)

let run_cmd =
  let run file level ablations json trace trace_spans timeline
      timeline_interval =
    with_source_errors file @@ fun () ->
    let w = workload_of_file file in
    let r =
      with_spans trace_spans (fun () ->
          with_timeline timeline ~interval:timeline_interval (fun timeline ->
              with_trace trace (fun trace ->
                  Pipeline.profile_compile_run ?trace ?timeline ~ablations w
                    level)))
    in
    if json then
      Fmt.pr "%s@." (J.to_string ~indent:2 (Emit.run_json ~name:w.Workload.name r))
    else begin
      print_string r.Pipeline.output;
      Fmt.epr "%a@." Srp_machine.Counters.pp r.Pipeline.counters;
      Fmt.epr "%a@." Srp_obs.Site_hist.pp_top_missers r.Pipeline.site_stats;
      Fmt.epr "%a@." Srp_obs.Site_hist.pp_top_mispredicts r.Pipeline.site_stats;
      Fmt.epr "--- pass statistics ---@.%s@?" (Srp_obs.Stats.report ())
    end;
    exit (Int64.to_int r.Pipeline.exit_code)
  in
  Cmd.v (Cmd.info "run" ~doc:"compile and execute on the machine simulator")
    Term.(const run $ file_arg $ level_arg $ ablation_arg $ json_arg $ trace_arg
          $ trace_spans_arg $ timeline_arg $ timeline_interval_arg)

let serve_cmd =
  let capacity_arg =
    Arg.(value & opt int 512
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"artifact store capacity (entries); least-recently-used \
                   artifacts are evicted beyond it")
  in
  let run capacity trace_spans =
    check_bench_jobs ();
    let lookup name =
      List.find_opt
        (fun w -> w.Workload.name = name)
        (Srp_workloads.Registry.all ())
    in
    let failed =
      with_spans trace_spans (fun () ->
          Srp_driver.Serve.serve ~lookup ~now:Unix.gettimeofday ~capacity
            stdin stdout)
    in
    if failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"batch compile-and-simulate daemon: JSON-lines jobs on stdin \
             (schema srp-serve-v1), one response line per job plus a \
             summary with compiles/sec, per-stage wall time, job latency \
             percentiles and the cache hit rate")
    Term.(const run $ capacity_arg $ trace_spans_arg)

let profile_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"save the profile to FILE")
  in
  let run file out_file =
    with_source_errors file @@ fun () ->
    let prog = Srp_frontend.Lower.compile_source (read_file file) in
    let code, out, profile = Srp_profile.Interp.run_program prog in
    print_string out;
    match out_file with
    | Some path ->
      let oc = open_out path in
      output_string oc (Srp_profile.Alias_profile.save profile);
      close_out oc;
      Fmt.epr "profile written to %s@." path
    | None ->
      Fmt.pr "exit code: %Ld@.--- alias profile ---@.%a" code
        Srp_profile.Alias_profile.pp profile
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"interpret, print or save the alias profile (-o FILE)")
    Term.(const run $ file_arg $ out_arg)

let ssa_cmd =
  let run file =
    with_source_errors file @@ fun () ->
    let w = workload_of_file file in
    let prog = Srp_frontend.Lower.compile_source w.Workload.source in
    let profile = Pipeline.train_profile w in
    Option.iter
      (fun config ->
        Fmt.pr "%a@?" Srp_core.Promote.pp_forms
          (Srp_core.Promote.round1_forms config prog))
      (Pipeline.config_of_level Pipeline.Alat (Some profile))
  in
  Cmd.v
    (Cmd.info "ssa"
       ~doc:"print the promoter's speculative SSA form at alat: per \
             round-1 candidate its scope and ledger, Phis, h-versions and \
             chi/chi_s kills")
    Term.(const run $ file_arg)

let bench_cmd =
  let name_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"WORKLOAD"
             ~doc:"workload name, \"all\" for the full sweep (default), or \
                   OLD.json with --compare")
  in
  let second_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"NEW.json" ~doc:"new document (with --compare)")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"write the JSON document to FILE")
  in
  let compare_arg =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"diff two srp-bench-v1 documents (OLD.json NEW.json) per \
                   kernel and level; exit 1 if any counter differs")
  in
  let parse_doc path =
    match J.of_string (read_file path) with
    | Ok doc -> doc
    | Error e ->
      Fmt.epr "error: %s: %s@." path e;
      exit 2
  in
  let run_compare ~old_path ~new_path =
    match
      Srp_driver.Report.Compare.compare_docs ~old_doc:(parse_doc old_path)
        ~new_doc:(parse_doc new_path)
    with
    | Error e ->
      Fmt.epr "error: %s@." e;
      exit 2
    | Ok [] -> Fmt.pr "no differences (%s -> %s)@." old_path new_path
    | Ok diffs ->
      Fmt.pr "%d counter difference(s):@.%s@?" (List.length diffs)
        (Srp_driver.Report.Compare.render diffs);
      exit 1
  in
  (* The paper sweep over the selection — every registry workload for
     "all" — at baseline and alat (+ ablations) over one shared store:
     Figures 8-11 as tables, or the srp-bench-v1 document with --json/-o. *)
  let run_sweep ~name ~ablations ~json ~out =
    let workloads =
      if name = "all" then Srp_workloads.Registry.all ()
      else [ Srp_workloads.Registry.find name ]
    in
    let cache = Srp_driver.Stage.create ~capacity:1024 () in
    let t0 = Unix.gettimeofday () in
    let rs = Srp_driver.Experiments.sweep ~cache ~ablations workloads in
    let wall_secs = Unix.gettimeofday () -. t0 in
    if json || out <> None then begin
      let cache_doc =
        Emit.cache_json ~stats:(Srp_driver.Stage.stats cache)
          ~compiles:(2 * List.length rs) ~wall_secs
      in
      let doc = Emit.bench_json ~cache:cache_doc rs in
      match out with
      | Some path ->
        Emit.write_file path doc;
        Fmt.epr "bench results written to %s@." path
      | None -> Fmt.pr "%s@." (J.to_string ~indent:2 doc)
    end
    else if name = "all" then begin
      Fmt.pr "--- figure 8 ---@.%s@." (Srp_driver.Experiments.figure8 rs);
      Fmt.pr "--- figure 9 ---@.%s@." (Srp_driver.Experiments.figure9 rs);
      Fmt.pr "--- figure 10 ---@.%s@." (Srp_driver.Experiments.figure10 rs);
      Fmt.pr "--- figure 11 ---@.%s@?" (Srp_driver.Experiments.figure11 rs)
    end
    else begin
      let r = List.hd rs in
      let base = r.Srp_driver.Experiments.base.Pipeline.counters
      and spec = r.Srp_driver.Experiments.spec in
      let f8 =
        Srp_driver.Report.figure8_row ~name ~base ~spec:spec.Pipeline.counters
      in
      Fmt.pr "%s: cycles -%.2f%%, data access -%.2f%%, loads -%.2f%%@." name
        f8.Srp_driver.Report.cpu_cycles_red f8.data_access_red f8.loads_red;
      Fmt.pr "--- baseline counters ---@.%a@." Srp_machine.Counters.pp base;
      Fmt.pr "--- speculative counters ---@.%a@." Srp_machine.Counters.pp
        spec.Pipeline.counters;
      Fmt.pr "%a@." Srp_obs.Site_hist.pp_top_missers spec.Pipeline.site_stats
    end
  in
  let run name second ablations json out compare trace_spans =
    if compare then
      match second with
      | Some new_path -> run_compare ~old_path:name ~new_path
      | None ->
        Fmt.epr "error: --compare needs OLD.json and NEW.json@.";
        exit 2
    else begin
      check_bench_jobs ();
      with_spans trace_spans (fun () -> run_sweep ~name ~ablations ~json ~out)
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"run a built-in workload (or the full sweep: Figures 8-11) at \
             baseline and alat, --ablation applying to every alat build \
             (--json/-o for the srp-bench-v1 document), or diff two bench \
             documents with --compare")
    Term.(const run $ name_arg $ second_arg $ ablation_arg $ json_arg
          $ out_arg $ compare_arg $ trace_spans_arg)

let report_cmd =
  let spanfile_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SPANFILE" ~doc:"an srp-spans-v1 trace-event file")
  in
  let top_arg =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"K"
             ~doc:"number of hot span paths in the flamegraph table")
  in
  let run file top_k =
    match J.of_string (read_file file) with
    | Error e ->
      Fmt.epr "error: %s: %s@." file e;
      exit 2
    | Ok doc -> (
      match Srp_driver.Report.Span_report.render ~top_k doc with
      | Error e ->
        Fmt.epr "error: %s: %s@." file e;
        exit 2
      | Ok s -> print_string s)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"render per-stage/per-domain wall-time tables and a text \
             flamegraph from a --trace-spans file")
    Term.(const run $ spanfile_arg $ top_arg)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Fmt.pr "%-8s %s@." w.Workload.name w.Workload.description)
      (Srp_workloads.Registry.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"list built-in workloads") Term.(const run $ const ())

let () =
  let doc = "speculative register promotion using ALAT (CGO 2003 reproduction)" in
  let info = Cmd.info "srp" ~doc in
  exit (Cmd.eval (Cmd.group info [ compile_cmd; run_cmd; profile_cmd; ssa_cmd; bench_cmd; report_cmd; serve_cmd; list_cmd ]))
