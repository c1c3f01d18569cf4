(* The benchmark harness: the ablations from DESIGN.md (rows A-H) and
   the speculation-threshold sweep, then a Bechamel micro-benchmark group
   over the compiler phases, a compile the stage store serves whole, and
   the simulator's issue logic, memory, per-site histogram and
   event-trace sink.  Figures 8-11 and the
   srp-bench-v1 document come from `srp bench`.

   Usage: dune exec bench/main.exe [-- --quick]
   (--quick runs the micro-benchmarks only) *)

open Srp_driver

let quick = Array.mem "--quick" Sys.argv
let section title = Fmt.pr "@.==== %s ====@.@." title

let () =
  let t0 = Unix.gettimeofday () in
  if not quick then begin
    (* ablations on a representative subset to keep the run short *)
    let subset =
      List.filter
        (fun w -> List.mem w.Workload.name [ "gzip"; "mcf"; "ammp"; "twolf" ])
        (Srp_workloads.Registry.all ())
    in
    let cache = Stage.create ~capacity:1024 () in
    List.iter
      (fun (title, table) ->
        section title;
        Fmt.pr "%s@." table)
      (Experiments.ablation_tables ~cache subset);
    Fmt.pr
      "Ablation F: the kernels contain no cascade patterns (promoted data\n\
       behind a speculatively promoted pointer), mirroring the paper's\n\
       section 4 note that its implementation kept cascades disabled.  The\n\
       mechanism itself (chk.a + recovery routines, Figure 4) is exercised\n\
       by the dedicated tests in test/test_core.ml.@.";
    section "Threshold sweep: cycles at ALAT as spec_threshold varies";
    Fmt.pr "%s@."
      (Experiments.threshold_sweep
         ~thresholds:[ 0.0; 0.01; 0.05; 0.25; 1.0 ] subset);
    Fmt.pr
      "t=0.0 admits only never-conflicting sites (the binary verdict plus\n\
       the check-traffic tax); t=1.0 — the default — delegates admission\n\
       wholly to the expected-value ledger.  Conflict rates in these\n\
       kernels are bimodal, either ~0 or ~1, so every threshold strictly\n\
       between behaves like t=0.0; at t=1.0 the always-conflict kills\n\
       enter the ledger, where the dual-scope rule prices each crossing\n\
       against the binary shape and only ever drops promotions whose\n\
       check traffic beats their saved latency.@."
  end;
  (* --- Bechamel micro-benchmarks of the compiler phases --- *)
  section "Compiler-phase micro-benchmarks (Bechamel)";
  let mcf = Srp_workloads.Registry.find "mcf" in
  let source = mcf.Workload.source in
  let parsed_prog () = Srp_frontend.Lower.compile_source source in
  let prog = parsed_prog () in
  let trained = parsed_prog () in
  Workload.apply_input trained mcf.Workload.train;
  let train_profile () =
    let i = Srp_profile.Interp.create trained in
    ignore (Srp_profile.Interp.run i);
    Srp_profile.Interp.profile i
  in
  let profile = train_profile () in
  let open Bechamel in
  (* the alias profile every alat build starts from: mcf's train input
     through the IR interpreter *)
  let test_interp =
    Test.make ~name:"profile: train interpretation (mcf)"
      (Staged.stage (fun () -> ignore (train_profile ())))
  in
  let test_parse =
    Test.make ~name:"frontend: parse+typecheck+lower (mcf)"
      (Staged.stage (fun () -> ignore (parsed_prog ())))
  in
  let test_andersen =
    Test.make ~name:"alias: andersen (mcf)"
      (Staged.stage (fun () -> ignore (Srp_alias.Andersen.run prog)))
  in
  let test_promote =
    Test.make ~name:"core: speculative promotion (mcf)"
      (Staged.stage (fun () ->
           let p = parsed_prog () in
           ignore
             (Srp_core.Promote.run
                ~config:(Srp_core.Config.alat ~profile) p)))
  in
  (* one promotion as a matrix cell runs it: the pipeline's alat config
     and pressure estimator over a clone of the input-applied program *)
  let test_promote_alat =
    let config =
      Option.get (Pipeline.config_of_level Pipeline.Alat (Some profile))
    in
    Test.make ~name:"core: promote mcf at alat"
      (Staged.stage (fun () ->
           let ir = Srp_ir.Program.clone trained in
           ignore
             (Srp_core.Promote.run ~config ~pressure:(Pipeline.pressure_fn ir) ir)))
  in
  (* one matrix cell that the stage store serves whole: every stage hits,
     so what is timed is the driver's own per-compile cost (stage keys,
     the input's digest, store lookups) *)
  let test_compile_warm =
    let gzip = Srp_workloads.Registry.find "gzip" in
    let cache = Stage.create () in
    let profile = Pipeline.train_profile ~cache gzip in
    let compile () =
      ignore
        (Pipeline.compile ~cache ~profile ~input:gzip.Workload.ref_ gzip
           Pipeline.Alat)
    in
    compile ();
    Test.make ~name:"driver: compile gzip at alat, warm store"
      (Staged.stage compile)
  in
  let test_codegen =
    Test.make ~name:"target: codegen (mcf)"
      (Staged.stage
         (let p = parsed_prog () in
          ignore (Srp_core.Promote.run ~config:Srp_core.Config.baseline p);
          fun () -> ignore (Srp_target.Codegen.gen_program p)))
  in
  let test_alat =
    Test.make ~name:"machine: 10k ALAT arm/check/probe ops"
      (Staged.stage (fun () ->
           let alat = Srp_machine.Alat.create () in
           for i = 0 to 9_999 do
             let tag = Srp_machine.Alat.int_tag ~frame:(i land 7) (i land 31) in
             ignore (Srp_machine.Alat.insert alat tag (i * 8));
             ignore (Srp_machine.Alat.check alat tag ~clear:false);
             ignore (Srp_machine.Alat.store_probe alat ((i * 24) land 0xffff))
           done))
  in
  (* the simulator's memory and per-site histogram, the two structures
     every simulated load and store goes through; memory is driven through
     the machine's entry points, native-int addresses and raw bits *)
  let module Memory = Srp_profile.Memory in
  let heap = Srp_alias.Location.Heap 0 in
  (* addresses and values are built outside the timed loop, so the
     words/run column is what Memory itself allocates *)
  let word = Bytes.create 8 in
  let test_mem_stream =
    Test.make ~name:"memory: 4k load/store streaming one region"
      (Staged.stage
         (let m = Memory.create () in
          let base = Int64.to_int (Memory.alloc m ~size:(8 * 4096) ~loc:heap) in
          let vals = Bytes.create (8 * 4096) in
          for i = 0 to 4095 do
            Bytes.set_int64_ne vals (8 * i) (Int64.of_int i)
          done;
          fun () ->
            for i = 0 to 4095 do
              Memory.store_bits m (base + (8 * i)) vals (8 * i) ~float:false;
              Memory.load_bits m (base + (8 * i)) word 0
            done))
  in
  let test_mem_hop =
    Test.make ~name:"memory: 4k loads hopping 64 heap regions"
      (Staged.stage
         (let m = Memory.create () in
          let bases =
            Array.init 64 (fun _ -> Int64.to_int (Memory.alloc m ~size:64 ~loc:heap))
          in
          let addrs = Array.init 4096 (fun i -> bases.(i land 63) + (8 * ((i lsr 6) land 7))) in
          fun () -> Array.iter (fun a -> Memory.load_bits m a word 0) addrs))
  in
  (* mcf's shape: a pointer chase over thousands of small heap regions in
     an order no last-hit slot follows *)
  let test_mem_chase =
    Test.make ~name:"memory: 4k loads chasing 4096 heap regions"
      (Staged.stage
         (let m = Memory.create () in
          let bases =
            Array.init 4096 (fun _ -> Int64.to_int (Memory.alloc m ~size:32 ~loc:heap))
          in
          (* 1531 is odd, so [i * 1531 mod 4096] visits every region once *)
          let addrs =
            Array.init 4096 (fun i -> bases.((i * 1531) land 4095) + (8 * (i land 3)))
          in
          fun () -> Array.iter (fun a -> Memory.load_bits m a word 0) addrs))
  in
  (* a loop that reads a frame slot and a global array element in turn:
     the pattern a single last-region slot misses on every access *)
  let test_mem_alternate =
    Test.make ~name:"memory: 4k loads alternating frame and global"
      (Staged.stage
         (let m = Memory.create () in
          let global = Int64.to_int (Memory.alloc m ~size:(8 * 2048) ~loc:heap) in
          let frame =
            Int64.to_int (Memory.alloc_at m ~base:0x4000_0000L ~size:64 ~loc:heap)
          in
          let addrs =
            Array.init 4096 (fun i ->
                if i land 1 = 0 then frame + (8 * ((i lsr 1) land 7))
                else global + (8 * (i lsr 1)))
          in
          fun () -> Array.iter (fun a -> Memory.load_bits m a word 0) addrs))
  in
  let test_site_hist =
    Test.make ~name:"obs: 10k Site_hist.record"
      (Staged.stage
         (let h = Srp_obs.Site_hist.create () in
          fun () ->
            for i = 0 to 9_999 do
              Srp_obs.Site_hist.record h ~site:((i land 255) - 1)
                (if i land 1 = 0 then Srp_obs.Site_hist.Loads_retired
                 else Srp_obs.Site_hist.Stores_retired)
            done))
  in
  (* the event-trace sink as the machine drives it: each event asks
     [admit] first, then writes a retire record field by field into the
     sink's buffer, which goes to /dev/null; past the bound, nothing is
     written *)
  let module Trace = Srp_obs.Trace in
  let k_f = Trace.key "f" and k_pc = Trace.key "pc" and k_op = Trace.key "op" in
  let trace_events sink =
    for pc = 0 to 9_999 do
      if Trace.admit sink then begin
        Trace.start sink ~cycle:pc "i";
        Trace.str sink k_f "main";
        Trace.int sink k_pc pc;
        Trace.str sink k_op "ld.a";
        Trace.finish sink
      end
    done
  in
  let devnull = open_out_bin Filename.null in
  let test_trace_written =
    Test.make ~name:"obs: 10k trace events written"
      (Staged.stage
         (let sink = Srp_obs.Trace.create ~limit:max_int devnull in
          fun () -> trace_events sink))
  in
  let test_trace_dropped =
    Test.make ~name:"obs: 10k trace events past the bound"
      (Staged.stage
         (let sink = Srp_obs.Trace.create ~limit:0 devnull in
          fun () -> trace_events sink))
  in
  (* the timeline as the machine drives it, on a fresh sink each run: a
     row every 1000 cycles, whose issue utilization takes 200 distinct
     values, so a fifth of the rows print a float text and the rest find
     it remembered *)
  let test_timeline_rows =
    Test.make ~name:"obs: 1k timeline rows written"
      (Staged.stage (fun () ->
           let tl =
             Srp_machine.Timeline.create
               (Srp_obs.Trace.create ~limit:max_int devnull)
           in
           let instrs = ref 0 in
           for i = 1 to 1_000 do
             let cycle = i * 1000 in
             if Srp_machine.Timeline.admit tl ~cycle then begin
               instrs := !instrs + 1000 + (i mod 200 * 7);
               Srp_machine.Timeline.row tl ~cycle ~alat_live:(i land 31)
                 ~rse_dirty:(i land 63) ~rse_clean:0 ~instrs:!instrs
                 ~l1_misses:(i * 3) ~l2_misses:i
             end
           done))
  in
  (* the simulator's issue logic on hand-built programs: bundle-wise
     dispersal of an ALU loop, and a pointer chase whose every iteration
     stalls on the scoreboard *)
  let module Insn = Srp_target.Insn in
  let program ?bundles ?(frame_bytes = 0) code ~nregs =
    let funcs = Hashtbl.create 1 in
    Hashtbl.replace funcs "main"
      { Insn.name = "main"; formals = []; code; bundles; nregs; nfregs = 0;
        frame_bytes; slot_of_sym = Hashtbl.create 1 };
    { Insn.funcs; func_order = [ "main" ]; globals = [] }
  in
  let test_dispersal =
    (* 5000 iterations of a two-bundle loop body *)
    let code =
      [| Insn.Movl { dst = 1; imm = 5000L }; Insn.Nop; Insn.Nop;
         Insn.Nop;
         Insn.Alu { op = Insn.Aadd; dst = 2; a = Insn.SReg 2; b = Insn.SImm 1L };
         Insn.Alu { op = Insn.Asub; dst = 1; a = Insn.SReg 1; b = Insn.SImm 1L };
         Insn.Nop;
         Insn.Alu { op = Insn.Acmp_gt; dst = 3; a = Insn.SReg 1; b = Insn.SImm 0L };
         Insn.Brc { cond = 3; ifso = 3; ifnot = 9; site = 1 };
         Insn.Nop; Insn.Nop; Insn.Ret { value = None } |]
    in
    let bundles =
      [| { Insn.tmpl = Insn.MII; stop = true }; { Insn.tmpl = Insn.MII; stop = true };
         { Insn.tmpl = Insn.MIB; stop = false }; { Insn.tmpl = Insn.MIB; stop = false } |]
    in
    let prog = program ~bundles code ~nregs:4 in
    Test.make ~name:"machine: 10k bundles dispersed"
      (Staged.stage (fun () -> ignore (Srp_machine.Machine.run_program prog)))
  in
  let test_scoreboard =
    (* [sp] holds its own address: each load's address is the previous
       load's result, and the add after it waits for the load *)
    let code =
      [| Insn.St { src = Insn.SReg Insn.sp; base = Insn.sp; site = 1 };
         Insn.Movl { dst = 1; imm = 10_000L };
         Insn.Mov { dst = Insn.DInt 2; src = Insn.SReg Insn.sp };
         Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt 2; base = 2; site = 2 };
         Insn.Alu { op = Insn.Aadd; dst = 3; a = Insn.SReg 3; b = Insn.SReg 2 };
         Insn.Alu { op = Insn.Asub; dst = 1; a = Insn.SReg 1; b = Insn.SImm 1L };
         Insn.Alu { op = Insn.Acmp_gt; dst = 4; a = Insn.SReg 1; b = Insn.SImm 0L };
         Insn.Brc { cond = 4; ifso = 3; ifnot = 8; site = 3 };
         Insn.Ret { value = None } |]
    in
    let prog = program ~frame_bytes:8 code ~nregs:5 in
    Test.make ~name:"machine: 10k scoreboard stalls"
      (Staged.stage (fun () -> ignore (Srp_machine.Machine.run_program prog)))
  in
  (* time and minor-heap allocation per run, so an allocation regression
     shows next to a slowdown *)
  let benchmark test =
    let clock = Toolkit.Instance.monotonic_clock
    and alloc = Toolkit.Instance.minor_allocated in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg [ clock; alloc ] test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let times = Analyze.all ols clock raw and words = Analyze.all ols alloc raw in
    let estimate results name =
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> Some est
      | Some _ | None -> None
    in
    Hashtbl.iter
      (fun name _ ->
        match estimate times name, estimate words name with
        | Some ns, Some w -> Fmt.pr "%-45s %12.0f ns/run %12.0f words/run@." name ns w
        | _ -> Fmt.pr "%-45s (no estimate)@." name)
      times
  in
  List.iter
    (fun t -> benchmark t)
    [ test_parse; test_andersen; test_interp; test_promote; test_promote_alat;
      test_compile_warm; test_codegen;
      test_alat;
      test_dispersal; test_scoreboard; test_mem_stream; test_mem_hop; test_mem_chase;
      test_mem_alternate;
      test_site_hist; test_trace_written; test_trace_dropped;
      test_timeline_rows ];
  Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
