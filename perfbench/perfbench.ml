(* The repository benchmark: drives the compiler and simulator through
   their public entry points, checks every output against the IR
   interpreter, and reports end-to-end metrics (untraced run) or
   per-layer metrics (traced run, --trace 1).

   Usage (normally through perfbench/run.py):
     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       --calib-ref R --refs DIR [--spans FILE] [--tmp DIR]
     perfbench.exe regen-refs --refs DIR
     perfbench.exe check-refs --refs DIR
     perfbench.exe calibrate
     perfbench.exe unit --benchmark BENCHMARK.json --tmp DIR

   Everything runs in this one process, on one domain.  See README.md
   for the workloads, the metrics and the noise model. *)

open Srp_driver
module Counters = Srp_machine.Counters
module Codegen = Srp_target.Codegen

let span = Spans.with_span
let now = Srp_obs.Clock.now
let warn fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- the metric table: the one place names and units are written --- *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("alat_cycles_gmean", "Mcycles");
    ("baseline_cycles_gmean", "Mcycles"); ("code_kslots", "kslots");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("frontend.lower_s", "s"); ("frontend.ir_kinstrs", "kinstrs");
    ("profile.interp_s", "s"); ("profile.interp_mwords", "Mwords");
    ("core.promote_s", "s"); ("core.promote_mwords", "Mwords");
    ("core.exprs_promoted", "count"); ("core.checks_inserted", "count");
    ("target.select_s", "s"); ("target.regalloc_s", "s");
    ("target.layout_s", "s"); ("target.bundle_s", "s");
    ("target.mwords", "Mwords"); ("target.nop_kslots", "kslots");
    ("driver.compile_s", "s"); ("driver.self_s", "s");
    ("driver.store_hits", "count"); ("driver.store_misses", "count");
    ("machine.run_s", "s"); ("machine.minstr", "Minstrs");
    ("machine.ns_per_instr", "ns/instr");
    ("machine.words_per_instr", "words/instr");
    ("machine.data_access_mcycles", "Mcycles");
    ("machine.rse_kcycles", "kcycles"); ("machine.split_stalls_k", "k");
    ("machine.mispredicts_k", "k"); ("machine.check_failures", "count");
    ("machine.alat_evictions", "count"); ("machine.l1_misses_k", "k");
    ("obs.trace_events", "count"); ("obs.trace_dropped", "count");
    ("obs.timeline_rows", "count"); ("obs.ns_per_instr_overhead", "ns/instr");
    ("obs.words_per_instr", "words/instr"); ("bench.calib_s", "s");
    ("bench.raw_setup_s", "s"); ("bench.raw_wall_s", "s");
    ("bench.trace_overhead", "ratio"); ("bench.residue_s", "s") ]

(* --- small numeric helpers --- *)

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> invalid_arg "median of nothing"
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let gmean (xs : float list) : float =
  match xs with
  | [] -> invalid_arg "gmean of nothing"
  | _ ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let shuffle rng (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- reference outputs (interpreter only, never the compiler) --- *)

let ref_path dir name = Filename.concat dir (name ^ ".out")

let interpret (w : Workload.t) (input : Workload.input) : int64 * string =
  let prog = Srp_frontend.Lower.compile_source w.Workload.source in
  Workload.apply_input prog input;
  let it = Srp_profile.Interp.create ~collect_profile:false prog in
  let code = Srp_profile.Interp.run it in
  (code, Srp_profile.Interp.output it)

let encode_ref (code, out) = Printf.sprintf "exit %Ld\n%s" code out

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_ref dir name : int64 * string =
  let s = read_file (ref_path dir name) in
  match String.index_opt s '\n' with
  | Some i when String.length s > 5 && String.sub s 0 5 = "exit " ->
    ( Int64.of_string (String.sub s 5 (i - 5)),
      String.sub s (i + 1) (String.length s - i - 1) )
  | _ -> failwith ("malformed reference output " ^ ref_path dir name)

(* --- builds --- *)

(* The backend variants of the compile matrix: the default plus each
   switch turned off alone. *)
type flags = {
  sched : bool;
  split : bool;
  layout : bool;
  bundle : bool;
  pressure : bool;
  prob : bool;
}

let default_flags =
  { sched = true; split = true; layout = true; bundle = true;
    pressure = true; prob = true }

let variants =
  [ ("default", default_flags);
    ("no-sched", { default_flags with sched = false });
    ("no-split", { default_flags with split = false });
    ("no-layout", { default_flags with layout = false });
    ("no-bundle", { default_flags with bundle = false });
    ("no-pressure", { default_flags with pressure = false });
    ("no-prob", { default_flags with prob = false }) ]

type kernel = {
  w : Workload.t;
  profile : Srp_profile.Alias_profile.t;
  train_out : int64 * string;
}

let traced = ref false
let calib_ref = ref 1.0
let ir_instrs = ref 0

let count_ir (p : Srp_ir.Program.t) =
  List.fold_left
    (fun n f ->
      List.fold_left
        (fun n b -> n + 1 + List.length b.Srp_ir.Block.instrs)
        n (Srp_ir.Func.blocks f))
    0 (Srp_ir.Program.funcs p)

(* Set-up for one kernel: lower its source and interpret its train input,
   which yields both the alias profile and the train output. *)
let prepare (w : Workload.t) : kernel =
  let prog =
    span "frontend.lower" (fun () ->
        Srp_frontend.Lower.compile_source w.Workload.source)
  in
  ir_instrs := !ir_instrs + count_ir prog;
  Workload.apply_input prog w.Workload.train;
  let code, it =
    span "profile.interp" (fun () ->
        let it = Srp_profile.Interp.create prog in
        (Srp_profile.Interp.run it, it))
  in
  { w; profile = Srp_profile.Interp.profile it;
    train_out = (code, Srp_profile.Interp.output it) }

(* Promotion results of the promote stages that actually ran (not cache
   hits); those of timed round 0 give the core.* counts. *)
let promotions : Srp_core.Promote.result list ref = ref []
let round0_promotions : Srp_core.Promote.result list ref = ref []

(* Pipeline.compile, stage by stage, with a span around every layer call.
   The stage keys and the store traffic are Pipeline.compile's own, so
   the artifacts are the same; [check_target] holds that to be true. *)
let traced_compile store ~profile ~input (w : Workload.t) level fl :
    Pipeline.compiled =
  span "driver.compile" @@ fun () ->
  let get key build = Stage.get (Some store) ~key ~build in
  let source = w.Workload.source in
  let lower_key = Stage.Key.lower ~source in
  let lowered =
    Stage.as_lowered
      (get lower_key (fun () ->
           Stage.Lowered
             (span "frontend.lower" (fun () ->
                  Srp_frontend.Lower.compile_source source))))
  in
  let applied_key = Stage.Key.apply ~lower_key input in
  let applied =
    Stage.as_applied
      (get applied_key (fun () ->
           let p = Srp_ir.Program.clone lowered in
           Workload.apply_input p input;
           Stage.Applied p))
  in
  let config =
    Option.map
      (fun (c : Srp_core.Config.t) ->
        { c with
          Srp_core.Config.pressure = c.Srp_core.Config.pressure && fl.pressure;
          prob = c.Srp_core.Config.prob && fl.prob })
      (Pipeline.config_of_level level (Some profile))
  in
  let config_fp =
    match config with
    | None -> "none"
    | Some c -> Stage.Key.config_fingerprint c
  in
  let promote_key = Stage.Key.promote ~applied_key ~config:config_fp in
  let ir, promote =
    Stage.as_promoted
      (get promote_key (fun () ->
           match config with
           | None -> Stage.Applied applied
           | Some config ->
             let ir = Srp_ir.Program.clone applied in
             let r =
               span "core.promote" (fun () ->
                   Srp_core.Promote.run ~config
                     ~pressure:(Pipeline.pressure_fn ir) ir)
             in
             promotions := r :: !promotions;
             Stage.Promoted (ir, Some r)))
  in
  let select_key = Stage.Key.select ~promote_key in
  let sel =
    Stage.as_selected
      (get select_key (fun () ->
           Stage.Selected
             (span "target.select" (fun () -> Codegen.select_program ir))))
  in
  let regalloc_key = Stage.Key.regalloc ~select_key ~split:fl.split in
  let ra =
    if fl.split then Srp_target.Regalloc.default_policy
    else Srp_target.Regalloc.closed_policy
  in
  let al =
    Stage.as_allocated
      (get regalloc_key (fun () ->
           Stage.Allocated
             (span "target.regalloc" (fun () ->
                  Codegen.alloc_program ~ra sel))))
  in
  let layout_key = Stage.Key.layout ~regalloc_key ~layout:fl.layout in
  let al =
    Stage.as_allocated
      (get layout_key (fun () ->
           Stage.Allocated
             (span "target.layout" (fun () ->
                  if fl.layout then Codegen.layout_program al else al))))
  in
  let bundle_key =
    Stage.Key.bundle ~layout_key ~sched:fl.sched ~bundle:fl.bundle
  in
  let fns =
    Stage.as_bundled
      (get bundle_key (fun () ->
           Stage.Bundled
             (span "target.bundle" (fun () ->
                  Codegen.bundle_program ~sched:fl.sched ~bundle:fl.bundle
                    al))))
  in
  { Pipeline.level; ablations = []; split = fl.split; ir;
    target = Codegen.assemble_program ir fns; promote }

let plain_compile store ~profile ~input w level fl =
  Pipeline.compile ~cache:store ~profile ~layout:fl.layout ~sched:fl.sched
    ~bundle:fl.bundle ~split:fl.split ~pressure:fl.pressure ~prob:fl.prob
    ~input w level

let compile store ~profile ~input w level fl =
  if !traced then traced_compile store ~profile ~input w level fl
  else plain_compile store ~profile ~input w level fl

let target_digest (c : Pipeline.compiled) =
  Digest.string (Marshal.to_string c.Pipeline.target [])

let slots (c : Pipeline.compiled) : int * int =
  Hashtbl.fold
    (fun _ (f : Srp_target.Insn.func) (n, nops) ->
      ( n + Array.length f.Srp_target.Insn.code,
        Array.fold_left
          (fun k i -> if i = Srp_target.Insn.Nop then k + 1 else k)
          nops f.Srp_target.Insn.code ))
    c.Pipeline.target.Srp_target.Insn.funcs (0, 0)

let new_store () = Stage.create ~capacity:4096 ()

(* --- per-run accounting --- *)

exception Wrong_output of string

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_round : bool;
      (* true during timed round 0, where the deterministic counts come
         from *)
  mutable gmean_runs : ((string * Pipeline.level) * Counters.t) list;
      (* one run per kernel and level: the cycle gmeans and pfmon sums *)
  mutable code_slots : int;
  mutable nop_slots : int;
  mutable instrs : int; (* timed-phase machine runs, round 0 *)
  mutable trace_events : int;
  mutable trace_dropped : int;
  mutable timeline_rows : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable calib : float list;
  (* traced runs: the observed-vs-unobserved reference runs *)
  mutable unobserved_s : float; (* reference seconds *)
  mutable unobserved_words : float;
  mutable unobserved_instrs : int;
}

let acc =
  { attempted = 0; failed = 0; first_round = false; gmean_runs = [];
    code_slots = 0; nop_slots = 0; instrs = 0; trace_events = 0;
    trace_dropped = 0; timeline_rows = 0; store_hits = 0; store_misses = 0;
    calib = []; unobserved_s = 0.0; unobserved_words = 0.0;
    unobserved_instrs = 0 }

(* One operation (a build-and-run, or a matrix cell): counted, and a
   failure — an exception, running out of fuel, wrong output — is
   recorded instead of ending the run. *)
let attempt label (f : unit -> unit) : unit =
  acc.attempted <- acc.attempted + 1;
  try f ()
  with e ->
    acc.failed <- acc.failed + 1;
    warn "FAILED %s: %s" label (Printexc.to_string e)

(* A finished machine run: outputs against the interpreter's, and the
   counters behind the cycle gmeans (once per kernel and level). *)
let check_run ~label ~(expect : int64 * string) ?(gmean_key : string option)
    (r : Pipeline.run_result) =
  let code, out = expect in
  if r.Pipeline.exit_code <> code || r.Pipeline.output <> out then
    raise (Wrong_output label);
  match gmean_key with
  | Some k ->
    let key = (k, r.Pipeline.compiled.Pipeline.level) in
    if not (List.mem_assoc key acc.gmean_runs) then
      acc.gmean_runs <- (key, r.Pipeline.counters) :: acc.gmean_runs
  | None -> ()

let note_code (c : Pipeline.compiled) =
  if acc.first_round then begin
    let n, nops = slots c in
    acc.code_slots <- acc.code_slots + n;
    acc.nop_slots <- acc.nop_slots + nops
  end

let machine_run ?trace ?timeline c =
  let r = span "machine.run" (fun () -> Pipeline.run ?trace ?timeline c) in
  if acc.first_round then
    acc.instrs <- acc.instrs + r.Pipeline.counters.Counters.instrs_retired;
  r

(* Traced runs only: the traced build must be the build Pipeline.compile
   makes, bit for bit.  [checker] is a store that sees the same sequence
   of builds as the traced one. *)
let check_target checker ~profile ~input w level fl (c : Pipeline.compiled) =
  if !traced then begin
    let p = plain_compile checker ~profile ~input w level fl in
    if target_digest p <> target_digest c then
      raise
        (Wrong_output
           (Printf.sprintf "%s/%s: traced build differs from Pipeline.compile"
              w.Workload.name (Pipeline.level_name level)))
  end


(* --- workloads: set-up, a warm-up round, timed rounds, verification --- *)

(* A slice is the stretch bracketed by calibration samples: [exec] is
   timed; [after] (traced-run checks) runs untimed, after [exec]'s closing
   sample is taken. *)
type slice = { exec : unit -> unit; after : unit -> unit }

let slice ?(after = ignore) exec = { exec; after }

type round = { slices : slice list; finish : unit -> unit }

type prepared = {
  min_rounds : int;
  warmup : unit -> slice list;  (** discarded *)
  round : Random.State.t -> round;  (** the seed orders the kernels *)
  verify : Random.State.t -> unit;  (** untimed, after the timed phase *)
}

let find = Srp_workloads.Registry.find

(* Untimed follow-up work runs in the "check" phase, so its spans stay
   out of the timed-phase layer totals. *)
let untimed f =
  let p = !Spans.phase in
  Spans.phase := "check";
  Fun.protect ~finally:(fun () -> Spans.phase := p) f

let note_store store =
  if acc.first_round then begin
    let s = Stage.stats store in
    acc.store_hits <- s.Stage.hits;
    acc.store_misses <- s.Stage.misses
  end

let label k level = k.w.Workload.name ^ "/" ^ Pipeline.level_name level
let levels = [ Pipeline.Baseline; Pipeline.Alat ]
let pairs ks = List.concat_map (fun k -> List.map (fun l -> (k, l)) levels) ks

(* A discarded round of the workload's builds, run on the train input. *)
let warmup_on_train ks () =
  let store = new_store () in
  List.map
    (fun (k, level) ->
      slice (fun () ->
          attempt ("warm-up " ^ label k level) (fun () ->
              let c =
                plain_compile store ~profile:k.profile
                  ~input:k.w.Workload.train k.w level default_flags
              in
              check_run ~label:(label k level) ~expect:k.train_out
                (Pipeline.run c))))
    (pairs ks)

(* sweep-array / sweep-heap: each kernel at baseline and alat, profiled on
   train and run on ref.  One operation = compile + run. *)
let sweep ~refs names () : prepared =
  let ks = List.map (fun n -> prepare (find n)) names in
  let expected = List.map (fun n -> (n, load_ref refs n)) names in
  let op store checker (k, level) =
    let input = k.w.Workload.ref_ and built = ref None in
    slice
      (fun () ->
        attempt (label k level) (fun () ->
            let c =
              compile store ~profile:k.profile ~input k.w level default_flags
            in
            built := Some c;
            note_code c;
            check_run ~label:(label k level)
              ~expect:(List.assoc k.w.Workload.name expected)
              ~gmean_key:k.w.Workload.name (machine_run c)))
      ~after:(fun () ->
        Option.iter
          (fun c ->
            untimed (fun () ->
                attempt (label k level ^ " check") (fun () ->
                    check_target checker ~profile:k.profile ~input k.w level
                      default_flags c)))
          !built)
  in
  { min_rounds = 1;
    warmup = warmup_on_train ks;
    round =
      (fun rng ->
        let store = new_store () and checker = new_store () in
        { slices = List.map (op store checker) (shuffle rng (pairs ks));
          finish = (fun () -> note_store store) });
    verify = ignore }

(* --- observed: alat builds run under every observer at once --- *)

let devnull = lazy (open_out_bin "/dev/null")

(* The last line of a closed trace file: the truncation record, if any. *)
let dropped_in path =
  let lines = String.split_on_char '\n' (String.trim (read_file path)) in
  match List.rev lines with
  | last :: _ -> (
    match Srp_obs.Json.of_string last with
    | Ok j
      when Srp_obs.Json.member "ev" j = Some (Srp_obs.Json.String "truncated")
      ->
      Option.value ~default:0
        (Option.bind (Srp_obs.Json.member "dropped" j) Srp_obs.Json.to_int_opt)
    | _ -> 0)
  | [] -> 0

(* A run with a bounded event trace, a timeline and the span tracer all
   installed.  Untraced, the bytes go to /dev/null so the disk is not
   measured; traced, the event trace goes to a file under [tmp] so its
   truncation record can be read back. *)
let observed_run ~tmp c =
  let trace_path = Filename.concat tmp "observed-trace.jsonl" in
  let trace_oc =
    if !traced then open_out_bin trace_path else Lazy.force devnull
  in
  let null = Lazy.force devnull in
  let sink = Srp_obs.Trace.create trace_oc in
  let tl_sink = Srp_obs.Trace.create null in
  let timeline = Srp_machine.Timeline.create tl_sink in
  let tracer = Srp_obs.Span.create ~out:null () in
  Srp_obs.Span.install tracer;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Srp_obs.Span.uninstall ();
        Srp_obs.Span.close tracer;
        Srp_obs.Trace.close sink;
        Srp_obs.Trace.close tl_sink)
      (fun () -> machine_run ~trace:sink ~timeline c)
  in
  if acc.first_round then begin
    acc.trace_events <- acc.trace_events + Srp_obs.Trace.emitted sink;
    acc.timeline_rows <- acc.timeline_rows + Srp_obs.Trace.emitted tl_sink - 1
  end;
  if !traced then begin
    close_out trace_oc;
    if acc.first_round then
      acc.trace_dropped <- acc.trace_dropped + dropped_in trace_path;
    Sys.remove trace_path
  end;
  r

(* Verification runs on the train input: alat and baseline builds of each
   kernel, their outputs against the interpreter's, their cycles into the
   gmeans. *)
let verify_defaults ks =
  untimed @@ fun () ->
  let store = new_store () in
  List.iter
    (fun (k, level) ->
      attempt ("verify " ^ label k level) (fun () ->
          let c =
            compile store ~profile:k.profile ~input:k.w.Workload.train k.w
              level default_flags
          in
          check_run ~label:(label k level) ~expect:k.train_out
            ~gmean_key:k.w.Workload.name (Pipeline.run c)))
    (pairs ks)

let observed ~refs ~tmp names () : prepared =
  let store = new_store () in
  let targets =
    List.map
      (fun n ->
        let k = prepare (find n) in
        let c =
          compile store ~profile:k.profile ~input:k.w.Workload.ref_ k.w
            Pipeline.Alat default_flags
        in
        (k, c, load_ref refs n))
      names
  in
  let op (k, c, expect) =
    slice
      (fun () ->
        attempt (label k Pipeline.Alat) (fun () ->
            check_run ~label:(label k Pipeline.Alat) ~expect
              (observed_run ~tmp c)))
      ~after:(fun () ->
        (* traced: the same target unobserved, for the overhead per
           instruction *)
        if !traced && acc.first_round then
          untimed (fun () ->
              let w0 = Spans.words () and r = ref None in
              let st =
                Calib.during (fun () ->
                    r :=
                      Some
                        (span "obs.reference_run" (fun () -> Pipeline.run c)))
              in
              acc.unobserved_s <-
                acc.unobserved_s
                +. Calib.rescale ~calib_ref:!calib_ref
                     ~calib:(Calib.of_stretch st) st.Calib.seconds;
              acc.unobserved_words <-
                acc.unobserved_words +. (Spans.words () -. w0);
              acc.unobserved_instrs <-
                acc.unobserved_instrs
                + (Option.get !r).Pipeline.counters.Counters.instrs_retired))
  in
  let ks = List.map (fun (k, _, _) -> k) targets in
  (* two rounds at least: four operations are too few to average out the
     host's noise *)
  { min_rounds = 2;
    warmup =
      (fun () ->
        let store = new_store () in
        List.map
          (fun k ->
            slice (fun () ->
                attempt ("warm-up " ^ label k Pipeline.Alat) (fun () ->
                    let c =
                      plain_compile store ~profile:k.profile
                        ~input:k.w.Workload.train k.w Pipeline.Alat
                        default_flags
                    in
                    check_run ~label:(label k Pipeline.Alat)
                      ~expect:k.train_out (observed_run ~tmp c))))
          ks);
    round =
      (fun rng ->
        { slices = List.map op (shuffle rng targets);
          finish =
            (fun () ->
              if acc.first_round then
                List.iter (fun (_, c, _) -> note_code c) targets) });
    verify = (fun _ -> verify_defaults ks) }

(* --- compile-matrix: every kernel x level x backend variant --- *)

let matrix () : prepared =
  let ks = List.map prepare (Srp_workloads.Registry.all ()) in
  let cells =
    List.concat_map
      (fun l -> List.map (fun v -> (l, v)) variants)
      Pipeline.all_levels
  in
  let build store k (level, (_, fl)) =
    compile store ~profile:k.profile ~input:k.w.Workload.train k.w level fl
  in
  let cell_label k (level, (vname, _)) = label k level ^ "/" ^ vname in
  (* one slice per kernel: all of its cells, through one fresh store *)
  let kernel_slice store checker k =
    let built = ref [] in
    slice
      (fun () ->
        List.iter
          (fun cell ->
            attempt (cell_label k cell) (fun () ->
                let c = build store k cell in
                note_code c;
                (* kept for the traced run's checks only *)
                if !traced && acc.first_round then
                  built := (cell, c) :: !built))
          cells)
      ~after:(fun () ->
        if !traced && acc.first_round then
          untimed (fun () ->
              List.iter
                (fun (((level, (_, fl)) as cell), c) ->
                  attempt (cell_label k cell ^ " check") (fun () ->
                      check_target checker ~profile:k.profile
                        ~input:k.w.Workload.train k.w level fl c))
                (List.rev !built)))
  in
  let round rng =
    let store = new_store () and checker = new_store () in
    { slices = List.map (kernel_slice store checker) (shuffle rng ks);
      finish = (fun () -> note_store store) }
  in
  { min_rounds = 1;
    warmup =
      (fun () ->
        let r = round (Random.State.make [| 0 |]) in
        r.slices);
    round;
    verify =
      (fun rng ->
        verify_defaults ks;
        (* plus a seeded sample of the other cells *)
        let others =
          List.concat_map
            (fun k ->
              List.filter_map
                (fun ((level, (vname, _)) as cell) ->
                  if vname = "default"
                     && (level = Pipeline.Baseline || level = Pipeline.Alat)
                  then None
                  else Some (k, cell))
                cells)
            ks
        in
        untimed (fun () ->
            let store = new_store () in
            List.iteri
              (fun i (k, cell) ->
                if i < 4 then
                  attempt ("verify " ^ cell_label k cell) (fun () ->
                      check_run ~label:(cell_label k cell) ~expect:k.train_out
                        (Pipeline.run (build store k cell))))
              (shuffle rng others))) }

let sweep_array = [ "gzip"; "bzip2"; "art"; "equake" ]
let sweep_heap = [ "vpr"; "mcf"; "parser"; "twolf"; "gap"; "ammp" ]
let observed_kernels = [ "gzip"; "mcf"; "parser"; "art" ]
let workload ~refs ~tmp = function
  | "sweep-array" -> sweep ~refs sweep_array
  | "sweep-heap" -> sweep ~refs sweep_heap
  | "compile-matrix" -> matrix
  | "observed" -> observed ~refs ~tmp observed_kernels
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- one benchmark run --- *)

let min_setups = 3
let max_setups = 9
let setup_budget = 2.5

let peak_rss_mb () : float =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

type run = {
  rounds : int;
  setup : (float * float * float) list;
      (* per set-up: raw, reference, and raw-with-bursts seconds *)
  walls : (float * float * float) list; (* the same, per timed round *)
  overhead : float; (* traced over untraced, on the replayed slice *)
  peak_rss : float; (* MB, through the timed phase *)
}

(* Run [slices], each calibrated by the bursts taken while it ran; returns
   (raw seconds, reference seconds, raw seconds with the bursts). *)
let time_round (slices : slice list) : float * float * float =
  List.fold_left
    (fun (raw, cal, wall) s ->
      (* each slice starts from a collected heap, so its time does not
         depend on the garbage the slices before it left *)
      Gc.full_major ();
      let st = Calib.during s.exec in
      let c = Calib.of_stretch st in
      acc.calib <- c :: acc.calib;
      s.after ();
      ( raw +. st.Calib.seconds,
        cal +. Calib.rescale ~calib_ref:!calib_ref ~calib:c st.Calib.seconds,
        wall +. st.Calib.wall ))
    (0.0, 0.0, 0.0) slices

(* Traced runs: the first timed slice replayed twice back to back,
   untraced then traced, with fresh stores; the ratio of the two is the
   tracing overhead. *)
let replay_overhead ~seed (prep : prepared) : float =
  let first () =
    List.hd (prep.round (Random.State.make [| seed; 0 |])).slices
  in
  traced := false;
  Spans.on := false;
  let _, untraced_s, _ = time_round [ first () ] in
  Spans.on := true;
  traced := true;
  let _, traced_s, _ = time_round [ first () ] in
  traced_s /. untraced_s

let measure ~seed ~seconds (mk : unit -> prepared) : run =
  let rng r = Random.State.make [| seed; r |] in
  let t_setup = now () in
  Spans.phase := "setup";
  (* set up at least [min_setups] times and for at least [setup_budget]
     raw seconds; the last set-up is the one the run uses *)
  let rec setups reps spent =
    if List.length reps >= min_setups
       && (spent >= setup_budget || List.length reps >= max_setups)
    then List.rev reps
    else begin
      ir_instrs := 0;
      Spans.round := List.length reps;
      Gc.full_major ();
      let p = ref None in
      let st =
        Calib.during (fun () -> p := Some (span "bench.setup" mk))
      in
      let c = Calib.of_stretch st in
      acc.calib <- c :: acc.calib;
      let secs = st.Calib.seconds in
      setups
        (( Option.get !p,
           ( secs,
             Calib.rescale ~calib_ref:!calib_ref ~calib:c secs,
             st.Calib.wall ) )
        :: reps)
        (spent +. secs)
    end
  in
  let setup = setups [] 0.0 in
  let prep = fst (List.nth setup (List.length setup - 1)) in
  let t_warmup = now () in
  Spans.phase := "warmup";
  span "bench.warmup" (fun () ->
      List.iter (fun s -> s.exec (); s.after ()) (prep.warmup ()));
  let t_timed = now () in
  Spans.phase := "timed";
  acc.first_round <- true;
  promotions := [];
  (* whole rounds, as many as bring the phase closest to [seconds] *)
  let rec rounds r walls =
    let elapsed = now () -. t_timed in
    if r >= prep.min_rounds
       && (elapsed +. (elapsed /. float_of_int r /. 2.0) >= seconds
          || r >= 100)
    then (r, List.rev walls)
    else begin
      let round = prep.round (rng r) in
      Spans.round := r;
      let times = span "bench.round" (fun () -> time_round round.slices) in
      round.finish ();
      if r = 0 then round0_promotions := !promotions;
      acc.first_round <- false;
      rounds (r + 1) (times :: walls)
    end
  in
  let n, walls = rounds 0 [] in
  (* before the checks: their seeded sample of builds must not set it *)
  let peak_rss = peak_rss_mb () in
  let t_check = now () in
  Spans.phase := "check";
  let overhead =
    if !traced then span "bench.replay" (fun () -> replay_overhead ~seed prep)
    else 1.0
  in
  Spans.round := 0;
  span "bench.verify" (fun () -> prep.verify (rng 1000));
  warn
    "set-up %.1f s, warm-up %.1f s, timed %.1f s (%d rounds), checks %.1f s"
    (t_warmup -. t_setup) (t_timed -. t_warmup) (t_check -. t_timed) n
    (now () -. t_check);
  { rounds = n; setup = List.map snd setup; walls; overhead; peak_rss }

let gmean_cycles level =
  match
    List.filter_map
      (fun ((_, l), c) ->
        if l = level then Some (float_of_int c.Counters.cycles) else None)
      acc.gmean_runs
  with
  | [] -> 0.0
  | xs -> gmean (List.sort compare xs) /. 1e6 (* summed in one order *)

(* a pfmon counter summed over the runs behind the gmeans *)
let pfmon (f : Counters.t -> int) =
  float_of_int (List.fold_left (fun a (_, c) -> a + f c) 0 acc.gmean_runs)

let raw (x, _, _) = x
let reference (_, x, _) = x
let with_bursts (_, _, x) = x

let end_to_end_values (r : run) : (string * float) list =
  [ ("setup_s", median (List.map reference r.setup));
    ("wall_s", median (List.map reference r.walls));
    ("alat_cycles_gmean", gmean_cycles Pipeline.Alat);
    ("baseline_cycles_gmean", gmean_cycles Pipeline.Baseline);
    ("code_kslots", float_of_int acc.code_slots /. 1e3);
    ("peak_rss_mb", r.peak_rss) ]

let per_layer_values (r : run) : (string * float) list =
  let n = float_of_int r.rounds
  and reps = float_of_int (List.length r.setup) in
  (* layer seconds get the phase's own rescale factor, so they add up to
     setup_s and wall_s *)
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  let factor xs = sum reference xs /. sum with_bursts xs in
  let f = factor r.walls and f_setup = factor r.setup in
  let timed name = Spans.seconds name /. n *. f in
  let setup name = Spans.seconds ~p:"setup" name /. reps *. f_setup in
  let targets =
    [ "target.select"; "target.regalloc"; "target.layout"; "target.bundle" ]
  in
  let children = "frontend.lower" :: "core.promote" :: targets in
  let compile_s = timed "driver.compile" in
  let run_s = timed "machine.run" in
  let instrs = float_of_int acc.instrs in
  let per_instr x = if acc.instrs = 0 then 0.0 else x /. instrs in
  let run_words = Spans.words_round0 "machine.run" in
  let observed = acc.unobserved_instrs > 0 in
  let stats =
    List.map (fun (p : Srp_core.Promote.result) -> p.Srp_core.Promote.stats)
      !round0_promotions
  in
  let sum_stat g = float_of_int (List.fold_left (fun a s -> a + g s) 0 stats) in
  let raw_wall = median (List.map raw r.walls) in
  [ ("frontend.lower_s", setup "frontend.lower");
    ("frontend.ir_kinstrs", float_of_int !ir_instrs /. 1e3);
    ("profile.interp_s", setup "profile.interp");
    ( "profile.interp_mwords",
      Spans.words_round0 ~p:"setup" "profile.interp" /. 1e6 );
    ("core.promote_s", timed "core.promote");
    ("core.promote_mwords", Spans.words_round0 "core.promote" /. 1e6);
    ( "core.exprs_promoted",
      sum_stat (fun s -> s.Srp_core.Ssapre.exprs_promoted) );
    ( "core.checks_inserted",
      sum_stat (fun s -> s.Srp_core.Ssapre.checks_inserted) );
    ("target.select_s", timed "target.select");
    ("target.regalloc_s", timed "target.regalloc");
    ("target.layout_s", timed "target.layout");
    ("target.bundle_s", timed "target.bundle");
    ( "target.mwords",
      List.fold_left (fun a t -> a +. Spans.words_round0 t) 0.0 targets
      /. 1e6 );
    ("target.nop_kslots", float_of_int acc.nop_slots /. 1e3);
    ("driver.compile_s", compile_s);
    ( "driver.self_s",
      compile_s -. List.fold_left (fun a t -> a +. timed t) 0.0 children );
    ("driver.store_hits", float_of_int acc.store_hits);
    ("driver.store_misses", float_of_int acc.store_misses);
    ("machine.run_s", run_s);
    ("machine.minstr", instrs /. 1e6);
    ("machine.ns_per_instr", per_instr (run_s *. 1e9));
    ("machine.words_per_instr", per_instr run_words);
    ( "machine.data_access_mcycles",
      pfmon (fun c -> c.Counters.data_access_cycles) /. 1e6 );
    ("machine.rse_kcycles", pfmon (fun c -> c.Counters.rse_cycles) /. 1e3);
    ("machine.split_stalls_k", pfmon (fun c -> c.Counters.split_stalls) /. 1e3);
    ( "machine.mispredicts_k",
      pfmon (fun c -> c.Counters.branch_mispredicts) /. 1e3 );
    ("machine.check_failures", pfmon (fun c -> c.Counters.check_failures));
    ("machine.alat_evictions", pfmon (fun c -> c.Counters.alat_evictions));
    ("machine.l1_misses_k", pfmon (fun c -> c.Counters.l1_misses) /. 1e3);
    ("obs.trace_events", float_of_int acc.trace_events);
    ("obs.trace_dropped", float_of_int acc.trace_dropped);
    ("obs.timeline_rows", float_of_int acc.timeline_rows);
    ( "obs.ns_per_instr_overhead",
      if observed then
        per_instr (run_s *. 1e9)
        -. (acc.unobserved_s *. 1e9 /. float_of_int acc.unobserved_instrs)
      else 0.0 );
    ( "obs.words_per_instr",
      if observed then
        per_instr run_words
        -. (acc.unobserved_words /. float_of_int acc.unobserved_instrs)
      else 0.0 );
    ("bench.calib_s", median acc.calib);
    ("bench.raw_setup_s", median (List.map raw r.setup));
    ("bench.raw_wall_s", raw_wall);
    ("bench.trace_overhead", r.overhead);
    ( "bench.residue_s",
      (sum with_bursts r.walls /. n *. f) -. compile_s -. run_s ) ]

let metrics_json table values : Srp_obs.Json.t =
  let open Srp_obs.Json in
  Obj
    (List.map
       (fun (name, v) ->
         ( name,
           Obj
             [ ("value", Float v); ("unit", String (List.assoc name table)) ]
         ))
       values)

let run_benchmark ~workload:wname ~seed ~seconds ~trace ~calib_ref:cref ~refs
    ~tmp ~spans_file =
  traced := trace;
  calib_ref := cref;
  if trace then Spans.start ();
  let mk = workload ~refs ~tmp wname in
  let r = measure ~seed ~seconds mk in
  let e2e = end_to_end_values r in
  let correct = acc.failed = 0 in
  let open Srp_obs.Json in
  let result metrics =
    Obj
      [ ("correct", Bool correct); ("attempted", Int acc.attempted);
        ("failed", Int acc.failed); ("metrics", metrics) ]
  in
  if trace then begin
    let layers = per_layer_values r in
    Option.iter Spans.write spans_file;
    (* everything, for people and for the self-test; the last line is
       the per-layer metrics alone *)
    print_endline
      (to_string
         (Obj
            [ ("workload", String wname); ("rounds", Int r.rounds);
              ("end_to_end", metrics_json end_to_end e2e);
              ("per_layer", metrics_json per_layer layers) ]));
    print_endline (to_string (result (metrics_json per_layer layers)))
  end
  else begin
    print_endline
      (to_string
         (Obj [ ("workload", String wname); ("rounds", Int r.rounds) ]));
    print_endline (to_string (result (metrics_json end_to_end e2e)))
  end;
  if not correct then exit 1

(* --- reference outputs --- *)

let regen_refs refs =
  List.iter
    (fun (w : Workload.t) ->
      Out_channel.with_open_bin (ref_path refs w.Workload.name) (fun oc ->
          output_string oc (encode_ref (interpret w w.Workload.ref_))))
    (Srp_workloads.Registry.all ())

(* Regenerate every reference output with the interpreter; any difference
   from the stored file fails. *)
let check_refs refs =
  let bad =
    List.filter
      (fun (w : Workload.t) ->
        let fresh = interpret w w.Workload.ref_ in
        let ok = fresh = load_ref refs w.Workload.name in
        Printf.printf "%-8s %s\n%!" w.Workload.name
          (if ok then "ok" else "DIFFERS");
        not ok)
      (Srp_workloads.Registry.all ())
  in
  if bad <> [] then exit 1

(* --- self-tests of the benchmark's own machinery --- *)

let unit_tests ~benchmark ~tmp =
  let failures = ref 0 in
  let expect name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let close a b = Float.abs (a -. b) <= 1e-12 *. Float.abs b in
  expect "gmean [2; 8] = 4" (close (gmean [ 2.0; 8.0 ]) 4.0);
  expect "gmean [1; 10; 100] = 10" (close (gmean [ 1.0; 10.0; 100.0 ]) 10.0);
  expect "median odd and even"
    (median [ 3.0; 1.0; 2.0 ] = 2.0 && median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  expect "rescale: a loop twice as slow divides by 2^sensitivity"
    (close
       (Calib.rescale ~calib_ref:0.05 ~calib:0.1 2.0)
       (2.0 /. (2.0 ** Calib.sensitivity)));
  expect "rescale: the reference host is the identity"
    (close (Calib.rescale ~calib_ref:0.05 ~calib:0.05 2.0) 2.0);
  let c = Calib.sample () in
  expect "calibration sample is a positive time" (c > 0.0 && c < 10.0);
  (* every metric this program emits is declared in BENCHMARK.json, with
     the same unit, and nothing else is *)
  let declared key =
    match Srp_obs.Json.of_string (read_file benchmark) with
    | Error e -> failwith e
    | Ok doc ->
      Option.value ~default:[]
        (Option.bind (Srp_obs.Json.member key doc) Srp_obs.Json.to_list_opt)
      |> List.map (fun m ->
             let str k =
               Option.bind (Srp_obs.Json.member k m) Srp_obs.Json.to_string_opt
             in
             (Option.get (str "name"), Option.get (str "unit")))
  in
  expect "end_to_end names and units match BENCHMARK.json"
    (declared "end_to_end" = end_to_end);
  expect "per_layer names and units match BENCHMARK.json"
    (declared "per_layer" = per_layer);
  (* the set-up's own interpretation gives Pipeline.train_profile's
     profile *)
  expect "set-up profiles equal Pipeline.train_profile on all kernels"
    (List.for_all
       (fun (w : Workload.t) ->
         Srp_profile.Alias_profile.save (prepare w).profile
         = Srp_profile.Alias_profile.save (Pipeline.train_profile w))
       (Srp_workloads.Registry.all ()));
  (* the traced compile is Pipeline.compile, cell for cell *)
  let k = prepare (find "mcf") in
  let traced_store = new_store () and plain_store = new_store () in
  expect "traced compile = Pipeline.compile on every mcf matrix cell"
    (List.for_all
       (fun level ->
         List.for_all
           (fun (_, fl) ->
             let input = k.w.Workload.train in
             target_digest
               (traced_compile traced_store ~profile:k.profile ~input k.w
                  level fl)
             = target_digest
                 (plain_compile plain_store ~profile:k.profile ~input k.w
                    level fl))
           variants)
       Pipeline.all_levels);
  (* the span file is srp-spans-v1: `srp report` renders it *)
  Spans.start ();
  ignore (span "outer" (fun () -> span "inner" (fun () -> Calib.sample ())));
  let path = Filename.concat tmp "unit-spans.json" in
  Spans.write path;
  let rendered =
    match Srp_obs.Json.of_string (read_file path) with
    | Ok doc -> Report.Span_report.render doc
    | Error e -> Error e
  in
  Sys.remove path;
  expect "span file renders with srp report"
    (match rendered with
    | Ok text ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length text
          && (String.sub text i n = sub || go (i + 1))
        in
        go 0
      in
      has "outer" && has "inner"
    | Error _ -> false);
  if !failures > 0 then exit 1

(* --- command line --- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest =
    match args with
    | m :: rest when String.length m > 0 && m.[0] <> '-' -> (m, rest)
    | rest -> ("run", rest)
  in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> invalid_arg ("unexpected argument " ^ a)
  in
  let o = opts [] rest in
  let get ?default k =
    match List.assoc_opt k o, default with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> invalid_arg ("missing --" ^ k)
  in
  let refs = get ~default:"perfbench/ref_outputs" "refs" in
  match mode with
  | "run" ->
    run_benchmark ~workload:(get "workload")
      ~seed:(int_of_string (get "seed"))
      ~seconds:(float_of_string (get ~default:"10" "seconds"))
      ~trace:(get ~default:"0" "trace" = "1")
      ~calib_ref:(float_of_string (get "calib-ref"))
      ~refs ~tmp:(get ~default:"." "tmp")
      ~spans_file:(List.assoc_opt "spans" o)
  | "regen-refs" -> regen_refs refs
  | "check-refs" -> check_refs refs
  | "calibrate" ->
    (* the bursts' speed while the interpreter runs mcf's train input,
       the way the benchmark calibrates every timed stretch *)
    let w = find "mcf" in
    let calibs =
      List.init 9 (fun _ ->
          Calib.of_stretch
            (Calib.during (fun () -> ignore (interpret w w.Workload.train))))
    in
    Printf.printf "calibration (median of 9 stretches): %.6f s\n"
      (median calibs)
  | "unit" ->
    unit_tests ~benchmark:(get ~default:"BENCHMARK.json" "benchmark")
      ~tmp:(get ~default:"." "tmp")
  | m -> invalid_arg ("unknown mode " ^ m)
