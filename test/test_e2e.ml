(* End-to-end tests: every built-in kernel through the full experiment
   pipeline on its *train* input (fast), with every level computing what
   the interpreter computes and the headline metrics moving in the right
   direction. *)

open Srp_driver
module C = Srp_machine.Counters

(* Run one workload on its train input at several levels and return the
   (level, run_result) pairs.  Each (workload, level) is run once; later
   cases asking for it share the result. *)
let runs = Hashtbl.create 64

let run_train (w : Workload.t) levels =
  (* substitute train for ref so the e2e suite stays fast *)
  let small = { w with Workload.ref_ = w.Workload.train } in
  List.map
    (fun l ->
      let key = (w.Workload.name, l) in
      match Hashtbl.find_opt runs key with
      | Some r -> (l, r)
      | None ->
        let r = Pipeline.profile_compile_run small l in
        Hashtbl.add runs key r;
        (l, r))
    levels

(* Every level's output and exit code are the interpreter's on the same
   input, so all levels agree with one another. *)
let test_kernel_equivalence name () =
  let w = Srp_workloads.Registry.find name in
  let code, out, _ =
    Test_random.interp_reference ~input:w.Workload.train w.Workload.source
  in
  List.iter
    (fun (l, r) ->
      let tag what = Fmt.str "%s at %s: %s" name (Pipeline.level_name l) what in
      Alcotest.(check string) (tag "output") out r.Pipeline.output;
      Alcotest.(check int64) (tag "exit code") code r.Pipeline.exit_code)
    (run_train w Pipeline.all_levels)

let test_kernel_improves name () =
  let w = Srp_workloads.Registry.find name in
  let runs = run_train w [ Pipeline.Baseline; Pipeline.Alat ] in
  let base = List.assoc Pipeline.Baseline runs in
  let spec = List.assoc Pipeline.Alat runs in
  (* On the small train inputs the arming loads can offset part of the
     win (twolf), so the invariant here is "no meaningful regression";
     the bench harness on the ref inputs checks the actual reductions. *)
  Alcotest.(check bool)
    (Fmt.str "%s: loads not regressed" name)
    true
    (float_of_int spec.Pipeline.counters.C.loads_retired
    <= 1.02 *. float_of_int base.Pipeline.counters.C.loads_retired)

let test_o0_worst () =
  let w = Srp_workloads.Registry.find "mcf" in
  let runs = run_train w [ Pipeline.O0; Pipeline.Baseline ] in
  let o0 = List.assoc Pipeline.O0 runs in
  let base = List.assoc Pipeline.Baseline runs in
  Alcotest.(check bool) "baseline beats O0" true
    (base.Pipeline.counters.C.cycles < o0.Pipeline.counters.C.cycles)

let test_checks_only_in_alat () =
  (* gzip, not twolf: the expected-value gate prices twolf's one
     check-bearing candidate out (its check traffic beats the saved
     latency), so twolf retires no checks on the train input anymore *)
  let w = Srp_workloads.Registry.find "gzip" in
  let runs = run_train w [ Pipeline.Conservative; Pipeline.Baseline; Pipeline.Alat ] in
  let get l = (List.assoc l runs).Pipeline.counters in
  Alcotest.(check int) "no checks in conservative" 0 (get Pipeline.Conservative).C.checks_retired;
  Alcotest.(check int) "no alat checks in software baseline" 0
    (get Pipeline.Baseline).C.checks_retired;
  Alcotest.(check bool) "checks in alat" true ((get Pipeline.Alat).C.checks_retired > 0)

let test_profile_input_sensitivity () =
  (* gzip trained on an alias-free input mis-speculates on the ref input
     but still recovers the correct answer *)
  let w = Srp_workloads.Registry.find "gzip" in
  let spec = Pipeline.profile_compile_run w Pipeline.Alat in
  Alcotest.(check bool) "gzip really mis-speculates on ref" true
    (spec.Pipeline.counters.C.check_failures > 0)

let test_figure_rows_well_formed () =
  let w = Srp_workloads.Registry.find "vpr" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let r = List.hd (Experiments.sweep [ small ]) in
  let f8 =
    Report.figure8_row ~name:"vpr" ~base:r.Experiments.base.Pipeline.counters
      ~spec:r.Experiments.spec.Pipeline.counters
  in
  Alcotest.(check bool) "reduction bounded" true
    (f8.Report.loads_red < 100.0 && f8.Report.loads_red > -100.0);
  let f10 =
    Report.figure10_row ~name:"vpr" ~spec:r.Experiments.spec.Pipeline.counters
  in
  Alcotest.(check bool) "misspec ratio is a percentage" true
    (f10.Report.misspec_ratio >= 0.0 && f10.Report.misspec_ratio <= 100.0)

(* The ablation suite on one workload: every row A-H renders, and the
   nine distinct builds behind its sixteen row sides are each simulated
   exactly once. *)
let test_ablation_suite_runs_once () =
  let w = Srp_workloads.Registry.find "mcf" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let simulations () =
    match Srp_obs.Stats.find ~pass:"machine" "simulate" with
    | Some (calls, _) -> calls
    | None -> 0
  in
  let before = simulations () in
  let tables = Experiments.ablation_tables [ small ] in
  Alcotest.(check int) "simulations" 9 (simulations () - before);
  Alcotest.(check int) "one table per row"
    (List.length Experiments.ablations) (List.length tables);
  List.iter2
    (fun (title, _, _, _, _) (title', table) ->
      Alcotest.(check string) "row order" title title';
      match String.split_on_char '\n' table with
      | _header :: _rule :: row :: _ ->
        Alcotest.(check bool)
          (Fmt.str "%s has a mcf row" title)
          true
          (String.length row > 3 && String.sub row 0 3 = "mcf")
      | _ -> Alcotest.failf "%s: no rows" title)
    Experiments.ablations tables

let kernel_tests =
  List.concat_map
    (fun name ->
      [ Alcotest.test_case (name ^ " all levels agree") `Slow (test_kernel_equivalence name);
        Alcotest.test_case (name ^ " loads reduced") `Slow (test_kernel_improves name) ])
    (Srp_workloads.Registry.names ())

let suite =
  kernel_tests
  @ [ Alcotest.test_case "baseline beats O0" `Slow test_o0_worst;
      Alcotest.test_case "checks only in alat" `Slow test_checks_only_in_alat;
      Alcotest.test_case "gzip mis-speculates on ref" `Slow test_profile_input_sensitivity;
      Alcotest.test_case "figure rows well-formed" `Slow test_figure_rows_well_formed;
      Alcotest.test_case "ablation suite runs each build once" `Slow
        test_ablation_suite_runs_once ]
