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

(* Figure 9 classifies every load the machine retires: on each kernel at
   baseline and at alat, the direct and the indirect loads sum to
   loads_retired, so no retired load falls on a site its build's IR does
   not name. *)
let test_figure9_total () =
  List.iter
    (fun name ->
      List.iter
        (fun (l, r) ->
          let d, i = Report.retired_loads_by_class r in
          Alcotest.(check int)
            (Fmt.str "%s at %s: direct + indirect" name (Pipeline.level_name l))
            r.Pipeline.counters.C.loads_retired (d + i))
        (run_train (Srp_workloads.Registry.find name)
           [ Pipeline.Baseline; Pipeline.Alat ]))
    (Srp_workloads.Registry.names ())

(* The Figure 5 shape in a loop, with one direct and one indirect
   candidate.  Trained with sel = 0, p only ever points at b and r at
   t[1], so every alat check hits.  Counted by hand:
   - baseline, direct: sel once, a once per iteration (its reload after
     *p is a software check, no load) = 1 + 10 = 11;
   - baseline, indirect: slots[sel] once, *r twice per iteration = 21;
   - alat: sel and one hoisted ld.sa of a = 2 direct; slots[sel] and one
     hoisted ld.sa of *r = 2 indirect; the ld.c checks all hit.
   So 9 direct and 19 indirect loads are reduced. *)
let figure9_src = {|
int a; int b;
int t[4];
int* p;
int* slots[2];
int sel;
int main() {
  int i;
  int s = 0;
  if (sel == 1) { p = &a; } else { p = &b; }
  slots[0] = &t[1];
  slots[1] = &a;
  int* r = slots[sel];
  for (i = 0; i < 10; i = i + 1) {
    s = s + a + *r;
    *p = i;
    s = s + a + *r;
  }
  print_int(s);
  return 0;
}
|}

let test_figure9_by_hand () =
  let w =
    { Workload.name = "fig9"; description = ""; source = figure9_src;
      train = Workload.input []; ref_ = Workload.input [] }
  in
  let base = Pipeline.profile_compile_run w Pipeline.Baseline in
  let spec = Pipeline.profile_compile_run w Pipeline.Alat in
  Alcotest.(check (pair int int)) "baseline (direct, indirect)" (11, 21)
    (Report.retired_loads_by_class base);
  Alcotest.(check (pair int int)) "alat (direct, indirect)" (2, 2)
    (Report.retired_loads_by_class spec);
  let row = Report.figure9_row ~name:"fig9" ~base ~spec in
  Alcotest.(check (pair int int)) "reduced (direct, indirect)" (9, 19)
    (row.Report.direct_reduced, row.Report.indirect_reduced);
  Alcotest.(check (float 1e-9)) "direct share" (100.0 *. 9.0 /. 28.0)
    row.Report.direct_pct;
  Alcotest.(check (float 1e-9)) "indirect share" (100.0 *. 19.0 /. 28.0)
    row.Report.indirect_pct

(* Promote.choose_scope ranks a candidate on its threshold-scope ledger
   even when the binary scope commits.  Ranking on the committed ledger
   instead reorders vpr's pressure-gated acceptances and spills a third
   more of its register stack (rse_spilled_regs 360,002); these are vpr's
   ref-input numbers at alat under gate-ledger ranking. *)
let test_vpr_gate_ledger_ranking () =
  let r =
    Pipeline.profile_compile_run (Srp_workloads.Registry.find "vpr")
      Pipeline.Alat
  in
  Alcotest.(check int) "max_stacked_regs" 26 r.Pipeline.counters.C.max_stacked_regs;
  Alcotest.(check int) "rse_spilled_regs" 240_002
    r.Pipeline.counters.C.rse_spilled_regs

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

(* The cascade win (paper section 2.4, Figure 4), on a shape the ten
   kernels never produce: p = &a; each iteration reads *p, stores through
   pp, whose points-to set is {p, r}, and reads *p twice more.  Plain alat
   checks p after the store and reloads *p.  Cascade promotes *p across
   that check: one chk.a, whose recovery reloads p and then *p.  The
   profile holds (pp points at r), so the recovery never runs. *)
let cascade_src = {|
int a; int b;
int* p;
int* r;
int** pp;
int sel;
int main() {
  int i;
  int s = 0;
  a = 3;
  b = 5;
  p = &a;
  if (sel == 7) { pp = &p; } else { pp = &r; }
  for (i = 0; i < 2000; i = i + 1) {
    s = s + *p;
    *pp = &b;
    s = s + *p + *p;
  }
  print_int(s);
  return 0;
}
|}

let test_cascade_wins () =
  let w =
    { Workload.name = "cascade"; description = ""; source = cascade_src;
      train = Workload.input []; ref_ = Workload.input [] }
  in
  let run ablations = Pipeline.profile_compile_run ~ablations w Pipeline.Alat in
  let plain = run [] and casc = run [ Pipeline.Cascade ] in
  let chk_a (r : Pipeline.run_result) =
    Hashtbl.fold
      (fun _ (f : Srp_target.Insn.func) n ->
        Array.fold_left
          (fun n -> function Srp_target.Insn.Chk_a _ -> n + 1 | _ -> n)
          n f.Srp_target.Insn.code)
      r.Pipeline.compiled.Pipeline.target.Srp_target.Insn.funcs 0
  in
  let _, out, _ = Test_random.interp_reference cascade_src in
  Alcotest.(check string) "plain output" out plain.Pipeline.output;
  Alcotest.(check string) "cascade output" out casc.Pipeline.output;
  Alcotest.(check (pair int int)) "chk.a (plain, cascade)" (0, 1)
    (chk_a plain, chk_a casc);
  Alcotest.(check int) "no check failures" 0
    casc.Pipeline.counters.C.check_failures;
  let fewer what get =
    let p = get plain.Pipeline.counters and c = get casc.Pipeline.counters in
    if not (c < p) then Alcotest.failf "cascade %s %d, plain %d" what c p
  in
  fewer "cycles" (fun c -> c.C.cycles);
  fewer "loads" (fun c -> c.C.loads_retired)

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
      Alcotest.test_case "figure 9 classes every retired load" `Slow test_figure9_total;
      Alcotest.test_case "figure 9 by hand (Figure 5 shape)" `Slow test_figure9_by_hand;
      Alcotest.test_case "vpr at alat: register stack under gate-ledger ranking"
        `Slow test_vpr_gate_ledger_ranking;
      Alcotest.test_case "ablation suite runs each build once" `Slow
        test_ablation_suite_runs_once;
      Alcotest.test_case "cascade beats plain alat on its shape" `Quick
        test_cascade_wins ]
