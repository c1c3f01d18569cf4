(* Differential testing over randomly generated MiniC programs: the
   interpreter and the machine simulator must agree at every optimization
   level — including speculative ALAT promotion under a profile collected
   from the program's own run, and under an adversarially *wrong* profile
   (empty profile: everything looks speculative), which exercises check
   mis-speculation recovery. *)

module Config = Srp_core.Config
module Promote = Srp_core.Promote
module Pipeline = Srp_driver.Pipeline
module Stage = Srp_driver.Stage
module Workload = Srp_driver.Workload
module Experiments = Srp_driver.Experiments

(* The IR interpreter's run of [src] on [input]: the exit code and
   output every build of it must reproduce, and its alias profile. *)
let interp_reference ?(input = []) src =
  let prog = Srp_frontend.Lower.compile_source src in
  Workload.apply_input prog input;
  Srp_profile.Interp.run_program prog

(* Build [src] through the pipeline at [level] with [ablations] and run
   it.  The callers pass one [cache] per program, so the points of its
   level x ablation sweep share every stage they agree on. *)
let machine_run ~cache ?(ablations = []) src (level, profile) =
  let w =
    { Workload.name = "random"; description = ""; source = src; train = [];
      ref_ = [] }
  in
  let r =
    Pipeline.run ~fuel:50_000_000
      (Pipeline.compile ~cache ?profile ~ablations ~input:[] w level)
  in
  (r.Pipeline.exit_code, r.Pipeline.output)

let check_level ~cache ?ablations src name expected build =
  let code, out = machine_run ~cache ?ablations src build in
  if out <> snd expected || code <> fst expected then
    Alcotest.failf "%s diverged!\n--- source ---\n%s\n--- expected ---\n%s--- got ---\n%s"
      name src (snd expected) out

(* the level sweep every seed goes through; the empty profile is the
   adversarial case: it claims nothing ever aliases, so every chi becomes
   speculative and the ALAT checks must repair all of it *)
let level_configs profile =
  let empty = Srp_profile.Alias_profile.create () in
  Pipeline.
    [ ("O0", O0, None);
      ("conservative", Conservative, None);
      ("baseline(software)", Baseline, None);
      ("alat-heuristic", Alat_heuristic, None);
      ("alat-profile", Alat, Some profile);
      ("alat-wrong-profile", Alat, Some empty) ]

(* the fixed seeds and hand-picked shapes run the ungated promoter *)
let ungated = [ Pipeline.No_pressure ]

let run_seed seed =
  let src = Gen_minic.program ~seed () in
  let code, out, profile = interp_reference src in
  let expected = (code, out) in
  let cache = Stage.create () in
  List.iter
    (fun (name, level, profile) ->
      check_level ~cache ~ablations:ungated src
        (Fmt.str "seed %d %s" seed name)
        expected (level, profile))
    (level_configs profile);
  (* conservative promotion must also be interpretable *)
  let prog = Srp_frontend.Lower.compile_source src in
  ignore (Promote.run ~config:Config.conservative prog);
  let _, out2, _ = Srp_profile.Interp.run_program ~collect_profile:false prog in
  if out2 <> out then Alcotest.failf "conservative interp diverged for seed %d" seed

(* every level crossed with sets of ablations over the backend and
   promoter axes.  Pressure on runs the gated promoter with the
   pipeline's regalloc estimate; no-sched drops the pre-bundle list
   scheduler, which may only move cycle-family counters; no-prob is the
   binary may-touch verdict.  Cascade without the pressure gate is the
   entry whose builds emit chk.a (under the empty profile: 26 of seeds
   1-30; gated, none does) and take the recovery edge through regalloc,
   layout, sched and bundle.  The last entry turns every ablation on at
   once.  All must agree with the interpreter bit for bit — a gate may
   promote less or speculate differently, never compute differently.
   The failure message carries the reproducing seed. *)
let default_combos =
  Pipeline.
    [ []; [ No_bundle ]; [ No_layout; No_prob ];
      [ No_layout; No_sched; No_bundle ]; [ No_sched; No_prob ];
      [ No_split ]; [ No_layout; No_sched; No_bundle; No_split ];
      [ No_pressure ]; [ No_sched; No_split; No_pressure; No_prob ];
      [ Cascade; No_pressure ]; all_ablations ]

let run_seed_matrix ?(combos = default_combos) seed =
  let src = Gen_minic.program ~seed () in
  let code, out, profile = interp_reference src in
  let expected = (code, out) in
  let cache = Stage.create () in
  List.iter
    (fun ablations ->
      List.iter
        (fun (name, level, profile) ->
          check_level ~cache ~ablations src
            (Fmt.str "seed %d %s [%s]" seed name
               (String.concat " " (List.map Pipeline.ablation_name ablations)))
            expected (level, profile))
        (level_configs profile))
    combos

(* The promoter configurations the batch check sweeps: the default, the
   cascade crossing, no pressure gate, the binary verdict, and cascade
   without the gate. *)
let batch_combos =
  Pipeline.[ []; [ Cascade ]; [ No_pressure ]; [ No_prob ]; [ Cascade; No_pressure ] ]

(* Every promoting level of the sweep under every configuration of
   [combos] promotes seed [seed]'s program in one batch per function
   exactly as committing one candidate at a time does
   ([Test_ssa.check_batch_is_sequential]). *)
let check_batch_seed ?(combos = batch_combos) seed =
  let src = Gen_minic.program ~seed () in
  let _, _, profile = interp_reference src in
  let prog = Srp_frontend.Lower.compile_source src in
  List.iter
    (fun ablations ->
      List.iter
        (fun (name, level, profile) ->
          Option.iter
            (fun config ->
              let config = List.fold_left (Fun.flip Pipeline.apply_ablation) config ablations in
              ignore
                (Test_ssa.check_batch_is_sequential
                   (Fmt.str "seed %d %s [%s]" seed name
                      (String.concat " " (List.map Pipeline.ablation_name ablations)))
                   config prog))
            (Pipeline.config_of_level level profile))
        (level_configs profile))
    combos

let test_batch lo hi () =
  for seed = lo to hi do
    run_seed seed
  done

let test_matrix_batch lo hi () =
  for seed = lo to hi do
    run_seed_matrix seed
  done

let test_batch_is_sequential lo hi () =
  for seed = lo to hi do
    check_batch_seed seed
  done

(* The count for a test name: a malformed value shows as "?" and fails
   the test that reads it. *)
let count_label = Result.fold ~ok:string_of_int ~error:(fun _ -> "?")

let test_env_count () =
  let expect_error value min =
    Error (Fmt.str "SRP_N=%S: expected an integer >= %d" value min)
  in
  List.iter
    (fun (value, min, expected) ->
      Alcotest.(check (result int string))
        (Fmt.str "%a (min %d)" Fmt.(Dump.option Dump.string) value min)
        expected
        (Experiments.env_count ~lookup:(fun _ -> value) "SRP_N" ~default:6 ~min))
    [ (None, 1, Ok 6); (Some "", 1, Ok 6); (Some "150", 1, Ok 150);
      (Some "0", 0, Ok 0); (Some "150 ", 0, expect_error "150 " 0);
      (Some "abc", 0, expect_error "abc" 0); (Some "-3", 0, expect_error "-3" 0);
      (Some "0", 1, expect_error "0" 1) ]

(* SRP_FUZZ_ITERS=N runs N extra seeds through the full level x
   ablation matrix and the batch check — off (0) in the default test
   run, used by the non-blocking CI fuzz jobs and for local soak testing;
   a malformed count fails the sweep.  SRP_FUZZ_ABLATION=NAME adds the
   named ablation to every entry of both (e.g. no-split focuses the sweep
   on the closed-interval allocator), so each ablation can get its own CI
   soak; an unknown name fails the sweep. *)
let fuzz_iters = Experiments.env_count "SRP_FUZZ_ITERS" ~default:0 ~min:0

let fuzz_combos () =
  match Sys.getenv_opt "SRP_FUZZ_ABLATION" with
  | None | Some "" -> Fun.id
  | Some name -> (
    match Pipeline.parse_ablation name with
    | Ok a ->
      fun combos ->
        List.sort_uniq compare
          (List.map (fun c -> Pipeline.canonical_ablations (a :: c)) combos)
    | Error e -> Alcotest.failf "SRP_FUZZ_ABLATION: %s" e)

let test_fuzz_sweep () =
  let iters =
    match fuzz_iters with Ok n -> n | Error e -> Alcotest.fail e
  in
  let combos = fuzz_combos () in
  for seed = 10_000 to 10_000 + iters - 1 do
    run_seed_matrix ~combos:(combos default_combos) seed;
    check_batch_seed ~combos:(combos batch_combos) seed
  done

(* A couple of adversarial hand-picked shapes the generator rarely hits. *)
let test_alias_storm () =
  (* every pointer aimed at the same scalar: constant real collisions *)
  let src = {|
int g = 3;
int h = 4;
int* p0; int* p1; int* p2;
int checksum;
int main() {
  p0 = &g; p1 = &g; p2 = &h;
  int i;
  for (i = 0; i < 30; i = i + 1) {
    checksum = checksum + g;
    *p0 = checksum % 13;
    checksum = checksum + g + h;
    *p1 = g + 1;
    *p2 = h + 1;
    checksum = checksum + g - h;
  }
  print_int(checksum); print_int(g); print_int(h);
  return 0;
}
|} in
  let code, out, profile = interp_reference src in
  let check_level = check_level ~cache:(Stage.create ()) ~ablations:ungated in
  check_level src "storm O0" (code, out) (Pipeline.O0, None);
  check_level src "storm alat" (code, out) (Pipeline.Alat, Some profile);
  let empty = Srp_profile.Alias_profile.create () in
  check_level src "storm alat wrong-profile" (code, out)
    (Pipeline.Alat, Some empty)

let test_self_aliasing_walk () =
  (* a pointer that walks over the array it is also read through *)
  let src = {|
int arr[16];
int* w;
int checksum;
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) { arr[i] = i; }
  w = &arr[0];
  for (i = 0; i < 15; i = i + 1) {
    checksum = checksum + *w;
    arr[(i + 1) % 16] = *w + 2;
    checksum = checksum + *w;
    w = w + 1;
  }
  print_int(checksum);
  return 0;
}
|} in
  let code, out, profile = interp_reference src in
  let check_level = check_level ~cache:(Stage.create ()) ~ablations:ungated in
  check_level src "walk O0" (code, out) (Pipeline.O0, None);
  check_level src "walk baseline" (code, out) (Pipeline.Baseline, None);
  check_level src "walk alat" (code, out) (Pipeline.Alat, Some profile)

let suite =
  [ Alcotest.test_case "random differential seeds 1-40" `Quick (test_batch 1 40);
    Alcotest.test_case "random differential seeds 41-80" `Quick (test_batch 41 80);
    Alcotest.test_case "random differential seeds 81-120" `Slow (test_batch 81 120);
    Alcotest.test_case "random differential seeds 121-200" `Slow (test_batch 121 200);
    Alcotest.test_case "matrix differential seeds 1-10 (layout x bundle)" `Quick
      (test_matrix_batch 1 10);
    Alcotest.test_case "matrix differential seeds 11-30 (layout x bundle)" `Slow
      (test_matrix_batch 11 30);
    Alcotest.test_case "batch promotion = one commit at a time, seeds 1-30" `Quick
      (test_batch_is_sequential 1 30);
    Alcotest.test_case
      (Fmt.str "fuzz sweep (SRP_FUZZ_ITERS=%s)" (count_label fuzz_iters))
      `Quick test_fuzz_sweep;
    Alcotest.test_case "count variables: default, value or named error"
      `Quick test_env_count;
    Alcotest.test_case "alias storm" `Quick test_alias_storm;
    Alcotest.test_case "self-aliasing pointer walk" `Quick test_self_aliasing_walk ]
