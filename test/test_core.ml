(* Tests for the promotion pass itself: redundancy elimination, check
   insertion, arming, the invala strategy, store-load forwarding, software
   checks, and the regression cases found during development. *)

open Srp_frontend
module Config = Srp_core.Config
module Promote = Srp_core.Promote
module Ssapre = Srp_core.Ssapre

let compile = Lower.compile_source

let profile_of src =
  let p = compile src in
  let _, _, profile = Srp_profile.Interp.run_program p in
  profile

(* Compile + promote, return (program, stats). *)
let promoted ?(config = Config.conservative) src =
  let prog = compile src in
  let r = Promote.run ~config prog in
  (prog, r.Promote.stats)

let alat_promoted src =
  let profile = profile_of src in
  promoted ~config:(Config.alat ~profile) src

(* instruction census over one function *)
type census = {
  mutable loads : int;
  mutable ld_a : int;
  mutable ld_sa : int;
  mutable checks : int;
  mutable invala : int;
  mutable sw_checks : int;
  mutable stores : int;
}

let census prog fname =
  let c =
    { loads = 0; ld_a = 0; ld_sa = 0; checks = 0; invala = 0; sw_checks = 0; stores = 0 }
  in
  Srp_ir.Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Srp_ir.Instr.Load { promo; _ } -> (
        c.loads <- c.loads + 1;
        match promo with
        | Srp_ir.Instr.P_ld_a -> c.ld_a <- c.ld_a + 1
        | Srp_ir.Instr.P_ld_sa -> c.ld_sa <- c.ld_sa + 1
        | Srp_ir.Instr.P_none -> ())
      | Srp_ir.Instr.Check _ -> c.checks <- c.checks + 1
      | Srp_ir.Instr.Invala _ -> c.invala <- c.invala + 1
      | Srp_ir.Instr.Sw_check _ -> c.sw_checks <- c.sw_checks + 1
      | Srp_ir.Instr.Store _ -> c.stores <- c.stores + 1
      | _ -> ())
    (Srp_ir.Program.find_func prog fname);
  c

(* The loads of [prog], as (site, direct?). *)
let loads_of prog =
  let acc = ref [] in
  List.iter
    (Srp_ir.Func.iter_instrs (fun _ ins ->
         match ins with
         | Srp_ir.Instr.Load { site; addr; _ } ->
           acc := (site, Srp_ir.Ops.is_direct addr) :: !acc
         | _ -> ()))
    (Srp_ir.Program.funcs prog);
  !acc

(* Original-site loads the promotion removed, as (direct, indirect): the
   loads of the lowered [src], classed by their address there, whose site
   no load of the promoted [prog] carries any more. *)
let eliminated src prog =
  let left = List.map fst (loads_of prog) in
  List.fold_left
    (fun (d, i) (site, direct) ->
      if List.mem site left then (d, i) else if direct then (d + 1, i) else (d, i + 1))
    (0, 0) (loads_of (compile src))

(* Differential helper: conservative promotion must preserve interpreter
   semantics (the promoted IR is still interpretable). *)
let check_conservative_semantics src =
  let ref_prog = compile src in
  let _, expected, _ = Srp_profile.Interp.run_program ref_prog in
  let prog, _ = promoted ~config:Config.conservative src in
  let _, got, _ = Srp_profile.Interp.run_program ~collect_profile:false prog in
  Alcotest.(check string) "conservative semantics" expected got

let simple_redundant = {|
int g;
int main() {
  int a = g + 1;
  int b = g + 2;
  int c = g + 3;
  print_int(a + b + c);
  return 0;
}
|}

let test_simple_redundancy () =
  let prog, _ = promoted simple_redundant in
  (* 2 redundant loads of g, plus store-load forwarding of a, b and c *)
  Alcotest.(check int) "five loads eliminated" 5 (fst (eliminated simple_redundant prog));
  Alcotest.(check int) "one load remains" 1 (census prog "main").loads;
  check_conservative_semantics simple_redundant

let test_store_load_forwarding () =
  let src = {|
int g;
int main() {
  g = 42;
  print_int(g + 1);
  print_int(g + 2);
  return 0;
}
|} in
  let prog, _ = promoted src in
  Alcotest.(check int) "both loads eliminated" 2 (fst (eliminated src prog));
  Alcotest.(check int) "no loads left" 0 (census prog "main").loads;
  check_conservative_semantics src

let test_conservative_respects_alias () =
  (* with speculation off, the aliased store kills availability *)
  let src = {|
int a; int b;
int* q;
int sel;
int main() {
  if (sel) { q = &a; } else { q = &b; }
  a = 5;
  int x = a;
  *q = 9;
  int y = a;      // must be reloaded
  print_int(x + y);
  return 0;
}
|} in
  let prog, _ = promoted ~config:Config.conservative src in
  let c = census prog "main" in
  Alcotest.(check bool) "a reloaded after the aliased store" true (c.loads >= 1);
  Alcotest.(check int) "no checks in conservative mode" 0 c.checks;
  check_conservative_semantics src

let fig1_shape = {|
int a; int b;
int* q;
int sel;
int main() {
  if (sel) { q = &a; } else { q = &b; }
  a = 5;
  int x = a;
  *q = 9;
  int y = a;
  print_int(x + y);
  return 0;
}
|}

let test_alat_inserts_check () =
  let prog, _ = alat_promoted fig1_shape in
  let c = census prog "main" in
  Alcotest.(check bool) "a check statement exists" true (c.checks >= 1);
  Alcotest.(check bool) "an arming load (ld.a) exists" true (c.ld_a >= 1);
  Alcotest.(check bool) "speculative elimination happened" true
    (fst (eliminated fig1_shape prog) >= 1);
  Alcotest.(check bool) "all stores kept (ALAT never removes stores)" true
    (c.stores >= 3)

let test_software_check_mode () =
  let prog, stats = promoted ~config:Config.baseline fig1_shape in
  let c = census prog "main" in
  Alcotest.(check bool) "sw check emitted" true (c.sw_checks >= 1);
  Alcotest.(check int) "no alat checks in software mode" 0 c.checks;
  Alcotest.(check bool) "elimination happened" true
    (stats.Ssapre.sw_checks_inserted >= 1)

let test_software_handles_real_alias () =
  (* in software mode the check must forward the stored value when the
     alias is real: sel picks &a *)
  let src = {|
int a; int b;
int* q;
int sel = 1;
int main() {
  if (sel) { q = &a; } else { q = &b; }
  a = 5;
  int x = a;
  *q = 9;
  int y = a;      // really 9 now!
  print_int(x + y);
  return 0;
}
|} in
  let ref_prog = compile src in
  let _, expected, _ = Srp_profile.Interp.run_program ref_prog in
  Alcotest.(check string) "reference" "14\n" expected;
  let prog, _ = promoted ~config:Config.baseline src in
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, got, _ = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "software-checked result" expected got

let test_alat_handles_real_alias () =
  (* profile says q only ever hits b (train sel = 0), but we run the
     promoted code in a world where the profile was wrong by flipping the
     global before execution: the ALAT check must reload *)
  let train_src = {|
int a; int b;
int* q;
int sel;
int main() {
  if (sel == 7) { q = &a; } else { q = &b; }
  a = 5;
  int x = a;
  *q = 9;
  int y = a;
  print_int(x + y);
  return 0;
}
|} in
  let profile = profile_of train_src in
  (* same program with sel = 7 baked in: the alias is real at run time *)
  let prog = compile train_src in
  Srp_ir.Program.set_global_init prog "sel"
    Srp_ir.Program.(Init_ints (Payload.of_array [| 7L |]));
  ignore (Promote.run ~config:(Config.alat ~profile) prog);
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, got, counters = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "mis-speculation recovered" "14\n" got;
  Alcotest.(check bool) "a check actually failed" true
    (counters.Srp_machine.Counters.check_failures >= 1)

let test_loop_invariant_ld_sa () =
  let src = {|
int p; int b;
int* q;
int sel;
int n;
int main() {
  int i;
  int r = 0;
  if (sel == 7) { q = &p; } else { q = &b; }
  p = 11;
  n = 100;
  for (i = 0; i < n; i = i + 1) {
    *q = i;
    r = r + p + 1;
  }
  print_int(r);
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  let c = census prog "main" in
  Alcotest.(check bool) "ld.sa emitted for the hoisted load" true
    (c.ld_sa >= 1 || c.ld_a >= 1);
  Alcotest.(check bool) "in-loop check emitted" true (c.checks >= 1);
  Alcotest.(check bool) "loads eliminated" true (fst (eliminated src prog) > 0)

let test_indirect_promotion () =
  let src = {|
struct s { int a; int b; };
int stats[8];
int* slots[4];
int main() {
  struct s* o = malloc(16);
  o->a = 3;
  o->b = 4;
  slots[0] = &stats[0];
  slots[1] = &(o->a);
  int* cur = slots[0];
  int x = o->a;
  *cur = 5;
  int y = o->a;     // speculatively redundant (profile: cur only hits stats)
  print_int(x + y + o->b);
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  Alcotest.(check bool) "indirect loads eliminated" true
    (snd (eliminated src prog) >= 1)

let test_multi_def_base_promotion () =
  (* pointer-walking loop: the base temp is redefined every iteration, but
     the two *w reads within one iteration must still unify *)
  let src = {|
int arr[64];
int acc_tbl[8];
int* slots[4];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { arr[i] = i; }
  slots[0] = &acc_tbl[0];
  slots[1] = &arr[5];
  int* cur = slots[0];
  int* w = &arr[0];
  int sum = 0;
  for (i = 0; i < 60; i = i + 1) {
    int v = *w;
    *cur = *cur + v;
    sum = sum + *w + *w;   // re-reads across the cursor store
    w = w + 1;
  }
  print_int(sum);
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  Alcotest.(check bool) "pointer-walk re-reads eliminated" true
    (snd (eliminated src prog) >= 1)

(* Regression: a use reached only by a non-available Phi must materialize
   itself rather than read an undefined temp (found during development:
   [%26 = %32] with no definition of %32). *)
let test_regression_nonavail_phi () =
  let src = {|
int x; int y;
int* q;
int main() {
  int i;
  int acc = 0;
  q = &y;
  x = 10;
  for (i = 0; i < 10; i = i + 1) {
    acc = acc + x;
    *q = i;
  }
  print_int(acc);
  print_int(y);    // y's only load: reached through a dead Phi
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  (* run it: an undefined register read would crash the machine *)
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, got, _ = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "output" "100\n9\n" got

(* Regression: a later promotion round must not eliminate an earlier
   round's arming load (it would disarm the checks that rely on it). *)
let test_regression_arming_survives_rounds () =
  let src = {|
int x; int y;
int* q;
int sel;
int main() {
  int i;
  if (sel > 3) { q = &x; } else { q = &y; }
  x = 10;
  for (i = 0; i < 50; i = i + 1) {
    y = y + x + 1;
    *q = i;
    y = y + x + 3;
  }
  print_int(x); print_int(y);
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  let c = census prog "main" in
  Alcotest.(check bool) "checks exist" true (c.checks >= 1);
  Alcotest.(check bool) "arming load survives" true (c.ld_a >= 1);
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, got, counters = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "output" "10\n62\n" got;
  Alcotest.(check int) "no check ever fails (q never hits x)" 0
    counters.Srp_machine.Counters.check_failures

let test_check_cleanup_removes_dead () =
  (* a speculative kill whose version is never used afterwards must not
     leave a check behind *)
  let src = {|
int a; int b;
int* q;
int sel;
int main() {
  if (sel) { q = &a; } else { q = &b; }
  a = 5;
  int x = a;
  *q = 9;        // chi_s on a, but a is never read again
  print_int(x);
  return 0;
}
|} in
  let prog, _ = alat_promoted src in
  let c = census prog "main" in
  Alcotest.(check int) "no dead checks" 0 c.checks

let test_copy_prop_folds_constants () =
  let src = {|
int g;
int main() {
  g = 7;
  int a = g;
  int b = a + g;
  print_int(b);
  return 0;
}
|} in
  let prog, _ = promoted ~config:Config.conservative src in
  let _, out, _ = Srp_profile.Interp.run_program ~collect_profile:false prog in
  Alcotest.(check string) "value" "14\n" out

let test_stats_accounting () =
  let prog, stats = alat_promoted fig1_shape in
  Alcotest.(check bool) "exprs promoted counted" true (stats.Ssapre.exprs_promoted > 0);
  (* every load at a site the lowering did not make was inserted on an
     edge or arms after a store, and the stats count it *)
  let original = List.map fst (loads_of (compile fig1_shape)) in
  let fresh =
    List.filter (fun (site, _) -> not (List.mem site original)) (loads_of prog)
  in
  Alcotest.(check bool) "inserted loads counted" true
    (List.length fresh <= stats.Ssapre.loads_inserted + stats.Ssapre.arms);
  let d, i = eliminated fig1_shape prog in
  Alcotest.(check bool) "eliminated sites recorded" true (d + i >= 1)

let test_promotion_idempotent_semantics () =
  (* promoting twice must not change behaviour *)
  let src = fig1_shape in
  let profile = profile_of src in
  let prog = compile src in
  ignore (Promote.run ~config:(Config.alat ~profile) prog);
  ignore (Promote.run ~config:(Config.alat ~profile) prog);
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, got, _ = Srp_machine.Machine.run_program tgt in
  let refp = compile src in
  let _, expected, _ = Srp_profile.Interp.run_program refp in
  Alcotest.(check string) "double promotion semantics" expected got

let suite =
  [ Alcotest.test_case "simple redundancy" `Quick test_simple_redundancy;
    Alcotest.test_case "store-load forwarding" `Quick test_store_load_forwarding;
    Alcotest.test_case "conservative respects aliases" `Quick test_conservative_respects_alias;
    Alcotest.test_case "alat inserts ld.a + ld.c" `Quick test_alat_inserts_check;
    Alcotest.test_case "software check mode" `Quick test_software_check_mode;
    Alcotest.test_case "software handles real alias" `Quick test_software_handles_real_alias;
    Alcotest.test_case "alat recovers from mis-speculation" `Quick test_alat_handles_real_alias;
    Alcotest.test_case "loop invariant -> ld.sa" `Quick test_loop_invariant_ld_sa;
    Alcotest.test_case "indirect promotion" `Quick test_indirect_promotion;
    Alcotest.test_case "pointer-walk (multi-def base)" `Quick test_multi_def_base_promotion;
    Alcotest.test_case "regression: non-available phi" `Quick test_regression_nonavail_phi;
    Alcotest.test_case "regression: arming survives rounds" `Quick
      test_regression_arming_survives_rounds;
    Alcotest.test_case "dead check cleanup" `Quick test_check_cleanup_removes_dead;
    Alcotest.test_case "copy propagation" `Quick test_copy_prop_folds_constants;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "promotion idempotent" `Quick test_promotion_idempotent_semantics ]

(* --- cascade promotion (paper section 2.4, Figure 4) --- *)

let cascade_src = {|
int a; int b;
int* p;
int** pp;
int* r;
int sel;
int checksum;
int main() {
  int i;
  p = &a;
  a = 100;
  if (sel == 5) { pp = &p; } else { pp = &r; }
  for (i = 0; i < 40; i = i + 1) {
    checksum = checksum + *p + 1;
    *pp = &b;                        // may repoint p (never does when sel=0)
    checksum = checksum + *p + 3;   // cascade re-read
  }
  print_int(checksum);
  print_int(*p);
  return 0;
}
|}

let run_on_machine prog =
  Srp_machine.Machine.run_program (Srp_target.Codegen.gen_program prog)

let test_cascade_promotes_more () =
  let profile = profile_of cascade_src in
  let plain, _ = promoted ~config:(Config.alat ~profile) cascade_src in
  let casc_prog, casc = promoted ~config:(Config.alat_cascade ~profile) cascade_src in
  Alcotest.(check bool) "cascade eliminates additional indirect loads" true
    (snd (eliminated cascade_src casc_prog) > snd (eliminated cascade_src plain));
  Alcotest.(check bool) "a chk.a was emitted" true (casc.Ssapre.chk_a_inserted >= 1)

let test_cascade_correct () =
  let refp = compile cascade_src in
  let _, out, profile = Srp_profile.Interp.run_program refp in
  let prog, _ = promoted ~config:(Config.alat_cascade ~profile) cascade_src in
  let _, got, c = run_on_machine prog in
  Alcotest.(check string) "cascade output" out got;
  Alcotest.(check int) "no recovery needed when the profile holds" 0
    c.Srp_machine.Counters.check_failures

let test_cascade_recovery_fires () =
  (* profile says pp never repoints p; run with sel=5 where it always does *)
  let profile = profile_of cascade_src in
  let prog = compile cascade_src in
  Srp_ir.Program.set_global_init prog "sel"
    Srp_ir.Program.(Init_ints (Payload.of_array [| 5L |]));
  let refp = compile cascade_src in
  Srp_ir.Program.set_global_init refp "sel"
    Srp_ir.Program.(Init_ints (Payload.of_array [| 5L |]));
  let _, expected, _ = Srp_profile.Interp.run_program refp in
  ignore (Promote.run ~config:(Config.alat_cascade ~profile) prog);
  let _, got, c = run_on_machine prog in
  Alcotest.(check string) "recovered output" expected got;
  Alcotest.(check bool) "recovery routine actually ran" true
    (c.Srp_machine.Counters.check_failures >= 40)

let cascade_suite =
  [ Alcotest.test_case "cascade promotes across pointer checks" `Quick
      test_cascade_promotes_more;
    Alcotest.test_case "cascade correctness (profile holds)" `Quick test_cascade_correct;
    Alcotest.test_case "cascade recovery on mis-speculation" `Quick
      test_cascade_recovery_fires ]

let suite = suite @ cascade_suite
