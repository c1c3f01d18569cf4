(* Quickstart: the whole pipeline on a dozen lines of MiniC.

   A global [limit] may be aliased by the pointer [knob] (the compiler
   cannot tell), so the baseline must reload it inside the loop.  The
   speculative build profiles a training run, sees that [knob] never hits
   [limit], promotes it into a register with an ALAT check, and wins.

   Run with: dune exec examples/quickstart.exe *)

let source = {|
int limit;
int table[64];
int* knob;
int sel;

int main() {
  int i;
  int sum = 0;
  limit = 37;
  if (sel == 99) { knob = &limit; } else { knob = &table[8]; }
  for (i = 0; i < 1000; i = i + 1) {
    sum = sum + limit + i;     // limit would stay in a register, but...
    *knob = sum;               // ...this store may alias it
    sum = sum + limit * 2;     // so the baseline reloads it here
  }
  print_int(sum);
  return 0;
}
|}

let () =
  (* 1. reference semantics + alias profile from the interpreter *)
  let prog = Srp_frontend.Lower.compile_source source in
  let _, expected, profile = Srp_profile.Interp.run_program prog in
  Fmt.pr "interpreter says: %s" expected;

  (* 2. baseline build (conservative PRE + software checks) *)
  let base_ir = Srp_frontend.Lower.compile_source source in
  ignore (Srp_core.Promote.run ~config:Srp_core.Config.baseline base_ir);
  let _, base_out, base_c =
    Srp_machine.Machine.run_program (Srp_target.Codegen.gen_program base_ir)
  in

  (* 3. speculative build (ALAT, profile-driven) *)
  let spec_ir = Srp_frontend.Lower.compile_source source in
  let r = Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) spec_ir in
  let _, spec_out, spec_c =
    Srp_machine.Machine.run_program (Srp_target.Codegen.gen_program spec_ir)
  in

  assert (base_out = expected && spec_out = expected);
  Fmt.pr "all three builds agree.@.@.";
  let s = r.Srp_core.Promote.stats in
  Fmt.pr "speculative promotion: %d expressions, %d checks@."
    s.Srp_core.Ssapre.exprs_promoted s.checks_inserted;
  let open Srp_machine.Counters in
  Fmt.pr "baseline:    %6d cycles, %5d loads@." base_c.cycles base_c.loads_retired;
  Fmt.pr "speculative: %6d cycles, %5d loads (%d checks, %d failed)@."
    spec_c.cycles spec_c.loads_retired spec_c.checks_retired spec_c.check_failures;
  Fmt.pr "cycle reduction: %.1f%%@."
    (100.0
    *. float_of_int (base_c.cycles - spec_c.cycles)
    /. float_of_int base_c.cycles)
