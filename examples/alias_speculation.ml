(* Alias speculation in the SSA form: the paper's section 3.1 (Figures 5
   and 6) on a real program.

   The points-to set of [p] computed by the compiler is {a, b}; the alias
   profile observes only {b}.  The store through [p] is therefore a chi_s
   on [a] (conflict probability 0) and the promoter's speculative rename
   ignores it: both loads of [a] read one h-version, and a check is
   planned after the store — exactly the example of Figure 6.  Without
   the profile the same store is a hard chi and the second load starts a
   new version.

   Run with: dune exec examples/alias_speculation.exe *)

let source = {|
int a; int b;
int* p;
int sel;

int main() {
  int x;
  int y;
  if (sel == 1) { p = &a; } else { p = &b; }
  a = 41;
  x = a;        // first occurrence of "a"
  *p = 7;       // compiler: may update a or b; profile: only ever b
  y = a;        // second occurrence: speculatively the same version
  print_int(x + y);
  return 0;
}
|}

let () =
  (* alias profile from a training run (sel = 0: p points at b) *)
  let pprog = Srp_frontend.Lower.compile_source source in
  let _, _, profile = Srp_profile.Interp.run_program pprog in
  Fmt.pr "=== alias profile (train input) ===@.%a@."
    Srp_profile.Alias_profile.pp profile;

  let prog = Srp_frontend.Lower.compile_source source in
  let pp_form config =
    Srp_core.Promote.pp_forms Fmt.stdout
      (Srp_core.Promote.round1_forms config prog)
  in

  (* without the profile: the store through p is a hard chi on a *)
  Fmt.pr "=== traditional renaming (conservative: chi on a) ===@.";
  pp_form Srp_core.Config.conservative;

  (* with the profile: the update of a becomes chi_s and is ignored *)
  Fmt.pr "@.=== speculative renaming (alat: chi_s on a, ignored and checked) ===@.";
  pp_form (Srp_core.Config.alat ~profile);

  (* and the resulting promotion *)
  let ir = Srp_frontend.Lower.compile_source source in
  let r = Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) ir in
  let s = r.Srp_core.Promote.stats in
  Fmt.pr "@.promotion on the speculative form: %d check statements@."
    s.Srp_core.Ssapre.checks_inserted;
  Fmt.pr "@.=== promoted IR (main) ===@.%a@." Srp_ir.Func.pp
    (Srp_ir.Program.find_func ir "main")
