(* Tests for the points-to analysis, the type filter and mod/ref summaries,
   including the soundness property that every dynamically observed target
   is statically predicted. *)

open Srp_frontend
module Location = Srp_alias.Location
module Manager = Srp_alias.Manager
module Andersen = Srp_alias.Andersen
module Modref = Srp_alias.Modref

let compile = Lower.compile_source

(* The points-to set of the address temp of the first indirect store in
   [fname]. *)
let first_indirect_store_pts which prog fname =
  let f = Srp_ir.Program.find_func prog fname in
  let result = ref None in
  Srp_ir.Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Srp_ir.Instr.Store { addr = { Srp_ir.Ops.base = Srp_ir.Ops.Reg r; _ }; _ }
        when !result = None ->
        result := Some (which ~func:fname r)
      | _ -> ())
    f;
  match !result with Some s -> s | None -> Alcotest.fail "no indirect store found"

let names_of set =
  Location.Set.elements set |> List.map Location.to_string |> List.sort compare

let two_targets_src = {|
int a; int b; int c;
int* p;
int sel;
int main() {
  if (sel) { p = &a; } else { p = &b; }
  *p = 1;
  c = 2;
  return 0;
}
|}

let test_andersen_two_targets () =
  let prog = compile two_targets_src in
  let an = Andersen.run prog in
  let pts = first_indirect_store_pts (Andersen.points_to_of_temp an) prog "main" in
  Alcotest.(check (list string)) "p -> {a, b}" [ "a"; "b" ] (names_of pts)

(* Andersen is directional: [q = &a; p = q] must not make q point to what p
   later receives. *)
let direction_src = {|
int a; int b;
int* p; int* q;
int main() {
  q = &a;
  p = q;
  p = &b;
  *q = 1;
  return 0;
}
|}

let test_andersen_directional () =
  let prog = compile direction_src in
  let an = Andersen.run prog in
  let a_pts = first_indirect_store_pts (Andersen.points_to_of_temp an) prog "main" in
  Alcotest.(check (list string)) "andersen: q -> {a}" [ "a" ] (names_of a_pts)

let test_heap_site_naming () =
  let src = {|
struct s { int v; struct s* n; };
struct s* mk1() { struct s* x = malloc(16); return x; }
struct s* mk2() { struct s* x = malloc(16); return x; }
int main() {
  struct s* a = mk1();
  struct s* b = mk2();
  a->v = 1;
  b->v = 2;
  return a->v + b->v;
}
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let f = Srp_ir.Program.find_func prog "main" in
  let sets = ref [] in
  Srp_ir.Func.iter_instrs
    (fun _ ins ->
      match ins with
      | Srp_ir.Instr.Store { addr = { Srp_ir.Ops.base = Srp_ir.Ops.Reg r; _ }; mty; _ } ->
        sets := Manager.points_to mgr ~func:"main" ~mty r :: !sets
      | _ -> ())
    f;
  (match !sets with
  | [ s2; s1 ] ->
    Alcotest.(check int) "a's store: one heap site" 1 (Location.Set.cardinal s1);
    Alcotest.(check int) "b's store: one heap site" 1 (Location.Set.cardinal s2);
    Alcotest.(check bool) "different allocation sites" false (Location.Set.equal s1 s2)
  | _ -> Alcotest.fail "expected two indirect stores")

let test_pointer_table_confuses_both () =
  (* the kernel idiom: a pointer table holding mostly-array pointers plus
     one pointer to a hot scalar forces the analysis to include the
     scalar *)
  let src = {|
int hot;
int arr[8];
int* slots[4];
int main() {
  slots[0] = &arr[0];
  slots[1] = &arr[4];
  slots[2] = &hot;
  int* c = slots[1];
  *c = 5;
  return hot;
}
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let pts =
    first_indirect_store_pts
      (fun ~func r -> Manager.points_to mgr ~func ~mty:Srp_ir.Mem_ty.I64 r)
      prog "main"
  in
  Alcotest.(check bool) "hot is a may-target" true
    (List.mem "hot" (names_of pts));
  Alcotest.(check bool) "arr is a may-target" true (List.mem "arr" (names_of pts))

let test_type_filter () =
  let src = {|
int ivar; double dvar;
double* dp;
int sel;
double scratch[4];
int main() {
  if (sel) { dp = &dvar; } else { dp = &scratch[0]; }
  *dp = 1.5;
  ivar = 3;
  return ivar;
}
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let pts =
    first_indirect_store_pts
      (fun ~func r -> Manager.points_to mgr ~func ~mty:Srp_ir.Mem_ty.F64 r)
      prog "main"
  in
  (* the F64 store must not be assumed to alias the int variable *)
  Alcotest.(check bool) "no int target for an f64 store" false
    (List.mem "ivar" (names_of pts));
  Alcotest.(check bool) "dvar is a target" true (List.mem "dvar" (names_of pts))

let test_modref () =
  let src = {|
int g; int h;
int* p;
void writes_g() { g = 1; }
void writes_both() { writes_g(); h = 2; }
int reads_g() { return g; }
int main() { p = &g; writes_both(); return reads_g(); }
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let mr = Modref.compute mgr prog in
  let names set = names_of set in
  Alcotest.(check (list string)) "writes_g mods g" [ "g" ] (names (Modref.mod_of mr "writes_g"));
  Alcotest.(check (list string)) "writes_both mods g,h" [ "g"; "h" ]
    (names (Modref.mod_of mr "writes_both"));
  Alcotest.(check (list string)) "reads_g mods nothing" [] (names (Modref.mod_of mr "reads_g"))

let test_modref_recursion () =
  let src = {|
int g;
int down(int n) { if (n <= 0) { return 0; } g = g + n; return down(n - 1); }
int main() { return down(3); }
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let mr = Modref.compute mgr prog in
  Alcotest.(check (list string)) "recursive fn mods g" [ "g" ]
    (names_of (Modref.mod_of mr "down"))

let test_modref_private_locals_hidden () =
  let src = {|
int callee() { int local = 5; local = local + 1; return local; }
int main() { return callee(); }
|} in
  let prog = compile src in
  let mgr = Manager.build prog in
  let mr = Modref.compute mgr prog in
  Alcotest.(check (list string)) "private locals invisible" []
    (names_of (Modref.mod_of mr "callee"))

(* Soundness of the static analysis against the dynamic profile: every
   location an indirect load or store actually touched must be in the
   static points-to set of that site's address.  Returns how many
   indirect sites [prog] executed. *)
let check_sound ~what prog profile =
  let mgr = Manager.build prog in
  let sites = ref 0 in
  List.iter
    (fun f ->
      let fname = Srp_ir.Func.name f in
      Srp_ir.Func.iter_instrs
        (fun _ ins ->
          match ins with
          | Srp_ir.Instr.Store
              { addr = { Srp_ir.Ops.base = Srp_ir.Ops.Reg r; _ }; mty; site; _ }
          | Srp_ir.Instr.Load
              { addr = { Srp_ir.Ops.base = Srp_ir.Ops.Reg r; _ }; mty; site; _ } ->
            let static = Manager.points_to mgr ~func:fname ~mty r in
            let dynamic = Srp_profile.Alias_profile.targets profile site in
            if not (Location.Set.is_empty dynamic) then incr sites;
            if not (Location.Set.subset dynamic static) then
              Alcotest.failf "%s: unsound at %a: dynamic {%a} vs static {%a}" what
                Srp_ir.Site.pp site
                (Srp_support.Pp_util.pp_list Location.pp)
                (Location.Set.elements dynamic)
                (Srp_support.Pp_util.pp_list Location.pp)
                (Location.Set.elements static)
          | _ -> ())
        f)
    (Srp_ir.Program.funcs prog);
  !sites

let check_soundness src =
  let prog = compile src in
  let _, _, profile = Srp_profile.Interp.run_program prog in
  ignore (check_sound ~what:"source" prog profile)

let test_soundness_vs_profile () =
  check_soundness two_targets_src;
  check_soundness direction_src;
  check_soundness {|
struct n { int v; struct n* next; };
int table[16];
int* cur;
int main() {
  struct n* head = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    struct n* e = malloc(16);
    e->v = i;
    e->next = head;
    head = e;
  }
  cur = &table[3];
  int s = 0;
  while (head != 0) { *cur = s; s = s + head->v; head = head->next; }
  print_int(s);
  return 0;
}
|}

(* Soundness on every built-in kernel (train inputs, the profile run the
   compiler itself uses), indirect loads and stores alike. *)
let test_soundness_kernels () =
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let prog = compile w.Srp_driver.Workload.source in
      Srp_driver.Workload.apply_input prog w.Srp_driver.Workload.train;
      let interp = Srp_profile.Interp.create prog in
      ignore (Srp_profile.Interp.run interp);
      let profile = Srp_profile.Interp.profile interp in
      ignore (check_sound ~what:w.Srp_driver.Workload.name prog profile))
    (Srp_workloads.Registry.all ())

(* Soundness on random pointer programs: the fixed seeds of the random
   differential tests, each profiled by its own interpreter run. *)
let test_soundness_gen_minic () =
  let sites = ref 0 in
  for seed = 1 to 200 do
    let prog = compile (Gen_minic.program ~seed ()) in
    let _, _, profile = Srp_profile.Interp.run_program prog in
    sites := !sites + check_sound ~what:(Fmt.str "seed %d" seed) prog profile
  done;
  (* the generator must keep emitting pointer traffic for this to mean
     anything: at least one executed indirect site per seed on average *)
  Alcotest.(check bool) "executed indirect sites checked" true (!sites > 200)

(* Every (function, temp, cell type) query [prog] can ask: each temp a
   function defines or reads, under both cell types. *)
let all_queries prog =
  List.concat_map
    (fun f ->
      let seen = Hashtbl.create 64 in
      Srp_ir.Func.iter_instrs
        (fun _ ins ->
          List.iter
            (fun t -> Hashtbl.replace seen (Srp_ir.Temp.id t) t)
            (Srp_ir.Instr.defs ins @ Srp_ir.Instr.uses ins))
        f;
      Hashtbl.fold
        (fun _ t acc ->
          List.map (fun mty -> (Srp_ir.Func.name f, t, mty)) Srp_ir.Mem_ty.[ I64; F64 ]
          @ acc)
        seen [])
    (Srp_ir.Program.funcs prog)
  |> List.sort compare

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* [mgr] answers every query of [prog], asked twice in a shuffled order
   (the second time from its memo table), as [fresh] answers it asked
   once: memoizing changes no answer. *)
let check_memo what rng mgr fresh prog =
  let queries = all_queries prog in
  let ask m (func, t, mty) = Manager.points_to m ~func ~mty t in
  let expected = Hashtbl.create 256 in
  List.iter (fun q -> Hashtbl.replace expected q (ask fresh q)) queries;
  if Hashtbl.fold (fun _ s n -> if Location.Set.is_empty s then n else n + 1) expected 0 = 0
  then Alcotest.failf "%s: every one of %d queries points nowhere" what (List.length queries);
  List.iter
    (fun pass ->
      List.iter
        (fun ((func, t, mty) as q) ->
          if not (Location.Set.equal (Hashtbl.find expected q) (ask mgr q)) then
            Alcotest.failf "%s, pass %d: points_to %s %a.%a differs from a fresh build"
              what pass func Srp_ir.Temp.pp t Srp_ir.Mem_ty.pp mty)
        (shuffle rng queries))
    [ 1; 2 ]

(* The promoter's alias queries are memoized for a round: on every
   kernel, the applied program and the program after one promotion round
   answer as a fresh build does.  A manager built before the round,
   asked about the temps the round made, answers as a fresh build of the
   unpromoted program does: nothing (each round's analyses are built on
   the program as that round starts). *)
let test_points_to_memo () =
  let rng = Random.State.make [| 26 |] in
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let name = w.Srp_driver.Workload.name in
      let prog = compile w.Srp_driver.Workload.source in
      Srp_driver.Workload.apply_input prog w.Srp_driver.Workload.train;
      let before = Manager.build prog in
      let unpromoted = Srp_ir.Program.clone prog in
      check_memo (name ^ " applied") rng before (Manager.build unpromoted) prog;
      let config =
        Option.get
          (Srp_driver.Pipeline.config_of_level Srp_driver.Pipeline.Alat
             (Some (Srp_driver.Pipeline.train_profile w)))
      in
      ignore
        (Srp_core.Promote.run
           ~config:{ config with Srp_core.Config.max_rounds = 1 } prog);
      check_memo (name ^ " promoted") rng (Manager.build prog) (Manager.build prog) prog;
      check_memo (name ^ " promoted, pre-round manager") rng before
        (Manager.build unpromoted) prog)
    (Srp_workloads.Registry.all ())

let suite =
  [ Alcotest.test_case "andersen two targets" `Quick test_andersen_two_targets;
    Alcotest.test_case "andersen directional precision" `Quick test_andersen_directional;
    Alcotest.test_case "heap site naming" `Quick test_heap_site_naming;
    Alcotest.test_case "pointer table confuses both" `Quick test_pointer_table_confuses_both;
    Alcotest.test_case "type-based filter" `Quick test_type_filter;
    Alcotest.test_case "mod/ref summaries" `Quick test_modref;
    Alcotest.test_case "mod/ref recursion" `Quick test_modref_recursion;
    Alcotest.test_case "mod/ref hides private locals" `Quick test_modref_private_locals_hidden;
    Alcotest.test_case "static soundness vs dynamic profile" `Quick test_soundness_vs_profile;
    Alcotest.test_case "soundness on all kernels (train)" `Slow test_soundness_kernels;
    Alcotest.test_case "static soundness on gen_minic seeds" `Slow test_soundness_gen_minic;
    Alcotest.test_case "memoized points-to equals a fresh build" `Slow test_points_to_memo ]
