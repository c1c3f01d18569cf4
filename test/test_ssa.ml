(* Tests for the promoter's speculative SSA form (paper sections
   3.1-3.3): the chi/chi_s kills each candidate sees, the h-versions
   SSAPRE's speculative rename gives its occurrences, the Phis at merges,
   and the form `srp ssa` prints. *)

open Srp_frontend
module Cfg = Srp_ir.Cfg
module Dominance = Srp_ir.Dominance
module Expr = Srp_core.Expr
module Ssapre = Srp_core.Ssapre
module Promote = Srp_core.Promote
module Config = Srp_core.Config
module Modref = Srp_alias.Modref

let figure5_src = {|
int a; int b;
int* p;
int sel;
int main() {
  if (sel == 1) { p = &a; } else { p = &b; }
  a = 41;
  int x = a;
  *p = 7;
  int y = a;
  print_int(x + y);
  return 0;
}
|}

(* The alias profile of [src] on its own (train) run. *)
let train src =
  let _, _, profile = Srp_profile.Interp.run_program (Lower.compile_source src) in
  profile

(* The prepared form of the direct candidate on global [name] in main,
   in the contexts [Promote.run] builds under [config]; [binary] narrows
   the scope to the binary verdict (only p = 0 kills are chi_s).  The
   symbol need not be loaded anywhere. *)
let prepare_global ?(binary = false) ~config src name =
  let prog = Lower.compile_source src in
  let f = Srp_ir.Program.find_func prog "main" in
  let cm_ctx, collect = Promote.contexts config prog f in
  let collect =
    if binary then { collect with Expr.prob_gate = Some 0.0 } else collect
  in
  let sym, _ =
    List.find
      (fun (s, _) -> Srp_ir.Symbol.name s = name)
      (Srp_ir.Program.globals prog)
  in
  Ssapre.prepare cm_ctx collect f
    { Expr.base = Srp_ir.Ops.Sym sym; offset = 0; mty = Srp_ir.Mem_ty.I64 }

(* The round-1 form of the candidate on symbol [name], as `srp ssa`
   prints it. *)
let form ~config src name =
  let is_name (fm : Promote.form) =
    match fm.Promote.key.Expr.base with
    | Srp_ir.Ops.Sym s -> Srp_ir.Symbol.name s = name
    | Srp_ir.Ops.Reg _ -> false
  in
  match
    List.filter is_name (Promote.round1_forms config (Lower.compile_source src))
  with
  | [ fm ] -> fm.Promote.choice.Promote.prepared
  | fms -> Alcotest.failf "expected one candidate on %s, got %d" name (List.length fms)

let events (p : Ssapre.prepared) =
  List.concat_map
    (fun node -> List.map (fun ev -> (node, ev)) p.Ssapre.p_a.Ssapre.events.(node))
    (List.init (Cfg.num_nodes p.Ssapre.p_a.Ssapre.cfg) Fun.id)

let instr_at (p : Ssapre.prepared) node idx =
  List.nth (Cfg.block p.Ssapre.p_a.Ssapre.cfg node).Srp_ir.Block.instrs idx

(* The h-version of every use, in block order. *)
let use_versions p =
  let versions = Ssapre.event_versions p.Ssapre.p_a in
  List.filter_map
    (fun (node, (ev : Expr.event)) ->
      match ev with
      | Expr.Use { idx; _ } -> Hashtbl.find_opt versions (node, idx)
      | Expr.Def _ | Expr.Kill _ -> None)
    (events p)

(* Every kill as (node, idx, spec, prob). *)
let kills p =
  List.filter_map
    (fun (node, (ev : Expr.event)) ->
      match ev with
      | Expr.Kill { idx; spec; prob; _ } -> Some (node, idx, spec, prob)
      | Expr.Use _ | Expr.Def _ -> None)
    (events p)

let distinct l = List.length (List.sort_uniq compare l)

(* Without a profile the store through p is a hard chi on both of its
   may-targets. *)
let test_chi_on_both_targets () =
  List.iter
    (fun name ->
      match kills (prepare_global ~config:Config.conservative figure5_src name) with
      | [ (_, _, spec, _) ] -> Alcotest.(check bool) ("hard chi on " ^ name) false spec
      | ks -> Alcotest.failf "expected one kill on %s, got %d" name (List.length ks))
    [ "a"; "b" ]

(* Trained with sel = 0, p only ever points at b: the store is a chi_s on
   a with conflict probability 0, while on b it carries p = 1 and stays a
   hard chi under the binary verdict (the paper's Figure 5). *)
let test_chi_speculative_with_profile () =
  let config = Config.alat ~profile:(train figure5_src) in
  let kill name =
    match kills (prepare_global ~binary:true ~config figure5_src name) with
    | [ (_, _, spec, prob) ] -> (spec, prob)
    | ks -> Alcotest.failf "expected one kill on %s, got %d" name (List.length ks)
  in
  Alcotest.(check (pair bool (float 0.0))) "chi_s on a" (true, 0.0) (kill "a");
  Alcotest.(check (pair bool (float 0.0))) "real chi on b" (false, 1.0) (kill "b")

(* A hard chi renumbers: the load after it starts a new version. *)
let test_ssa_versions () =
  let p = form ~config:Config.conservative figure5_src "a" in
  Alcotest.(check int) "two loads of a" 2 (List.length (use_versions p));
  Alcotest.(check int) "two distinct versions of a" 2 (distinct (use_versions p));
  Alcotest.(check int) "two versions in all" 2
    (List.length p.Ssapre.p_a.Ssapre.versions)

(* Speculative rename ignores the chi_s: both loads of a read the one
   version, which the chi_s keeps, and a check is planned after it (the
   paper's Figure 6). *)
let test_spec_rename_shares_version () =
  let p = form ~config:(Config.alat ~profile:(train figure5_src)) figure5_src "a" in
  Alcotest.(check int) "one version in all" 1
    (List.length p.Ssapre.p_a.Ssapre.versions);
  (match use_versions p with
  | [ v1; v2 ] -> Alcotest.(check int) "both loads share a version" v1 v2
  | vs -> Alcotest.failf "expected two loads of a, got %d" (List.length vs));
  match kills p with
  | [ (node, idx, true, prob) ] ->
    Alcotest.(check (float 0.0)) "conflict probability" 0.0 prob;
    Alcotest.(check (option int)) "the chi_s keeps the version"
      (Some (List.hd (use_versions p)))
      (Hashtbl.find_opt (Ssapre.event_versions p.Ssapre.p_a) (node, idx));
    Alcotest.(check bool) "check planned" true
      (List.exists
         (fun pl ->
           List.exists (fun (n, i, _, _, _) -> n = node && i = idx) pl.Ssapre.pl_checks)
         p.Ssapre.p_plans)
  | ks -> Alcotest.failf "expected one chi_s, got %d kills" (List.length ks)

let phis (p : Ssapre.prepared) =
  List.filter_map Fun.id (Array.to_list p.Ssapre.p_a.Ssapre.phis)

(* p is stored in both arms: its versions merge through a Phi with a
   version from each predecessor. *)
let test_ssa_phi_at_merge () =
  match phis (form ~config:Config.conservative figure5_src "p") with
  | [ phi ] ->
    Alcotest.(check int) "two operands" 2 (List.length phi.Ssapre.operands);
    List.iter
      (fun (_, o) ->
        match o with
        | Ssapre.O_ver _ -> ()
        | Ssapre.O_bot | Ssapre.O_uninsertable -> Alcotest.fail "bottom operand")
      phi.Ssapre.operands
  | l -> Alcotest.failf "expected one phi for p, got %d" (List.length l)

let test_ssa_loop_phi () =
  let src = {|
int g;
int main() {
  int i;
  for (i = 0; i < 5; i = i + 1) { g = g + 1; }
  print_int(g);
  return 0;
}
|} in
  List.iter
    (fun name ->
      let p = form ~config:Config.conservative src name in
      let a = p.Ssapre.p_a in
      let headers =
        List.map (fun l -> l.Srp_ir.Loops.header) (Srp_ir.Loops.find a.Ssapre.cfg a.Ssapre.dom)
      in
      Alcotest.(check bool) ("loop-header phi for " ^ name) true
        (List.exists (fun phi -> List.mem phi.Ssapre.phi_node headers) (phis p)))
    [ "g"; "i.1" ]

let call_kill_on_g ~config src =
  let p = form ~config src "g" in
  match
    List.filter
      (fun (node, idx, _, _) ->
        match instr_at p node idx with Srp_ir.Instr.Call _ -> true | _ -> false)
      (kills p)
  with
  | [ (_, _, spec, prob) ] -> (spec, prob)
  | ks -> Alcotest.failf "expected one call kill on g, got %d" (List.length ks)

let test_call_chi_from_modref () =
  let src = {|
int g;
void writer() { g = 5; }
int main() { g = 1; writer(); return g; }
|} in
  Alcotest.(check bool) "call is a hard chi on g" false
    (fst (call_kill_on_g ~config:Config.conservative src))

(* A callee whose static mod set includes g but which never touches it
   in training: the call's chi on g is a chi_s under the profile. *)
let test_dyn_mod_speculation () =
  let src = {|
int g; int scratch;
int* p;
int sel;
void cb() { if (sel == 9) { p = &g; } else { p = &scratch; } *p = 1; }
int main() {
  g = 3;
  cb();
  print_int(g);
  return 0;
}
|} in
  let prog = Lower.compile_source src in
  let modref = Modref.compute (Srp_alias.Manager.build prog) prog in
  Alcotest.(check bool) "static mod includes g" true
    (Srp_alias.Location.Set.exists
       (fun l -> Srp_alias.Location.to_string l = "g")
       (Modref.mod_of modref "cb"));
  Alcotest.(check (pair bool (float 0.0))) "call chi_s on g, p = 0" (true, 0.0)
    (call_kill_on_g ~config:(Config.alat ~profile:(train src)) src)

(* Well-formedness of one candidate's form: each Phi has one operand per
   CFG predecessor, each version is defined once, and every use,
   operand and crossed chi_s of a version sits where its definition
   dominates. *)
let check_form (fm : Promote.form) =
  let a = fm.Promote.choice.Promote.prepared.Ssapre.p_a in
  let what = Fmt.str "%s %a" (Srp_ir.Func.name fm.Promote.fn) Expr.pp_key fm.Promote.key in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if Hashtbl.mem by_id v.Ssapre.v_id then
        Alcotest.failf "%s: h%d defined twice" what v.Ssapre.v_id;
      Hashtbl.replace by_id v.Ssapre.v_id v)
    a.Ssapre.versions;
  let def_point v =
    match v.Ssapre.v_def with
    | Ssapre.VD_load { node; idx; _ } | Ssapre.VD_store { node; idx; _ } -> (node, idx)
    | Ssapre.VD_phi phi -> (phi.Ssapre.phi_node, -1)
  in
  let dominates (n0, i0) (n1, i1) =
    if n0 = n1 then i0 < i1 else Dominance.dominates a.Ssapre.dom n0 n1
  in
  let check_reach v point =
    if not (dominates (def_point v) point) then
      Alcotest.failf "%s: h%d does not dominate (%d, %d)" what v.Ssapre.v_id
        (fst point) (snd point)
  in
  List.iter
    (fun v ->
      List.iter (fun (node, idx, _) -> check_reach v (node, idx)) v.Ssapre.v_uses;
      List.iter (fun (node, idx, _, _, _) -> check_reach v (node, idx)) v.Ssapre.v_spec_kills)
    a.Ssapre.versions;
  Array.iteri
    (fun node -> function
      | None -> ()
      | Some phi ->
        (match Hashtbl.find_opt by_id phi.Ssapre.phi_ver with
        | Some { Ssapre.v_def = Ssapre.VD_phi p; _ } when p == phi -> ()
        | _ -> Alcotest.failf "%s: phi at node %d has no version of its own" what node);
        let preds = List.sort compare (Cfg.preds a.Ssapre.cfg node) in
        Alcotest.(check (list int))
          (what ^ ": one phi operand per predecessor")
          preds
          (List.sort compare (List.map fst phi.Ssapre.operands));
        List.iter
          (fun (pred, o) ->
            match o with
            | Ssapre.O_ver { ver; _ } -> (
              match Hashtbl.find_opt by_id ver with
              | Some v -> check_reach v (pred, max_int)
              | None -> Alcotest.failf "%s: phi operand h%d is undefined" what ver)
            | Ssapre.O_bot | Ssapre.O_uninsertable -> ())
          phi.Ssapre.operands)
    a.Ssapre.phis

let test_ssa_verify_all_kernels () =
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let module P = Srp_driver.Pipeline in
      List.iter
        (fun (level, profile) ->
          match P.config_of_level level profile with
          | Some config ->
            let forms =
              Promote.round1_forms config (Lower.compile_source w.Srp_driver.Workload.source)
            in
            if forms = [] then Alcotest.failf "%s: no candidates" w.Srp_driver.Workload.name;
            List.iter check_form forms
          | None -> ())
        [ (P.Alat, Some (P.train_profile w)); (P.Alat_heuristic, None) ])
    (Srp_workloads.Registry.all ())

(* The profiled alat config of kernel [w], and [w]'s program with its
   train input applied, as the promote stage sees them. *)
let alat_kernel (w : Srp_driver.Workload.t) =
  let module P = Srp_driver.Pipeline in
  let config = Option.get (P.config_of_level P.Alat (Some (P.train_profile w))) in
  let prog = Lower.compile_source w.Srp_driver.Workload.source in
  Srp_driver.Workload.apply_input prog w.Srp_driver.Workload.train;
  (config, prog)

(* `srp ssa` prints each candidate's committed scope beside that scope's
   own ledger: every printed saved and bill is what [Ssapre.assess] gives
   on the printed scope. *)
let check_printed_ledgers what config prog =
  let contexts_of = Promote.contexts config prog in
  List.iter
    (fun (fm : Promote.form) ->
      let cm_ctx, _ = contexts_of fm.Promote.fn in
      let a, _ =
        Ssapre.assess cm_ctx fm.Promote.choice.Promote.scope fm.Promote.fn fm.Promote.key
      in
      (* the first line names the function, the second the candidate *)
      let header =
        List.nth (String.split_on_char '\n' (Fmt.str "%a" Promote.pp_forms [ fm ])) 1
      in
      let expected = Fmt.str "saved %d, bill %d" a.Ssapre.as_saved a.Ssapre.as_bill in
      if not (String.ends_with ~suffix:expected header) then
        Alcotest.failf "%s: %S prints another ledger than its scope's (%s)" what header
          expected)
    (Promote.round1_forms config prog)

(* On the 10 kernels at alat the gate's ledger and the committed scope's
   agree, so a synthesized case pins the difference.  g is loaded, a
   store through p (never g in training) runs, g is loaded, a store
   through q (always g) runs, and g is loaded.  The threshold scope
   crosses both stores (saved 2 x lat_l1, bill ceil(2 x check_issue_cost
   + lat_l1)); the binary scope crosses only the first (saved lat_l1,
   bill ceil(check_issue_cost)).  Both net lat_l1 - 1 = 1, so the tie
   commits the binary scope, and `srp ssa` must print its ledger. *)
let test_printed_ledger_is_the_scopes () =
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let config, prog = alat_kernel w in
      check_printed_ledgers w.Srp_driver.Workload.name config prog)
    (Srp_workloads.Registry.all ());
  let src =
    "int g; int h; int *p; int *q;
     int main() { int x; p = &g; p = &h; q = &h; q = &g;
    \  x = g; *p = 1; x = x + g; *q = 1; x = x + g; print_int(x); return 0; }"
  in
  let config = Config.alat ~profile:(train src) in
  let prog = Lower.compile_source src in
  check_printed_ledgers "synthesized" config prog;
  let gate_and_ledger =
    let f = Srp_ir.Program.find_func prog "main" in
    let cm_ctx, collect = Promote.contexts config prog f in
    List.filter_map
      (fun (k : Expr.key) ->
        match k.Expr.base with
        | Srp_ir.Ops.Sym s when Srp_ir.Symbol.name s = "g" ->
          let c = Promote.choose_scope cm_ctx collect f k in
          let pair (a : Ssapre.assessment) = (a.Ssapre.as_saved, a.Ssapre.as_bill) in
          Some (c.Promote.scope.Expr.prob_gate, pair c.Promote.gate, pair c.Promote.ledger)
        | _ -> None)
      (Promote.candidates f)
  in
  let lat = Srp_ir.Machine_model.lat_l1 in
  let cost = Srp_ir.Machine_model.check_issue_cost in
  let ceil x = int_of_float (Float.ceil x) in
  Alcotest.(check (list (triple (option (float 0.0)) (pair int int) (pair int int))))
    "g: binary scope committed, gate read at the threshold"
    [ ( Some 0.0,
        (2 * lat, ceil ((2.0 *. cost) +. float_of_int lat)),
        (lat, ceil cost) ) ]
    gate_and_ledger

(* [Promote.run] read one commit at a time, the test-local reference
   for its one batch per function: every round, each candidate of each
   function, in [Promote.candidates] order, is chosen afresh on the
   function as the previous commits left it and committed alone.  Under
   the pressure gate the accepted set is the gate's, which ranks every
   candidate before anything commits; otherwise each fresh choice's own
   verdict decides.  The rounds end as [Promote.run]'s do. *)
let promote_sequentially ?pressure (config : Config.t) prog =
  let funcs () = Srp_ir.Program.funcs prog in
  let budget_of = Promote.budgets ?pressure config prog in
  let stats = Ssapre.empty_stats () in
  let rec round n =
    let contexts_of = Promote.contexts config prog in
    let before = stats.Ssapre.exprs_promoted in
    List.iter
      (fun f ->
        let keys = Promote.candidates f in
        if keys <> [] then begin
          let cm_ctx, collect = contexts_of f in
          let gated =
            Option.map
              (fun budget -> Promote.select ~budget cm_ctx collect f keys)
              (budget_of f)
          in
          List.iter
            (fun key ->
              let c = Promote.choose_scope cm_ctx collect f key in
              let accepted =
                match gated with
                | None -> Promote.accepts c.Promote.gate
                | Some gated -> List.exists (fun (k, _) -> Expr.equal_key k key) gated
              in
              if accepted then Ssapre.commit cm_ctx f stats [ (key, c.Promote.prepared) ])
            keys
        end)
      (funcs ());
    List.iter Srp_core.Copy_prop.run (funcs ());
    List.iter Srp_core.Copy_prop.run_local (funcs ());
    if stats.Ssapre.exprs_promoted > before && n < config.Config.max_rounds then
      round (n + 1)
  in
  round 1;
  List.iter
    (fun f ->
      Srp_core.Check_cleanup.run f;
      f.Srp_ir.Func.ssa_temps <- false)
    (funcs ());
  stats

(* [Promote.run] on a copy of [prog], with the pipeline's pressure
   estimate, promotes what [promote_sequentially] does: the same IR text
   and the same statistics.  Returns the promoted copy. *)
let check_batch_is_sequential what config prog =
  let promote promote_fn =
    let p = Srp_ir.Program.clone prog in
    let stats = promote_fn ~pressure:(Srp_driver.Pipeline.pressure_fn p) config p in
    (p, stats)
  in
  let batch, batch_stats =
    promote (fun ~pressure config p -> (Promote.run ~config ~pressure p).Promote.stats)
  in
  let seq, seq_stats =
    promote (fun ~pressure config p -> promote_sequentially ~pressure config p)
  in
  let lines p = String.split_on_char '\n' (Fmt.str "%a" Srp_ir.Program.pp p) in
  let rec first_difference n = function
    | l :: ls, m :: ms when l = m -> first_difference (n + 1) (ls, ms)
    | [], [] -> ()
    | ls, ms ->
      let hd = function l :: _ -> l | [] -> "(end)" in
      Alcotest.failf "%s: promoted IR line %d: %S one at a time, %S in a batch" what n
        (hd ls) (hd ms)
  in
  first_difference 1 (lines seq, lines batch);
  if seq_stats <> batch_stats then Alcotest.failf "%s: statistics differ" what;
  batch

(* One batch per function is committing the accepted candidates one at
   a time: on every kernel at the three promoting levels, with and
   without the pressure gate. *)
let test_batch_is_sequential () =
  let module P = Srp_driver.Pipeline in
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let profiled, prog = alat_kernel w in
      List.iter
        (fun (level, config) ->
          List.iter
            (fun ablations ->
              let config = List.fold_left (Fun.flip P.apply_ablation) config ablations in
              ignore
                (check_batch_is_sequential
                   (Fmt.str "%s at %s [%s]" w.Srp_driver.Workload.name level
                      (String.concat " " (List.map P.ablation_name ablations)))
                   config prog))
            [ []; [ P.No_pressure ] ])
        [ ("alat", profiled); ("baseline", Config.baseline);
          ("alat-heuristic", Config.alat_heuristic) ])
    (Srp_workloads.Registry.all ())

(* Two fields behind one cascade pointer: both data cells are promoted
   across the pointer's check, so the one chk.a recovers the pointer and
   then reloads both, in commit order.  Trained with sel = 0 (pp never
   repoints p); run with sel = 5, every recovery fires. *)
let two_field_cascade_src = {|
int a[2]; int b[2];
int* p;
int** pp;
int* r;
int sel;
int checksum;
int main() {
  int i;
  p = &a[0];
  a[0] = 100; a[1] = 7; b[0] = 3; b[1] = 4;
  if (sel == 5) { pp = &p; } else { pp = &r; }
  for (i = 0; i < 40; i = i + 1) {
    checksum = checksum + p[0] + p[1];
    *pp = &b[0];
    checksum = checksum + p[0] * 3 + p[1];
  }
  print_int(checksum); print_int(p[0]); print_int(p[1]);
  return 0;
}
|}

let test_cascade_recovery_composes () =
  let config = Config.alat_cascade ~profile:(train two_field_cascade_src) in
  let prog = Lower.compile_source two_field_cascade_src in
  Srp_ir.Program.set_global_init prog "sel"
    Srp_ir.Program.(Init_ints (Payload.of_array [| 5L |]));
  let _, expected, _ = Srp_profile.Interp.run_program (Srp_ir.Program.clone prog) in
  let promoted = check_batch_is_sequential "two-field cascade" config prog in
  let recoveries = ref [] in
  List.iter
    (Srp_ir.Func.iter_instrs (fun _ ins ->
         match ins with
         | Srp_ir.Instr.Check { kind = Srp_ir.Instr.C_chk_a _; recovery; _ } ->
           recoveries :=
             List.map
               (function
                 | Srp_ir.Instr.Load { addr; _ } -> addr.Srp_ir.Ops.offset
                 | _ -> -1)
               recovery
             :: !recoveries
         | _ -> ()))
    (Srp_ir.Program.funcs promoted);
  Alcotest.(check (list (list int))) "one chk.a reloads p[0], then p[1]" [ [ 0; 8 ] ]
    !recoveries;
  let _, got, c =
    Srp_machine.Machine.run_program (Srp_target.Codegen.gen_program promoted)
  in
  Alcotest.(check string) "recovered output" expected got;
  Alcotest.(check bool) "the recovery ran" true
    (c.Srp_machine.Counters.check_failures > 0)

(* `srp ssa` on the Figure 5 source: both loads of a print one version,
   and the store through p prints as a chi_s with p = 0 that keeps it
   and plans a check.  Skipped outside the dune sandbox, like the other
   CLI tests. *)
let test_cli_ssa () =
  let bin = Filename.concat (Filename.concat ".." "bin") "srp.exe" in
  if Sys.file_exists bin then begin
    let src = Filename.temp_file "srp_ssa_cli" ".mc" in
    let out = Filename.temp_file "srp_ssa_cli" ".txt" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove src;
        Sys.remove out)
    @@ fun () ->
    let oc = open_out src in
    output_string oc figure5_src;
    close_out oc;
    let rc =
      Sys.command
        (Fmt.str "%s ssa %s >%s" (Filename.quote bin) (Filename.quote src)
           (Filename.quote out))
    in
    Alcotest.(check int) "exit code" 0 rc;
    let ic = open_in_bin out in
    let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
    close_in ic;
    (* candidate a's section: from its header to the next candidate *)
    let rec section = function
      | [] -> []
      | l :: rest when String.starts_with ~prefix:"  [a].i64:" l ->
        let rec take = function
          | l :: rest when not (String.starts_with ~prefix:"  [" l) -> l :: take rest
          | _ -> []
        in
        take rest
      | _ :: rest -> section rest
    in
    let sec = section lines in
    let contains sub l =
      let n = String.length sub in
      let rec go i = i + n <= String.length l && (String.sub l i n = sub || go (i + 1)) in
      go 0
    in
    (* the note at the end of an event line, without its brackets *)
    let note l =
      let i = String.rindex l '[' in
      String.sub l (i + 1) (String.length l - i - 2)
    in
    match List.filter (contains "load.i64 [a]") sec with
    | [ l1; l2 ] -> (
      Alcotest.(check string) "both loads of a share a version" (note l1) (note l2);
      let h = String.sub (note l1) 4 (String.length (note l1) - 4) in
      match List.filter (contains "store.i64 7,") sec with
      | [ st ] ->
        Alcotest.(check string) "the store through p"
          (Fmt.str "chi_s p=0, keeps %s, check" h)
          (note st)
      | l -> Alcotest.failf "expected one store through p, got %d" (List.length l))
    | l -> Alcotest.failf "expected two loads of a in its section, got %d" (List.length l)
  end

let suite =
  [ Alcotest.test_case "chi on both may-targets" `Quick test_chi_on_both_targets;
    Alcotest.test_case "chi_s from the profile (Figure 5)" `Quick test_chi_speculative_with_profile;
    Alcotest.test_case "chi renumbers versions" `Quick test_ssa_versions;
    Alcotest.test_case "speculative rename shares a version (Figure 6)" `Quick
      test_spec_rename_shares_version;
    Alcotest.test_case "phi at merges" `Quick test_ssa_phi_at_merge;
    Alcotest.test_case "loop phis" `Quick test_ssa_loop_phi;
    Alcotest.test_case "call chi from mod/ref" `Quick test_call_chi_from_modref;
    Alcotest.test_case "dynamic-mod call speculation" `Quick test_dyn_mod_speculation;
    Alcotest.test_case "ssa verifies on all kernels" `Slow test_ssa_verify_all_kernels;
    Alcotest.test_case "srp ssa prints the Figure 6 form" `Quick test_cli_ssa;
    Alcotest.test_case "printed ledger is the committed scope's" `Slow
      test_printed_ledger_is_the_scopes;
    Alcotest.test_case "batch commit equals one commit at a time" `Slow
      test_batch_is_sequential;
    Alcotest.test_case "cascade recovery composes across candidates" `Quick
      test_cascade_recovery_composes ]
