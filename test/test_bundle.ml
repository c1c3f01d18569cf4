(* Tests for the IA-64 bundling pass and bundle-wise fetch.

   Three layers:
   - QCheck properties over random (not necessarily executable) instruction
     blocks: the bundler is a pure repacking — every input instruction
     appears exactly once and in order; templates are legal for what each
     slot holds; stop bits only appear on stop-capable encodings; no
     RAW/WAW hazard survives inside a stop-delimited group (checked by an
     independent re-implementation of the group rule); every control
     transfer lands on a slot-0 boundary.
   - A bundle-on/off differential over all built-in kernels: architectural
     behaviour is bit-identical, only the cycle family of counters moves,
     and bundling never makes code faster.
   - A counter-attribution check: per-site split_stalls sum to the global
     counter. *)

module Insn = Srp_target.Insn
module Bundle = Srp_target.Bundle
module Regalloc = Srp_target.Regalloc
module Codegen = Srp_target.Codegen
module C = Srp_machine.Counters
module SH = Srp_obs.Site_hist
open Srp_driver

(* --- random instruction blocks ---

   Richer than the regalloc generator: includes compares feeding branches
   (the group-rule exception), advanced loads, checks with recovery
   targets, invala.e and calls, so every syllable class and group break
   shows up. *)

let pt_niregs = 7
let pt_nfregs = 4

let gen_insn len =
  let open QCheck.Gen in
  let ireg = int_range 1 (pt_niregs - 1) in
  let freg = int_range 0 (pt_nfregs - 1) in
  let lbl = int_range 0 (len - 1) in
  let isrc =
    oneof
      [ map (fun r -> Insn.SReg r) ireg;
        map (fun i -> Insn.SImm (Int64.of_int i)) (int_range (-8) 8) ]
  in
  let fsrc =
    oneof
      [ map (fun f -> Insn.SFrg f) freg;
        map (fun x -> Insn.SFim (float_of_int x)) (int_range 0 5) ]
  in
  frequency
    [ (2, map2 (fun d i -> Insn.Movl { dst = d; imm = Int64.of_int i }) ireg (int_range 0 99));
      (3, map3 (fun d a b -> Insn.Alu { op = Insn.Aadd; dst = d; a; b }) ireg isrc isrc);
      (2, map3 (fun d a b -> Insn.Alu { op = Insn.Acmp_lt; dst = d; a; b }) ireg isrc isrc);
      (2, map3 (fun d a b -> Insn.Falu { op = Insn.FAadd; dst = d; a; b }) freg fsrc fsrc);
      (1, map3 (fun d a b -> Insn.Fcmp { op = Insn.FClt; dst = d; a; b }) ireg fsrc fsrc);
      (2, map2 (fun d s -> Insn.Mov { dst = Insn.DInt d; src = s }) ireg isrc);
      (1, map2 (fun d s -> Insn.Mov { dst = Insn.DFlt d; src = s }) freg fsrc);
      (3, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt d; base = b; site = 0 })
            ireg ireg);
      (1, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld_a; dst = Insn.DInt d; base = b; site = 1 })
            ireg ireg);
      (2, map2 (fun s b -> Insn.St { src = s; base = b; site = 0 }) isrc ireg);
      (1, map2 (fun r t -> Insn.Chk_a { tag = Insn.DInt r; recovery = t; site = 2 }) ireg lbl);
      (1, map (fun r -> Insn.Invala_e { tag = Insn.DInt r }) ireg);
      (2, map3
            (fun c t1 t2 -> Insn.Brc { cond = c; ifso = t1; ifnot = t2; site = 0 })
            ireg lbl lbl);
      (1, map (fun t -> Insn.Br { target = t }) lbl);
      (1, map2
            (fun a r -> Insn.Call { callee = "h"; args = [ a ]; ret = Some (Insn.DInt r) })
            isrc ireg);
      (1, return Insn.Nop) ]

let gen_code =
  let open QCheck.Gen in
  int_range 1 30 >>= fun body ->
  list_repeat body (gen_insn (body + 1)) >>= fun instrs ->
  return (Array.of_list (instrs @ [ Insn.Ret { value = None } ]))

let print_code code =
  String.concat "\n"
    (Array.to_list
       (Array.mapi (fun i ins -> Fmt.str ".%d %a" i Insn.pp_insn ins) code))

let arb_code = QCheck.make ~print:print_code gen_code

(* targets are remapped by the pass; compare everything else *)
let strip_targets = function
  | Insn.Br _ -> Insn.Br { target = -1 }
  | Insn.Brc { cond; site; _ } -> Insn.Brc { cond; ifso = -1; ifnot = -1; site }
  | Insn.Chk_a { tag; site; _ } -> Insn.Chk_a { tag; recovery = -1; site }
  | ins -> ins

let non_nops code =
  Array.to_list code
  |> List.filter_map (fun i -> if i = Insn.Nop then None else Some (strip_targets i))

let prop_stream_preserved code =
  let out, _ = Bundle.run code in
  non_nops out = non_nops code

let prop_shape code =
  let out, bs = Bundle.run code in
  let n = Array.length out in
  n = 3 * Array.length bs
  && Array.for_all
       (fun b ->
         (not b.Insn.stop)
         || (match b.Insn.tmpl with Insn.MII | Insn.MMI -> true | _ -> false))
       bs
  && Array.for_all
       (fun pc ->
         match Bundle.syllable_of out.(pc) with
         | None -> true (* nop: wildcard *)
         | Some c -> c = (Bundle.slots bs.(pc / 3).Insn.tmpl).(pc mod 3))
       (Array.init n (fun i -> i))
  && Array.for_all
       (fun ins ->
         let aligned t = t >= 0 && t < n && t mod 3 = 0 in
         match ins with
         | Insn.Br { target } -> aligned target
         | Insn.Brc { ifso; ifnot; _ } -> aligned ifso && aligned ifnot
         | Insn.Chk_a { recovery; _ } -> aligned recovery
         | _ -> true)
       out

(* Independent re-statement of the group rule (the machine's contract): a
   group ends at a stop bit and after br/call/ret; within one group no
   syllable reads or redefines a register defined earlier in the group,
   except a br.cond consuming a predicate its own group computed. *)
let prop_groups_hazard_free code =
  let out, bs = Bundle.run code in
  let gi : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let gf : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let clear () =
    Hashtbl.reset gi;
    Hashtbl.reset gf
  in
  let is_cmp = function
    | Insn.Alu
        { op =
            ( Insn.Acmp_eq | Insn.Acmp_ne | Insn.Acmp_lt | Insn.Acmp_le
            | Insn.Acmp_gt | Insn.Acmp_ge );
          _ }
    | Insn.Fcmp _ ->
      true
    | _ -> false
  in
  let ok = ref true in
  Array.iteri
    (fun pc ins ->
      let iu, fu, idf, fdf = Regalloc.uses_defs ins in
      let brc_cond =
        match ins with Insn.Brc { cond; _ } -> Some cond | _ -> None
      in
      let raw r =
        match Hashtbl.find_opt gi r with
        | None -> false
        | Some by_cmp -> not (by_cmp && brc_cond = Some r)
      in
      if
        List.exists raw iu
        || List.exists (Hashtbl.mem gf) fu
        || List.exists (Hashtbl.mem gi) idf
        || List.exists (Hashtbl.mem gf) fdf
      then ok := false;
      (match ins with
      | Insn.Br _ | Insn.Call _ | Insn.Ret _ -> clear ()
      | _ ->
        let cmp = is_cmp ins in
        List.iter (fun r -> Hashtbl.replace gi r cmp) idf;
        List.iter (fun r -> Hashtbl.replace gf r false) fdf);
      if pc mod 3 = 2 && bs.(pc / 3).Insn.stop then clear ())
    out;
  !ok

let bundle_qchecks =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:500 ~name:"every insn exactly once, in order"
        arb_code prop_stream_preserved;
      QCheck.Test.make ~count:500
        ~name:"templates legal, stops encodable, targets aligned" arb_code
        prop_shape;
      QCheck.Test.make ~count:500 ~name:"no RAW/WAW inside a group" arb_code
        prop_groups_hazard_free ]

(* --- codegen wiring --- *)

let test_codegen_bundle_invariant () =
  let src = {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|} in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Codegen.gen_program prog in
  let f = Hashtbl.find tgt.Insn.funcs "main" in
  (match f.Insn.bundles with
  | None -> Alcotest.fail "default compile should carry bundles"
  | Some bs ->
    Alcotest.(check int) "code is 3 x bundles" (3 * Array.length bs)
      (Array.length f.Insn.code));
  let flat =
    Codegen.gen_program ~bundle:false (Srp_frontend.Lower.compile_source src)
  in
  let ff = Hashtbl.find flat.Insn.funcs "main" in
  Alcotest.(check bool) "no-bundle yields a flat stream" true
    (ff.Insn.bundles = None)

(* --- bundle-on/off differential over the built-in kernels --- *)

(* counters allowed to move when bundling turns on: the cycle family *)
let cycle_family =
  [ "cycles"; "instrs_retired"; "data_access_cycles"; "bundles_retired";
    "nops_emitted"; "split_stalls" ]

let run_small (w : Workload.t) ~bundle level =
  let small = { w with Workload.ref_ = w.Workload.train } in
  let ablations = if bundle then [] else [ Pipeline.No_bundle ] in
  Pipeline.profile_compile_run ~ablations small level

let test_kernel_bundle_differential name () =
  let w = Srp_workloads.Registry.find name in
  List.iter
    (fun level ->
      let on = run_small w ~bundle:true level in
      let off = run_small w ~bundle:false level in
      Alcotest.(check string)
        (Fmt.str "%s@%s output" name (Pipeline.level_name level))
        off.Pipeline.output on.Pipeline.output;
      Alcotest.(check int64)
        (Fmt.str "%s@%s exit code" name (Pipeline.level_name level))
        off.Pipeline.exit_code on.Pipeline.exit_code;
      List.iter2
        (fun (k, von) (k', voff) ->
          assert (k = k');
          if not (List.mem k cycle_family) then
            Alcotest.(check int)
              (Fmt.str "%s@%s counter %s" name (Pipeline.level_name level) k)
              voff von)
        (C.to_fields on.Pipeline.counters)
        (C.to_fields off.Pipeline.counters);
      Alcotest.(check bool)
        (Fmt.str "%s@%s bundled cycles >= flat" name (Pipeline.level_name level))
        true
        (on.Pipeline.counters.C.cycles >= off.Pipeline.counters.C.cycles);
      Alcotest.(check int)
        (Fmt.str "%s@%s flat run retires no bundles" name
           (Pipeline.level_name level))
        0 off.Pipeline.counters.C.bundles_retired;
      Alcotest.(check bool)
        (Fmt.str "%s@%s bundled run retires bundles" name
           (Pipeline.level_name level))
        true
        (on.Pipeline.counters.C.bundles_retired > 0))
    [ Pipeline.Baseline; Pipeline.Alat ]

let test_alat_still_wins_bundled () =
  (* speculation must keep paying off under bundle-wise fetch *)
  List.iter
    (fun name ->
      let w = Srp_workloads.Registry.find name in
      let base = run_small w ~bundle:true Pipeline.Baseline in
      let spec = run_small w ~bundle:true Pipeline.Alat in
      Alcotest.(check bool)
        (Fmt.str "%s: alat cycles not regressed vs baseline (bundled)" name)
        true
        (float_of_int spec.Pipeline.counters.C.cycles
        <= 1.02 *. float_of_int base.Pipeline.counters.C.cycles))
    (Srp_workloads.Registry.names ())

(* --- split_stalls attribution --- *)

let test_split_attribution () =
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
  n = 400;
  for (i = 0; i < n; i = i + 1) {
    *q = i;
    r = r + p + 1;
  }
  print_int(r);
  return 0;
}
|} in
  let w =
    { Workload.name = "split-attrib"; description = "attribution probe";
      source = src; train = Workload.input []; ref_ = Workload.input [] }
  in
  let r = Pipeline.profile_compile_run w Pipeline.Alat in
  let c = r.Pipeline.counters in
  let h = r.Pipeline.site_stats in
  Alcotest.(check bool) "splits actually happen" true (c.C.split_stalls > 0);
  let by_site =
    List.fold_left
      (fun acc s -> acc + SH.count h ~site:s SH.Split_stalls)
      0 (SH.sites h)
  in
  Alcotest.(check int) "per-site split_stalls sum to the global counter"
    c.C.split_stalls by_site

let kernel_diff_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " bundle on/off differential") `Slow
        (test_kernel_bundle_differential name))
    (Srp_workloads.Registry.names ())

let suite =
  bundle_qchecks
  @ [ Alcotest.test_case "codegen carries bundles" `Quick
        test_codegen_bundle_invariant;
      Alcotest.test_case "split_stalls attribution sums" `Quick
        test_split_attribution;
      Alcotest.test_case "alat still wins under bundling" `Slow
        test_alat_still_wins_bundled ]
  @ kernel_diff_tests
