(* Unit tests for the in-between passes (copy propagation, dead-check
   cleanup) and for the report/input-generation utilities. *)

open Srp_ir
module Config = Srp_core.Config

(* Build a one-block function directly. *)
let mk_block_func instrs term =
  let temp_gen = Temp.Gen.create () in
  let label_gen = Label.Gen.create () in
  let f = Func.create ~name:"f" ~formals:[] ~ret_mty:None ~temp_gen ~label_gen in
  let blk = Func.find_block f (Func.entry f) in
  List.iter (Block.append blk) instrs;
  blk.Block.term <- term;
  (f, temp_gen)

let count_instrs f pred =
  let n = ref 0 in
  Func.iter_instrs (fun _ i -> if pred i then incr n) f;
  !n

let test_copy_prop_chain () =
  (* t0 = 5; t1 = t0; t2 = t1; ret t2  ==>  ret 5 *)
  let tg = Temp.Gen.create () in
  let t0 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t1 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t2 = Temp.Gen.fresh tg Mem_ty.I64 in
  let f, _ =
    mk_block_func
      [ Instr.Mov { dst = t0; src = Ops.Int 5L };
        Instr.Mov { dst = t1; src = Ops.Temp t0 };
        Instr.Mov { dst = t2; src = Ops.Temp t1 } ]
      (Instr.Ret (Some (Ops.Temp t2)))
  in
  Srp_core.Copy_prop.run f;
  let blk = List.hd (Func.blocks f) in
  (match blk.Block.term with
  | Instr.Ret (Some (Ops.Int 5L)) -> ()
  | t -> Alcotest.failf "expected ret 5, got %a" Instr.pp_terminator t)

let test_copy_prop_addr_folding () =
  (* t0 = &g; load [t0] becomes a direct load of g *)
  let sym_gen = Symbol.Gen.create () in
  let g =
    Symbol.Gen.fresh sym_gen ~name:"g" ~storage:Symbol.Global ~mty:Mem_ty.I64
      ~size_bytes:8 ~is_scalar:true
  in
  let tg = Temp.Gen.create () in
  let t0 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t1 = Temp.Gen.fresh tg Mem_ty.I64 in
  let f, _ =
    mk_block_func
      [ Instr.Mov { dst = t0; src = Ops.Sym_addr g };
        Instr.Load
          { dst = t1; addr = Ops.addr_of_temp t0; mty = Mem_ty.I64; site = 0;
            promo = Instr.P_none } ]
      (Instr.Ret (Some (Ops.Temp t1)))
  in
  Srp_core.Copy_prop.run f;
  let direct =
    count_instrs f (function
      | Instr.Load { addr = { Ops.base = Ops.Sym s; _ }; _ } -> Symbol.equal s g
      | _ -> false)
  in
  Alcotest.(check int) "load folded to direct" 1 direct

let test_copy_prop_multi_def_blocked () =
  (* t0 has two defs: its copies must NOT propagate across the redef *)
  let tg = Temp.Gen.create () in
  let t0 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t1 = Temp.Gen.fresh tg Mem_ty.I64 in
  let f, _ =
    mk_block_func
      [ Instr.Mov { dst = t0; src = Ops.Int 1L };
        Instr.Mov { dst = t1; src = Ops.Temp t0 };
        Instr.Mov { dst = t0; src = Ops.Int 2L } ]
      (Instr.Ret (Some (Ops.Temp t1)))
  in
  f.Func.ssa_temps <- false;
  Srp_core.Copy_prop.run f;
  (* global copy-prop must not turn [ret t1] into [ret t0]: t0 is multi-def.
     The local pass may legally fold t1 -> 1 (position-scoped). *)
  (match (List.hd (Func.blocks f)).Block.term with
  | Instr.Ret (Some (Ops.Temp t)) ->
    Alcotest.(check bool) "not rebound to the multi-def temp" false (Temp.equal t t0)
  | Instr.Ret (Some (Ops.Int 1L)) -> ()
  | t -> Alcotest.failf "unexpected terminator %a" Instr.pp_terminator t)

let test_local_copy_prop_scoped () =
  (* within a block, an alias dies when its source is redefined *)
  let tg = Temp.Gen.create () in
  let t0 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t1 = Temp.Gen.fresh tg Mem_ty.I64 in
  let t2 = Temp.Gen.fresh tg Mem_ty.I64 in
  let f, _ =
    mk_block_func
      [ Instr.Mov { dst = t1; src = Ops.Temp t0 }; (* alias t1 -> t0 *)
        Instr.Mov { dst = t0; src = Ops.Int 9L }; (* t0 redefined: alias dead *)
        Instr.Bin { dst = t2; op = Ops.Add; a = Ops.Temp t1; b = Ops.Int 0L } ]
      (Instr.Ret (Some (Ops.Temp t2)))
  in
  f.Func.ssa_temps <- false;
  Srp_core.Copy_prop.run_local f;
  let uses_t0_after_redef =
    count_instrs f (function
      | Instr.Bin { a = Ops.Temp t; _ } -> Temp.equal t t0
      | _ -> false)
  in
  Alcotest.(check int) "stale alias not applied" 0 uses_t0_after_redef

let test_cleanup_removes_dead_mov () =
  let tg = Temp.Gen.create () in
  let t0 = Temp.Gen.fresh tg Mem_ty.I64 in
  let f, _ =
    mk_block_func [ Instr.Mov { dst = t0; src = Ops.Int 5L } ] (Instr.Ret None)
  in
  f.Func.ssa_temps <- false;
  Srp_core.Check_cleanup.run f;
  Alcotest.(check int) "dead mov removed" 0
    (count_instrs f (function Instr.Mov _ -> true | _ -> false))

let test_cleanup_keeps_stores_and_calls () =
  let sym_gen = Symbol.Gen.create () in
  let g =
    Symbol.Gen.fresh sym_gen ~name:"g" ~storage:Symbol.Global ~mty:Mem_ty.I64
      ~size_bytes:8 ~is_scalar:true
  in
  let f, _ =
    mk_block_func
      [ Instr.Store { src = Ops.Int 1L; addr = Ops.addr_of_sym g; mty = Mem_ty.I64; site = 0 };
        Instr.Call { dst = None; callee = "print_int"; args = [ Ops.Int 1L ]; site = 1 } ]
      (Instr.Ret None)
  in
  f.Func.ssa_temps <- false;
  Srp_core.Check_cleanup.run f;
  Alcotest.(check int) "store kept" 1
    (count_instrs f (function Instr.Store _ -> true | _ -> false));
  Alcotest.(check int) "call kept" 1
    (count_instrs f (function Instr.Call _ -> true | _ -> false))

let test_cleanup_check_chain () =
  (* a chain of checks with no final reader dies entirely; with a reader,
     the last check (and the temp's liveness) keeps what is needed *)
  let tg = Temp.Gen.create () in
  let te = Temp.Gen.fresh tg Mem_ty.I64 in
  let sym_gen = Symbol.Gen.create () in
  let g =
    Symbol.Gen.fresh sym_gen ~name:"g" ~storage:Symbol.Global ~mty:Mem_ty.I64
      ~size_bytes:8 ~is_scalar:true
  in
  let chk () =
    Instr.Check
      { dst = te; addr = Ops.addr_of_sym g; mty = Mem_ty.I64; site = 9;
        kind = Instr.C_ld_c { clear = false }; recovery = [] }
  in
  let f, _ = mk_block_func [ chk (); chk (); chk () ] (Instr.Ret None) in
  f.Func.ssa_temps <- false;
  Srp_core.Check_cleanup.run f;
  Alcotest.(check int) "unread checks all die" 0
    (count_instrs f (function Instr.Check _ -> true | _ -> false));
  let f2, _ = mk_block_func [ chk (); chk () ] (Instr.Ret (Some (Ops.Temp te))) in
  f2.Func.ssa_temps <- false;
  Srp_core.Check_cleanup.run f2;
  Alcotest.(check bool) "a consumed check survives" true
    (count_instrs f2 (function Instr.Check _ -> true | _ -> false) >= 1)

let test_cleanup_keeps_cascade_recovery () =
  (* The checked pointer tp is dead after its chk.a, but the recovery
     reloads td = *tp, which the return reads: deleting the check would
     leave td stale after a miss.  A plain ld.c with a dead dst still
     goes. *)
  let tg = Temp.Gen.create () in
  let tp = Temp.Gen.fresh tg Mem_ty.I64 in
  let td = Temp.Gen.fresh tg Mem_ty.I64 in
  let tq = Temp.Gen.fresh tg Mem_ty.I64 in
  let sym_gen = Symbol.Gen.create () in
  let p =
    Symbol.Gen.fresh sym_gen ~name:"p" ~storage:Symbol.Global ~mty:Mem_ty.I64
      ~size_bytes:8 ~is_scalar:true
  in
  let check dst kind recovery =
    Instr.Check
      { dst; addr = Ops.addr_of_sym p; mty = Mem_ty.I64; site = 9; kind; recovery }
  in
  let f, _ =
    mk_block_func
      [ check tq (Instr.C_ld_c { clear = false }) [];
        check tp (Instr.C_chk_a { clear = false })
          [ Instr.Load
              { dst = td; addr = Ops.addr_of_temp tp; mty = Mem_ty.I64;
                site = 10; promo = Instr.P_ld_a } ] ]
      (Instr.Ret (Some (Ops.Temp td)))
  in
  f.Func.ssa_temps <- false;
  Srp_core.Check_cleanup.run f;
  Alcotest.(check int) "chk.a kept for its recovery" 1
    (count_instrs f (function
      | Instr.Check { kind = Instr.C_chk_a _; _ } -> true
      | _ -> false));
  Alcotest.(check int) "dead ld.c removed" 0
    (count_instrs f (function
      | Instr.Check { kind = Instr.C_ld_c _; _ } -> true
      | _ -> false))

(* --- report derivations --- *)

let test_report_math () =
  let base = Srp_machine.Counters.create () in
  let spec = Srp_machine.Counters.create () in
  base.Srp_machine.Counters.cycles <- 1000;
  spec.Srp_machine.Counters.cycles <- 930;
  base.Srp_machine.Counters.loads_retired <- 400;
  spec.Srp_machine.Counters.loads_retired <- 300;
  base.Srp_machine.Counters.data_access_cycles <- 200;
  spec.Srp_machine.Counters.data_access_cycles <- 150;
  let r = Srp_driver.Report.figure8_row ~name:"x" ~base ~spec in
  Alcotest.(check (float 1e-9)) "cycles red" 7.0 r.Srp_driver.Report.cpu_cycles_red;
  Alcotest.(check (float 1e-9)) "loads red" 25.0 r.Srp_driver.Report.loads_red;
  spec.Srp_machine.Counters.checks_retired <- 60;
  spec.Srp_machine.Counters.check_failures <- 3;
  let r10 = Srp_driver.Report.figure10_row ~name:"x" ~spec in
  Alcotest.(check (float 1e-9)) "checks/loads" 20.0 r10.Srp_driver.Report.checks_per_load;
  Alcotest.(check (float 1e-9)) "misspec" 5.0 r10.Srp_driver.Report.misspec_ratio;
  base.Srp_machine.Counters.rse_cycles <- 100;
  spec.Srp_machine.Counters.rse_cycles <- 120;
  let r11 = Srp_driver.Report.figure11_row ~name:"x" ~base ~spec in
  Alcotest.(check (float 1e-9)) "rse increase" 20.0 r11.Srp_driver.Report.rse_increase

(* --- workload input generators --- *)

let test_input_generators () =
  (match Srp_workloads.Input_gen.ints ~seed:1 ~n:100 ~lo:(-5) ~hi:5 with
  | Program.Init_ints a ->
    Alcotest.(check int) "length" 100 (Array.length a);
    Array.iter
      (fun v ->
        if Int64.compare v (-5L) < 0 || Int64.compare v 5L > 0 then
          Alcotest.fail "int out of range")
      a
  | _ -> Alcotest.fail "expected ints");
  (match Srp_workloads.Input_gen.flags ~seed:2 ~n:1000 ~p:0.25 with
  | Program.Init_ints a ->
    let ones = Array.fold_left (fun acc v -> if v = 1L then acc + 1 else acc) 0 a in
    Alcotest.(check bool) "flag rate plausible" true (ones > 150 && ones < 350)
  | _ -> Alcotest.fail "expected flags");
  (* determinism: same seed, same data *)
  let a = Srp_workloads.Input_gen.floats ~seed:3 ~n:10 ~lo:0.0 ~hi:1.0 in
  let b = Srp_workloads.Input_gen.floats ~seed:3 ~n:10 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check bool) "deterministic" true (a = b)

let test_workload_registry () =
  Alcotest.(check int) "ten kernels" 10 (List.length (Srp_workloads.Registry.all ()));
  List.iter
    (fun name ->
      let w = Srp_workloads.Registry.find name in
      Alcotest.(check string) "find by name" name w.Srp_driver.Workload.name;
      (* every kernel's source must compile *)
      ignore (Srp_frontend.Lower.compile_source w.Srp_driver.Workload.source))
    (Srp_workloads.Registry.names ())

let suite =
  [ Alcotest.test_case "copy prop chains" `Quick test_copy_prop_chain;
    Alcotest.test_case "copy prop folds addresses" `Quick test_copy_prop_addr_folding;
    Alcotest.test_case "copy prop blocked by multi-def" `Quick test_copy_prop_multi_def_blocked;
    Alcotest.test_case "local copy prop is position-scoped" `Quick test_local_copy_prop_scoped;
    Alcotest.test_case "cleanup removes dead movs" `Quick test_cleanup_removes_dead_mov;
    Alcotest.test_case "cleanup keeps effects" `Quick test_cleanup_keeps_stores_and_calls;
    Alcotest.test_case "cleanup check chains" `Quick test_cleanup_check_chain;
    Alcotest.test_case "cleanup keeps a chk.a its recovery needs" `Quick
      test_cleanup_keeps_cascade_recovery;
    Alcotest.test_case "report derivations" `Quick test_report_math;
    Alcotest.test_case "input generators" `Quick test_input_generators;
    Alcotest.test_case "workload registry" `Quick test_workload_registry ]
