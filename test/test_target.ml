(* Tests for the backend: register allocation invariants, code generation,
   and the assembly shapes of the paper's figures. *)

open Srp_frontend
module Insn = Srp_target.Insn
module Codegen = Srp_target.Codegen
module Regalloc = Srp_target.Regalloc

let compile = Lower.compile_source

let gen src =
  let prog = compile src in
  (prog, Codegen.gen_program prog)

let gen_alat src =
  let pprog = compile src in
  let _, _, profile = Srp_profile.Interp.run_program pprog in
  let prog = compile src in
  ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) prog);
  (prog, Codegen.gen_program prog)

let func (tgt : Insn.program) name = Hashtbl.find tgt.Insn.funcs name

let count_insns f pred = Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) 0 f.Insn.code

let test_codegen_labels_resolve () =
  let _, tgt =
    gen {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) { if (i % 2) { s = s + i; } }
  return s;
}
|}
  in
  let f = func tgt "main" in
  Array.iter
    (fun ins ->
      match ins with
      | Insn.Br { target } ->
        if target < 0 || target >= Array.length f.Insn.code then
          Alcotest.fail "unresolved branch target"
      | Insn.Brc { ifso; ifnot; _ } ->
        if ifso < 0 || ifso >= Array.length f.Insn.code then Alcotest.fail "bad ifso";
        if ifnot < 0 || ifnot >= Array.length f.Insn.code then Alcotest.fail "bad ifnot"
      | _ -> ())
    f.Insn.code

let test_codegen_register_bounds () =
  let _, tgt =
    gen {|
double mix(double a, int b) { return a * b; }
int main() {
  int x = 3;
  double d = mix(1.5, x);
  print_float(d);
  return 0;
}
|}
  in
  Hashtbl.iter
    (fun _ f ->
      Array.iter
        (fun ins ->
          let check_reg r = if r < 0 || r >= f.Insn.nregs then Alcotest.fail "reg out of bounds" in
          let check_src = function
            | Insn.SReg r -> check_reg r
            | Insn.SFrg fr -> if fr < 0 || fr >= f.Insn.nfregs then Alcotest.fail "freg oob"
            | Insn.SImm _ | Insn.SFim _ -> ()
          in
          match ins with
          | Insn.Alu { dst; a; b; _ } ->
            check_reg dst;
            check_src a;
            check_src b
          | Insn.Ld { dst = Insn.DInt r; base; _ } ->
            check_reg r;
            check_reg base
          | Insn.St { src; base; _ } ->
            check_src src;
            check_reg base
          | _ -> ())
        f.Insn.code)
    tgt.Insn.funcs

let test_regalloc_alat_dedicated () =
  (* The ALAT tags entries by physical register, so between an arming load
     and its check nothing else may write the armed register.  (The
     hole-aware allocator may legitimately reuse the register *outside*
     the armed window, so the old whole-function exclusivity is gone —
     the contract is arm-to-check.)  Built with layout off so linear
     order is the emission order and the armed windows are contiguous. *)
  let src = {|
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
|} in
  let pprog = compile src in
  let _, _, profile = Srp_profile.Interp.run_program pprog in
  let prog = compile src in
  ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) prog);
  let tgt = Codegen.gen_program ~layout:false ~bundle:false prog in
  let f = func tgt "main" in
  let armed = Hashtbl.create 4 in
  let checks = ref 0 in
  Array.iter
    (fun ins ->
      (match ins with
      | Insn.Ld { kind = Insn.K_ld_a | Insn.K_ld_sa; dst = Insn.DInt r; _ } ->
        Hashtbl.replace armed r ()
      | Insn.Ld { kind = Insn.K_ld_c _; dst = Insn.DInt r; _ } ->
        incr checks;
        Hashtbl.remove armed r
      | Insn.Chk_a { tag = Insn.DInt r; _ } | Insn.Invala_e { tag = Insn.DInt r }
        ->
        incr checks;
        Hashtbl.remove armed r
      | _ -> ());
      let writes r =
        let _, _, idf, _ = Regalloc.uses_defs ins in
        List.mem r idf
      in
      match ins with
      | Insn.Ld { kind = Insn.K_ld_a | Insn.K_ld_sa | Insn.K_ld_c _; _ } ->
        () (* the speculative loads and checks own their register *)
      | _ ->
        Hashtbl.iter
          (fun r () ->
            if writes r then
              Alcotest.fail "ALAT register clobbered while armed")
          armed)
    f.Insn.code;
  Alcotest.(check bool) "at least one check" true (!checks >= 1)

let test_figure1_assembly_shape () =
  let _, tgt =
    gen_alat {|
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
  in
  let f = func tgt "main" in
  let has_ld_a = count_insns f (function Insn.Ld { kind = Insn.K_ld_a; _ } -> true | _ -> false) in
  let has_ld_c =
    count_insns f (function Insn.Ld { kind = Insn.K_ld_c _; _ } -> true | _ -> false)
  in
  Alcotest.(check bool) "ld.a present (arming)" true (has_ld_a >= 1);
  Alcotest.(check bool) "ld.c present (check)" true (has_ld_c >= 1)

let test_figure3_assembly_shape () =
  let _, tgt =
    gen_alat {|
int p; int b;
int* q;
int sel;
int n;
int main() {
  int i;
  int r = 0;
  if (sel == 7) { q = &p; } else { q = &b; }
  p = 11;
  n = 200;
  for (i = 0; i < n; i = i + 1) {
    *q = i;
    r = r + p + 1;
  }
  print_int(r);
  return 0;
}
|}
  in
  let f = func tgt "main" in
  let speculative_loads =
    count_insns f (function
      | Insn.Ld { kind = Insn.K_ld_sa | Insn.K_ld_a; _ } -> true
      | _ -> false)
  in
  let checks =
    count_insns f (function Insn.Ld { kind = Insn.K_ld_c _; _ } -> true | _ -> false)
  in
  Alcotest.(check bool) "hoisted speculative load" true (speculative_loads >= 1);
  Alcotest.(check bool) "in-loop check" true (checks >= 1)

(* --- block layout: rotation, recovery placement, semantic equivalence --- *)

module Counters = Srp_machine.Counters

let test_layout_rotated_loop_mispredicts () =
  let src = {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 1000; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|} in
  let laid = Codegen.gen_program (compile src) in
  let flat = Codegen.gen_program ~layout:false (compile src) in
  let _, out_l, cl = Srp_machine.Machine.run_program laid in
  let _, out_f, cf = Srp_machine.Machine.run_program flat in
  Alcotest.(check string) "layout preserves output" out_f out_l;
  Alcotest.(check bool) "top-tested loop mispredicts every iteration" true
    (cf.Counters.branch_mispredicts >= 1000);
  Alcotest.(check bool) "rotated loop retires ~zero steady-state mispredicts"
    true
    (cl.Counters.branch_mispredicts < 10);
  Alcotest.(check bool) "rotation wins cycles" true
    (cl.Counters.cycles < cf.Counters.cycles)

let test_layout_recovery_out_of_line () =
  (* cascade promotion (figure 4) emits chk.a recovery blocks; layout must
     keep them out of the fall-through stream: a recovery entry sits after
     its check and is never entered by falling off the previous
     instruction *)
  let src = {|
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
    *pp = &b;
    checksum = checksum + *p + 3;
  }
  print_int(checksum);
  print_int(*p);
  return 0;
}
|} in
  let pprog = compile src in
  let _, _, profile = Srp_profile.Interp.run_program pprog in
  let prog = compile src in
  ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat_cascade ~profile) prog);
  let tgt = Codegen.gen_program prog in
  let f = func tgt "main" in
  let checks = ref 0 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Insn.Chk_a { recovery; _ } ->
        incr checks;
        Alcotest.(check bool) "recovery is out of line, after the check" true
          (recovery > i);
        (* the bundler may pad with nops after the preceding terminator;
           those pads are unreachable, so skip back to the last real insn *)
        let rec before j =
          match f.Insn.code.(j) with Insn.Nop -> before (j - 1) | ins -> ins
        in
        Alcotest.(check bool) "recovery entry not reachable by fall-through"
          true
          (match before (recovery - 1) with
          | Insn.Br _ | Insn.Brc _ | Insn.Ret _ -> true
          | _ -> false)
      | _ -> ())
    f.Insn.code;
  Alcotest.(check bool) "program really has chk.a" true (!checks >= 1)

let test_layout_differential_alat () =
  (* same speculative program, layout on vs off: bit-identical behaviour *)
  let src = {|
int p; int b;
int* q;
int n;
int main() {
  int i;
  int r = 0;
  q = &b;
  p = 3;
  n = 500;
  for (i = 0; i < n; i = i + 1) {
    *q = i;
    r = r + p;
    if (i % 7 == 0) { q = &b; }
  }
  print_int(r);
  return 0;
}
|} in
  let build layout =
    let pprog = compile src in
    let _, _, profile = Srp_profile.Interp.run_program pprog in
    let prog = compile src in
    ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) prog);
    Codegen.gen_program ~layout prog
  in
  let code_l, out_l, _ = Srp_machine.Machine.run_program (build true) in
  let code_f, out_f, _ = Srp_machine.Machine.run_program (build false) in
  Alcotest.(check string) "stdout agrees" out_f out_l;
  Alcotest.(check int64) "exit code agrees" code_f code_l

let test_addr_hoisting () =
  (* a global referenced many times should be materialized once in the
     prologue, not per use *)
  let _, tgt =
    gen {|
int g;
int main() {
  g = 1; g = g + 1; g = g + 2; g = g + 3; g = g + 4;
  print_int(g);
  return 0;
}
|}
  in
  let f = func tgt "main" in
  let gaddrs = count_insns f (function Insn.Gaddr _ -> true | _ -> false) in
  Alcotest.(check bool) "address hoisted (few Gaddr)" true (gaddrs <= 2)

let test_formal_spill_prologue () =
  let _, tgt = gen {|
int f(int a, double b) { return a + b; }
int main() { return f(1, 2.5); }
|} in
  let f = func tgt "f" in
  (* prologue stores both formals to memory before anything else loads *)
  let first_loads = ref 0 and stores_before = ref 0 in
  (try
     Array.iter
       (fun ins ->
         match ins with
         | Insn.St _ -> incr stores_before
         | Insn.Ld _ -> raise Exit
         | _ -> ())
       f.Insn.code
   with Exit -> ());
  ignore !first_loads;
  Alcotest.(check bool) "formals spilled in prologue" true (!stores_before >= 2)

let test_frame_layout_disjoint () =
  let prog, tgt = gen {|
int f(int a) { int x; int y[4]; x = a; y[0] = x; return y[0]; }
int main() { return f(5); }
|} in
  ignore prog;
  let f = func tgt "f" in
  let slots = Hashtbl.fold (fun _ off acc -> off :: acc) f.Insn.slot_of_sym [] in
  let sorted = List.sort compare slots in
  let rec no_overlap = function
    | a :: (b :: _ as rest) -> a <> b && no_overlap rest
    | _ -> true
  in
  Alcotest.(check bool) "distinct slots" true (no_overlap sorted);
  Alcotest.(check bool) "frame covers slots" true
    (List.for_all (fun o -> o < f.Insn.frame_bytes) slots)

(* --- Regalloc property tests ---

   Random straight-line-plus-branches code over a small virtual register
   file, checked directly against the allocator's own range analysis:
   allocation must stay within the reported physical file sizes, and two
   virtual registers whose live ranges overlap must land on distinct
   physical registers. *)

let pt_nivregs = 7 (* vreg 0 is sp; generators draw from 1.. *)
let pt_nfvregs = 4

let gen_insn len =
  let open QCheck.Gen in
  let ireg = int_range 1 (pt_nivregs - 1) in
  let freg = int_range 0 (pt_nfvregs - 1) in
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
  oneof
    [ map2 (fun d i -> Insn.Movl { dst = d; imm = Int64.of_int i }) ireg (int_range 0 99);
      map3 (fun d a b -> Insn.Alu { op = Insn.Aadd; dst = d; a; b }) ireg isrc isrc;
      map3 (fun d a b -> Insn.Falu { op = Insn.FAadd; dst = d; a; b }) freg fsrc fsrc;
      map2 (fun d s -> Insn.Mov { dst = Insn.DInt d; src = s }) ireg isrc;
      map2 (fun d s -> Insn.Mov { dst = Insn.DFlt d; src = s }) freg fsrc;
      map2
        (fun d b -> Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt d; base = b; site = 0 })
        ireg ireg;
      map2 (fun s b -> Insn.St { src = s; base = b; site = 0 }) isrc ireg;
      map3
        (fun c t1 t2 -> Insn.Brc { cond = c; ifso = t1; ifnot = t2; site = 0 })
        ireg lbl lbl;
      map (fun t -> Insn.Br { target = t }) lbl;
      return Insn.Nop ]

let gen_code =
  let open QCheck.Gen in
  int_range 1 25 >>= fun body ->
  list_repeat body (gen_insn (body + 1)) >>= fun instrs ->
  return (Array.of_list (instrs @ [ Insn.Ret { value = None } ]))

let print_code code =
  String.concat "\n"
    (Array.to_list
       (Array.mapi (fun i ins -> Fmt.str ".%d %a" i Insn.pp_insn ins) code))

let arb_code = QCheck.make ~print:print_code gen_code

let pt_input ?(pinned = []) code =
  { Regalloc.code;
    nivregs = pt_nivregs;
    nfvregs = pt_nfvregs;
    live_in = [];
    flive_in = [];
    pinned;
    fpinned = [];
    spill_base = 0 }

let alloc_within_bounds policy code =
  let res = Regalloc.run ~policy (pt_input code) in
  Array.for_all
    (fun ins ->
      let iu, fu, idf, fdf = Regalloc.uses_defs ins in
      List.for_all (fun r -> r >= 0 && r < res.Regalloc.nregs) (iu @ idf)
      && List.for_all (fun f -> f >= 0 && f < res.Regalloc.nfregs) (fu @ fdf))
    res.Regalloc.code

let prop_alloc_within_bounds code =
  alloc_within_bounds Regalloc.default_policy code

(* A register file small enough that random code overflows it and the
   splitting/spilling machinery actually runs: sp + one allocatable int
   register, one float register. *)
let tiny_policy =
  { Regalloc.default_policy with Regalloc.cap_int = 2; cap_fp = 1 }

let prop_spill_alloc_within_bounds code = alloc_within_bounds tiny_policy code

(* Physical register of [v] at original pc per the reported assignment;
   -1 = memory-resident or dead there. *)
let phys_at assign v pc =
  match
    List.find_opt (fun (lo, hi, _) -> lo <= pc && pc <= hi) assign.(v)
  with
  | Some (_, _, r) -> r
  | None -> -1

(* The subrange-interference property, checked against the raw liveness
   bitsets (not the condensed ranges): two vregs busy at the same pc never
   occupy the same physical register. *)
let subranges_disjoint policy code =
  let inp = pt_input code in
  let ilive, flive = Regalloc.live_matrix inp in
  let res = Regalloc.run ~policy inp in
  let class_ok live assign nv =
    let ok = ref true in
    Array.iteri
      (fun pc row ->
        for v1 = 0 to nv - 1 do
          for v2 = v1 + 1 to nv - 1 do
            if row.(v1) && row.(v2) then begin
              let r1 = phys_at assign v1 pc and r2 = phys_at assign v2 pc in
              if r1 >= 0 && r1 = r2 then ok := false
            end
          done
        done)
      live;
    !ok
  in
  class_ok ilive res.Regalloc.iassign pt_nivregs
  && class_ok flive res.Regalloc.fassign pt_nfvregs

let prop_subranges_disjoint code =
  subranges_disjoint Regalloc.default_policy code

let prop_subranges_disjoint_closed code =
  subranges_disjoint Regalloc.closed_policy code

let prop_subranges_disjoint_tiny code = subranges_disjoint tiny_policy code

let prop_pinned_register_private code =
  (* ALAT temps: the tag names the physical register, so a pinned vreg is
     never split across registers, and nothing else occupies the register
     while the temp is busy (between arming and the last check) — a check
     still pending keeps the temp busy, so this subsumes tag integrity.
     Outside that window the register is ordinary, and two temps with
     disjoint windows may recycle one tag register — old whole-function
     exclusivity is gone by design. *)
  let inp = pt_input ~pinned:[ 1; 2 ] code in
  let ilive, _ = Regalloc.live_matrix inp in
  let res = Regalloc.run inp in
  let assign = res.Regalloc.iassign in
  let regs_of v =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, _, r) -> if r >= 0 then Some r else None)
         assign.(v))
  in
  let one_reg v = List.length (regs_of v) <= 1 in
  let private_while_busy v =
    match regs_of v with
    | [ p ] ->
      let ok = ref true in
      Array.iteri
        (fun pc row ->
          if row.(v) then
            for v2 = 1 to pt_nivregs - 1 do
              if v2 <> v && phys_at assign v2 pc = p then ok := false
            done)
        ilive;
      !ok
    | _ -> true
  in
  one_reg 1 && one_reg 2 && private_while_busy 1 && private_while_busy 2

(* --- executable straight-line programs: the spilling differential ---

   Def-before-use straight-line code can run on the machine, so the capped
   allocator must print exactly what the uncapped one prints; and since a
   textual scan of straight-line code is a dominance check, every spill
   reload must be preceded by a store to its slot. *)

let gen_straight_code =
  let open QCheck.Gen in
  let pick_defined defined =
    let a = Array.of_list defined in
    map (fun j -> a.(j)) (int_range 0 (Array.length a - 1))
  in
  let isrc defined =
    if defined = [] then
      map (fun k -> Insn.SImm (Int64.of_int k)) (int_range 0 9)
    else
      oneof
        [ map (fun k -> Insn.SImm (Int64.of_int k)) (int_range 0 9);
          map (fun r -> Insn.SReg r) (pick_defined defined) ]
  in
  let fsrc fdefined =
    if fdefined = [] then
      map (fun k -> Insn.SFim (float_of_int k)) (int_range 0 9)
    else
      oneof
        [ map (fun k -> Insn.SFim (float_of_int k)) (int_range 0 9);
          map (fun f -> Insn.SFrg f) (pick_defined fdefined) ]
  in
  let ireg = int_range 1 (pt_nivregs - 1) in
  let freg = int_range 0 (pt_nfvregs - 1) in
  let iop = oneofl [ Insn.Aadd; Insn.Asub; Insn.Amul ] in
  int_range 10 40 >>= fun n ->
  let rec go i defined fdefined acc =
    if i = 0 then
      return (Array.of_list (List.rev (Insn.Ret { value = None } :: acc)))
    else
      int_range 0 4 >>= fun kind ->
      match kind with
      | 0 ->
        map2
          (fun d k -> (d, Insn.Movl { dst = d; imm = Int64.of_int k }))
          ireg (int_range 0 99)
        >>= fun (d, ins) ->
        go (i - 1) (List.sort_uniq compare (d :: defined)) fdefined (ins :: acc)
      | 1 ->
        map3
          (fun op (d, a) b -> (d, Insn.Alu { op; dst = d; a; b }))
          iop
          (map2 (fun d a -> (d, a)) ireg (isrc defined))
          (isrc defined)
        >>= fun (d, ins) ->
        go (i - 1) (List.sort_uniq compare (d :: defined)) fdefined (ins :: acc)
      | 2 ->
        map3
          (fun (d, a) b () -> (d, Insn.Falu { op = Insn.FAadd; dst = d; a; b }))
          (map2 (fun d a -> (d, a)) freg (fsrc fdefined))
          (fsrc fdefined) (return ())
        >>= fun (d, ins) ->
        go (i - 1) defined (List.sort_uniq compare (d :: fdefined)) (ins :: acc)
      | 3 when defined <> [] ->
        map
          (fun r -> Insn.Print { what = Insn.SReg r; as_float = false })
          (pick_defined defined)
        >>= fun ins -> go (i - 1) defined fdefined (ins :: acc)
      | _ when fdefined <> [] ->
        map
          (fun f -> Insn.Print { what = Insn.SFrg f; as_float = true })
          (pick_defined fdefined)
        >>= fun ins -> go (i - 1) defined fdefined (ins :: acc)
      | _ -> go i defined fdefined acc
  in
  go n [] [] []

let arb_straight_code = QCheck.make ~print:print_code gen_straight_code

(* Wrap allocated straight-line code into a runnable one-function program. *)
let exec_alloc policy code =
  let res = Regalloc.run ~policy (pt_input code) in
  let f =
    { Insn.name = "main";
      formals = [];
      code = res.Regalloc.code;
      bundles = None;
      nregs = res.Regalloc.nregs;
      nfregs = res.Regalloc.nfregs;
      frame_bytes = res.Regalloc.spill_bytes;
      slot_of_sym = Hashtbl.create 1 }
  in
  let funcs = Hashtbl.create 1 in
  Hashtbl.replace funcs "main" f;
  let prog = { Insn.funcs; func_order = [ "main" ]; globals = [] } in
  let _, out, _ = Srp_machine.Machine.run_program prog in
  (res, out)

let prop_spill_output_identical code =
  let _, out_full = exec_alloc Regalloc.default_policy code in
  let _, out_tiny = exec_alloc tiny_policy code in
  out_full = out_tiny

let prop_spill_reload_dominated code =
  let res, _ = exec_alloc tiny_policy code in
  (* straight-line code: textual order is dominance order *)
  let stored = Hashtbl.create 8 in
  let ok = ref true in
  let c = res.Regalloc.code in
  Array.iteri
    (fun i ins ->
      if i > 0 then
        match (c.(i - 1), ins) with
        | ( Insn.Alu { op = Insn.Aadd; dst; a = Insn.SReg 0; b = Insn.SImm off },
            Insn.Ld { base; site = -1; _ } )
          when dst = base ->
          if not (Hashtbl.mem stored off) then ok := false
        | ( Insn.Alu { op = Insn.Aadd; dst; a = Insn.SReg 0; b = Insn.SImm off },
            Insn.St { base; site = -1; _ } )
          when dst = base ->
          Hashtbl.replace stored off ()
        | _ -> ())
    c;
  !ok

let regalloc_qchecks =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:300 ~name:"regalloc within nregs/nfregs" arb_code
        prop_alloc_within_bounds;
      QCheck.Test.make ~count:300 ~name:"capped regalloc within nregs/nfregs"
        arb_code prop_spill_alloc_within_bounds;
      QCheck.Test.make ~count:300 ~name:"overlapping subranges disjoint"
        arb_code prop_subranges_disjoint;
      QCheck.Test.make ~count:300
        ~name:"overlapping subranges disjoint (closed)" arb_code
        prop_subranges_disjoint_closed;
      QCheck.Test.make ~count:300
        ~name:"overlapping subranges disjoint (capped)" arb_code
        prop_subranges_disjoint_tiny;
      QCheck.Test.make ~count:300 ~name:"pinned (ALAT) register private"
        arb_code prop_pinned_register_private;
      QCheck.Test.make ~count:200 ~name:"capped output = uncapped output"
        arb_straight_code prop_spill_output_identical;
      QCheck.Test.make ~count:200 ~name:"spill reloads dominated by stores"
        arb_straight_code prop_spill_reload_dominated ]

(* --- the seed allocator's pinned-vregs bug (regression) --- *)

let test_pinned_narrowing_frees_register () =
  (* The seed allocator (closed_policy, kept for the no-split ablation)
     models pinned vregs as live for the whole function, so an ALAT temp
     blocks its register even after its last check.  The default policy
     narrows them to arm..check, so a later value reuses the register. *)
  let code =
    [| Insn.Movl { dst = 1; imm = 5L };
       Insn.St { src = Insn.SReg 1; base = 0; site = 0 };
       Insn.Movl { dst = 2; imm = 7L };
       Insn.St { src = Insn.SReg 2; base = 0; site = 0 };
       Insn.Ret { value = None } |]
  in
  let inp =
    { Regalloc.code; nivregs = 3; nfvregs = 0; live_in = []; flive_in = [];
      pinned = [ 1 ]; fpinned = []; spill_base = 0 }
  in
  let wide = Regalloc.run ~policy:Regalloc.closed_policy inp in
  let narrow = Regalloc.run ~policy:Regalloc.default_policy inp in
  Alcotest.(check int) "whole-function pinning blocks a register" 3
    wide.Regalloc.nregs;
  Alcotest.(check int) "narrowed pinning frees it" 2 narrow.Regalloc.nregs

(* --- spill-slot coloring: non-overlapping spilled ranges share a slot --- *)

let test_spill_slot_reuse () =
  (* v2 and v4 are computed from live registers (not rematerializable), so
     under the tiny cap they genuinely spill; their ranges don't overlap,
     so slot coloring must give them one shared frame slot. *)
  let code =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Alu { op = Insn.Aadd; dst = 2; a = Insn.SReg 1; b = Insn.SImm 2L };
       Insn.Alu { op = Insn.Aadd; dst = 1; a = Insn.SReg 1; b = Insn.SReg 2 };
       Insn.St { src = Insn.SReg 1; base = 0; site = 0 };
       Insn.Movl { dst = 3; imm = 3L };
       Insn.Alu { op = Insn.Aadd; dst = 4; a = Insn.SReg 3; b = Insn.SImm 4L };
       Insn.Alu { op = Insn.Aadd; dst = 3; a = Insn.SReg 3; b = Insn.SReg 4 };
       Insn.St { src = Insn.SReg 3; base = 0; site = 0 };
       Insn.Ret { value = None } |]
  in
  let inp =
    { Regalloc.code; nivregs = 5; nfvregs = 0; live_in = []; flive_in = [];
      pinned = []; fpinned = []; spill_base = 16 }
  in
  let res = Regalloc.run ~policy:tiny_policy inp in
  let st = res.Regalloc.stats in
  Alcotest.(check int) "two webs spill" 2 st.Regalloc.spilled_webs;
  Alcotest.(check int) "non-overlapping spills share one slot" 1
    st.Regalloc.spill_slots;
  Alcotest.(check int) "frame grows by exactly one slot" 8
    res.Regalloc.spill_bytes;
  Alcotest.(check int) "one reload per spilled use" 2 st.Regalloc.reloads;
  Alcotest.(check int) "one store per spilled def" 2 st.Regalloc.spill_stores

(* --- hole-aware vs closed allocator on the benchmark kernels --- *)

module Pipeline = Srp_driver.Pipeline
module Workload = Srp_driver.Workload
module Site_hist = Srp_obs.Site_hist

let small_workload name =
  let w = Srp_workloads.Registry.find name in
  { w with Workload.ref_ = w.Workload.train }

let nregs_total (tgt : Insn.program) =
  Hashtbl.fold (fun _ f a -> a + f.Insn.nregs) tgt.Insn.funcs 0

let rse_traffic (c : Counters.t) =
  c.Counters.rse_spilled_regs + c.Counters.rse_filled_regs

(* Every level x layout x bundle x split combination of one kernel is
   bit-identical on program output and exit code (train input). *)
let test_split_matrix name () =
  let w = small_workload name in
  let profile = Pipeline.train_profile w in
  let reference = ref None in
  List.iter
    (fun level ->
      let profile =
        match level with Pipeline.Alat -> Some profile | _ -> None
      in
      List.iter
        (fun ablations ->
          let c =
            Pipeline.compile ?profile ~ablations ~input:w.Workload.ref_ w
              level
          in
          let r = Pipeline.run c in
          let key =
            Fmt.str "%s %s [%s]" name (Pipeline.level_name level)
              (String.concat " " (List.map Pipeline.ablation_name ablations))
          in
          match !reference with
          | None -> reference := Some (r.Pipeline.output, r.Pipeline.exit_code)
          | Some (out, code) ->
            Alcotest.(check string) (key ^ " output") out r.Pipeline.output;
            Alcotest.(check int64) (key ^ " exit code") code
              r.Pipeline.exit_code)
        (* every subset of {no-layout, no-bundle, no-split} *)
        (List.fold_left
           (fun sets a -> sets @ List.map (fun s -> a :: s) sets)
           [ [] ]
           [ Pipeline.No_layout; Pipeline.No_bundle; Pipeline.No_split ]))
    [ Pipeline.O0; Pipeline.Conservative; Pipeline.Baseline; Pipeline.Alat;
      Pipeline.Alat_heuristic ]

(* The tentpole's acceptance criterion: on the register-hungry kernels the
   hole-aware allocator strictly reduces register demand and RSE traffic
   at the alat level versus the closed-interval allocator. *)
let test_split_strict_reduction name () =
  let w = small_workload name in
  let split = Pipeline.profile_compile_run w Pipeline.Alat in
  let nosplit =
    Pipeline.profile_compile_run ~ablations:[ Pipeline.No_split ] w
      Pipeline.Alat
  in
  Alcotest.(check string) "outputs agree" nosplit.Pipeline.output
    split.Pipeline.output;
  Alcotest.(check int64) "exit codes agree" nosplit.Pipeline.exit_code
    split.Pipeline.exit_code;
  let nr_s = nregs_total split.Pipeline.compiled.Pipeline.target in
  let nr_c = nregs_total nosplit.Pipeline.compiled.Pipeline.target in
  Alcotest.(check bool)
    (Fmt.str "%s: hole-aware nregs %d < closed %d" name nr_s nr_c)
    true (nr_s < nr_c);
  let t_s = rse_traffic split.Pipeline.counters
  and t_c = rse_traffic nosplit.Pipeline.counters in
  Alcotest.(check bool)
    (Fmt.str "%s: hole-aware rse traffic %d < closed %d" name t_s t_c)
    true
    (t_c > 0 && t_s < t_c)

(* Split on/off is bit-identical on output and all non-cycle counters for
   all ten kernels: only the timing family (cycles, bundle geometry, RSE
   traffic) may move; retired events and the whole ALAT stream may not. *)
let cycle_family =
  [ "cycles"; "instrs_retired"; "data_access_cycles"; "bundles_retired";
    "nops_emitted"; "split_stalls"; "rse_cycles"; "rse_spilled_regs";
    "rse_filled_regs"; "max_stacked_regs" ]

let test_split_noncycle_counters () =
  List.iter
    (fun w ->
      let small = { w with Workload.ref_ = w.Workload.train } in
      let s = Pipeline.profile_compile_run small Pipeline.Alat in
      let n =
        Pipeline.profile_compile_run ~ablations:[ Pipeline.No_split ] small
          Pipeline.Alat
      in
      Alcotest.(check string)
        (w.Workload.name ^ " output")
        n.Pipeline.output s.Pipeline.output;
      Alcotest.(check int64)
        (w.Workload.name ^ " exit code")
        n.Pipeline.exit_code s.Pipeline.exit_code;
      List.iter2
        (fun (k, vs) (k', vn) ->
          assert (k = k');
          if not (List.mem k cycle_family) then
            Alcotest.(check int)
              (Fmt.str "%s: %s equal across split on/off" w.Workload.name k)
              vn vs)
        (Counters.to_fields s.Pipeline.counters)
        (Counters.to_fields n.Pipeline.counters))
    (Srp_workloads.Registry.all ())

(* --- spilled kernel builds: semantics, attribution, reload dominance --- *)

(* Compile a kernel at alat under a custom register-allocation policy
   (Pipeline only exposes the split bool; pressure tests need tiny caps). *)
let compile_capped ?(layout = true) ?(sched = true) ?(bundle = true) ~policy w =
  let profile = Pipeline.train_profile w in
  let ir = Srp_frontend.Lower.compile_source w.Workload.source in
  Workload.apply_input ir w.Workload.ref_;
  ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) ir);
  Codegen.gen_program ~layout ~sched ~bundle ~ra:policy ir

let kernel_cap = { Regalloc.default_policy with Regalloc.cap_int = 8; cap_fp = 4 }

let test_capped_kernel_attribution name () =
  let w = small_workload name in
  let tgt = compile_capped ~policy:kernel_cap w in
  let full = compile_capped ~policy:Regalloc.default_policy w in
  Alcotest.(check bool) "cap binds (register demand shrinks)" true
    (nregs_total tgt < nregs_total full);
  let m = Srp_machine.Machine.create tgt in
  ignore (Srp_machine.Machine.run m);
  let m_full = Srp_machine.Machine.create full in
  ignore (Srp_machine.Machine.run m_full);
  Alcotest.(check string) "capped output = uncapped output"
    (Srp_machine.Machine.output m_full)
    (Srp_machine.Machine.output m);
  (* per-site attribution still sums to the global counters even though
     spilled values live in several places (satellite: split builds keep
     the Site_hist invariant) *)
  let c = Srp_machine.Machine.counters m in
  let h = Srp_machine.Machine.site_stats m in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Fmt.str "%s capped: site sum = global %s" name
           (Site_hist.event_name e))
        (List.assoc (Site_hist.event_name e) (Counters.to_fields c))
        (Site_hist.total h e))
    Site_hist.all_events

(* Forward all-paths dataflow over a flat (unbundled, unlaid-out) function:
   every spill reload reads a slot that a spill store wrote on every path
   from entry.  Sound because spilled entities are never live-in at entry
   (entry-live formals are unspillable), so liveness guarantees a def —
   and hence a store — on every entry path. *)
let check_reloads_dominated (f : Insn.func) =
  let code = f.Insn.code in
  let n = Array.length code in
  let off_idx = Hashtbl.create 8 in
  let spill_accesses = ref [] in
  for i = 1 to n - 1 do
    match (code.(i - 1), code.(i)) with
    | ( Insn.Alu { op = Insn.Aadd; dst; a = Insn.SReg 0; b = Insn.SImm off },
        Insn.Ld { base; site = -1; _ } )
      when dst = base ->
      if not (Hashtbl.mem off_idx off) then
        Hashtbl.replace off_idx off (Hashtbl.length off_idx);
      spill_accesses := (`Reload, i, off) :: !spill_accesses
    | ( Insn.Alu { op = Insn.Aadd; dst; a = Insn.SReg 0; b = Insn.SImm off },
        Insn.St { base; site = -1; _ } )
      when dst = base ->
      if not (Hashtbl.mem off_idx off) then
        Hashtbl.replace off_idx off (Hashtbl.length off_idx);
      spill_accesses := (`Store, i, off) :: !spill_accesses
    | _ -> ()
  done;
  let noff = Hashtbl.length off_idx in
  if noff > 0 then begin
    let words = (noff + 62) / 63 in
    let top = Array.make words (-1) in
    let inb = Array.init n (fun _ -> Array.copy top) in
    Array.fill inb.(0) 0 words 0;
    let gen = Array.make n (-1, -1) in
    List.iter
      (fun (k, i, off) ->
        if k = `Store then
          let b = Hashtbl.find off_idx off in
          gen.(i) <- (b / 63, 1 lsl (b mod 63)))
      !spill_accesses;
    let changed = ref true in
    while !changed do
      changed := false;
      for pc = 0 to n - 1 do
        let out = Array.copy inb.(pc) in
        (match gen.(pc) with
        | -1, _ -> ()
        | w, m -> out.(w) <- out.(w) lor m);
        List.iter
          (fun s ->
            if s >= 0 && s < n then begin
              let row = inb.(s) in
              for w = 0 to words - 1 do
                let x = row.(w) land out.(w) in
                if x <> row.(w) then begin
                  row.(w) <- x;
                  changed := true
                end
              done
            end)
          (Insn.successors code pc)
      done
    done;
    List.iter
      (fun (k, i, off) ->
        if k = `Reload then begin
          let b = Hashtbl.find off_idx off in
          if inb.(i).(b / 63) land (1 lsl (b mod 63)) = 0 then
            Alcotest.fail
              (Fmt.str "%s: reload at pc %d of slot %Ld not dominated by a store"
                 f.Insn.name i off)
        end)
      !spill_accesses
  end

let test_capped_kernel_reloads_dominated name () =
  let w = small_workload name in
  (* sched:false — spill-access detection below pattern-matches the
     `sp+off` address compute *adjacent* to its Ld/St, and the list
     scheduler is free to separate them (it never reorders the memory
     ops themselves, so dominance is unaffected — only detection). *)
  let tgt =
    compile_capped ~layout:false ~sched:false ~bundle:false
      ~policy:kernel_cap w
  in
  Hashtbl.iter (fun _ f -> check_reloads_dominated f) tgt.Insn.funcs

let suite =
  regalloc_qchecks
  @ [ Alcotest.test_case "labels resolve" `Quick test_codegen_labels_resolve;
    Alcotest.test_case "register bounds" `Quick test_codegen_register_bounds;
    Alcotest.test_case "ALAT registers dedicated" `Quick test_regalloc_alat_dedicated;
    Alcotest.test_case "figure 1 assembly shape" `Quick test_figure1_assembly_shape;
    Alcotest.test_case "figure 3 assembly shape" `Quick test_figure3_assembly_shape;
    Alcotest.test_case "layout rotates hot loops" `Quick test_layout_rotated_loop_mispredicts;
    Alcotest.test_case "layout keeps recovery out of line" `Quick test_layout_recovery_out_of_line;
    Alcotest.test_case "layout differential (alat)" `Quick test_layout_differential_alat;
    Alcotest.test_case "address hoisting" `Quick test_addr_hoisting;
    Alcotest.test_case "formal spill prologue" `Quick test_formal_spill_prologue;
    Alcotest.test_case "frame layout disjoint" `Quick test_frame_layout_disjoint;
    Alcotest.test_case "pinned narrowing frees a register" `Quick
      test_pinned_narrowing_frees_register;
    Alcotest.test_case "spill slots reused" `Quick test_spill_slot_reuse;
    Alcotest.test_case "split matrix: ammp" `Slow (test_split_matrix "ammp");
    Alcotest.test_case "split matrix: equake" `Slow (test_split_matrix "equake");
    Alcotest.test_case "split matrix: gap" `Slow (test_split_matrix "gap");
    Alcotest.test_case "split reduces pressure: ammp" `Slow
      (test_split_strict_reduction "ammp");
    Alcotest.test_case "split reduces pressure: equake" `Slow
      (test_split_strict_reduction "equake");
    Alcotest.test_case "split reduces pressure: gap" `Slow
      (test_split_strict_reduction "gap");
    Alcotest.test_case "split on/off: non-cycle counters equal (10 kernels)"
      `Slow test_split_noncycle_counters;
    Alcotest.test_case "capped kernel: attribution sums (gzip)" `Slow
      (test_capped_kernel_attribution "gzip");
    Alcotest.test_case "capped kernel: attribution sums (twolf)" `Slow
      (test_capped_kernel_attribution "twolf");
    Alcotest.test_case "capped kernel: reloads dominated (mcf)" `Slow
      (test_capped_kernel_reloads_dominated "mcf");
    Alcotest.test_case "capped kernel: reloads dominated (twolf)" `Slow
      (test_capped_kernel_reloads_dominated "twolf") ]
