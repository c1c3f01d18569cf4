(* Tests for the pre-bundle latency-aware list scheduler.

   Three layers, mirroring test_bundle.ml:
   - QCheck properties over random instruction blocks, judged by an
     independent re-implementation of the dependence rules (the
     reads/writes table, the ordered-op classification and the block
     leader rule are all restated here from the ISA, not imported from
     the scheduler or the allocator): the output is a per-block
     permutation of the input; no RAW/WAW/WAR pair is inverted; the
     memory/ALAT/side-effect subsequence of each block is untouched; no
     ALAT tag's arm/check/invalidate sequence changes; terminals keep
     their exact pc.
   - Deterministic units: a fully serial chain comes back identical, and
     an independent ld.a hoists above older compute.
   - A sched-on/off differential over every built-in kernel at every
     level: bit-identical output, exit code and non-cycle counters;
     cycles never regress at alat; and the aggregate split_stalls +
     nops_emitted bill strictly shrinks — the scheduler must buy its
     keep at the bundler, not just at the latency model. *)

module Insn = Srp_target.Insn
module Sched = Srp_target.Sched
module C = Srp_machine.Counters
open Srp_driver

(* --- independent dependence rules --- *)

(* (int reads, float reads, int writes, float writes), re-derived from
   the ISA semantics opcode by opcode. *)
let reads_writes (ins : Insn.insn) : int list * int list * int list * int list
    =
  let src = function
    | Insn.SReg r -> ([ r ], [])
    | Insn.SFrg f -> ([], [ f ])
    | Insn.SImm _ | Insn.SFim _ -> ([], [])
  in
  let dest = function Insn.DInt r -> ([ r ], []) | Insn.DFlt f -> ([], [ f ]) in
  let ( ++ ) (a, b) (c, d) = (a @ c, b @ d) in
  let none = ([], []) in
  let r, w =
    match ins with
    | Insn.Movl { dst; _ } | Insn.Gaddr { dst; _ } -> (none, ([ dst ], []))
    | Insn.Mov { dst; src = s } -> (src s, dest dst)
    | Insn.Alu { a; b; dst; _ } | Insn.Fcmp { a; b; dst; _ } ->
      (src a ++ src b, ([ dst ], []))
    | Insn.Falu { a; b; dst; _ } -> (src a ++ src b, ([], [ dst ]))
    | Insn.Itof { src = s; dst } -> (src s, ([], [ dst ]))
    | Insn.Ftoi { src = s; dst } -> (src s, ([ dst ], []))
    | Insn.Ld { kind; dst; base; _ } ->
      (* a check load consults the value it may already hold *)
      let extra =
        match kind with Insn.K_ld_c _ -> dest dst | _ -> none
      in
      ((([ base ], []) ++ extra), dest dst)
    | Insn.St { src = s; base; _ } -> (src s ++ ([ base ], []), none)
    | Insn.Chk_a { tag; _ } | Insn.Invala_e { tag } -> (dest tag, none)
    | Insn.Sel { dst; cond; if_true; if_false } ->
      (([ cond ], []) ++ src if_true ++ src if_false, dest dst)
    | Insn.Br _ -> (none, none)
    | Insn.Brc { cond; _ } -> (([ cond ], []), none)
    | Insn.Call { args; ret; _ } ->
      ( List.fold_left (fun acc a -> acc ++ src a) none args,
        match ret with Some d -> dest d | None -> none )
    | Insn.Ret { value } ->
      ((match value with Some s -> src s | None -> none), none)
    | Insn.Alloc { dst; nbytes; _ } -> (src nbytes, ([ dst ], []))
    | Insn.Print { what; _ } -> (src what, none)
    | Insn.Nop -> (none, none)
  in
  (fst r, snd r, fst w, snd w)

(* effects beyond the register files: cache state, ALAT state, the heap
   pointer, the output stream — their relative order is architecture *)
let observes_world = function
  | Insn.Ld _ | Insn.St _ | Insn.Chk_a _ | Insn.Invala_e _ | Insn.Alloc _
  | Insn.Call _ | Insn.Print _ ->
    true
  | _ -> false

let ends_block = function
  | Insn.Br _ | Insn.Brc _ | Insn.Ret _ | Insn.Chk_a _ -> true
  | _ -> false

(* leaders are branch/check targets and the instruction after any
   control transfer: the rule Insn.leaders states, restated here *)
let leaders (code : Insn.insn array) : bool array =
  let n = Array.length code in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  let mark t = if t >= 0 && t < n then leader.(t) <- true in
  Array.iteri
    (fun i ins ->
      (match ins with
      | Insn.Br { target } -> mark target
      | Insn.Brc { ifso; ifnot; _ } ->
        mark ifso;
        mark ifnot
      | Insn.Chk_a { recovery; _ } -> mark recovery
      | _ -> ());
      if ends_block ins then mark (i + 1))
    code;
  leader

(* block extents *)
let blocks (code : Insn.insn array) : (int * int) list =
  let n = Array.length code in
  let leader = leaders code in
  let bs = ref [] and lo = ref 0 in
  for i = 1 to n do
    if i = n || leader.(i) then begin
      bs := (!lo, i) :: !bs;
      lo := i
    end
  done;
  List.rev !bs

(* Match each output slot of a block to a distinct input index holding an
   identical instruction; None if the block is not a permutation. *)
let match_block (inp : Insn.insn array) (out : Insn.insn array) lo hi :
    int array option =
  let n = hi - lo in
  let used = Array.make n false in
  let map = Array.make n (-1) in
  let ok = ref true in
  for p = 0 to n - 1 do
    let rec find k =
      if k >= n then -1
      else if (not used.(k)) && inp.(lo + k) = out.(lo + p) then k
      else find (k + 1)
    in
    match find 0 with
    | -1 -> ok := false
    | k ->
      used.(k) <- true;
      map.(p) <- k
  done;
  if !ok then Some map else None

(* --- random blocks: test_bundle's generator plus the scheduler-relevant
   opcodes (conversions, sel, all speculative load kinds, alloc, print) *)

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
      (1, map3 (fun d a b -> Insn.Alu { op = Insn.Amul; dst = d; a; b }) ireg isrc isrc);
      (2, map3 (fun d a b -> Insn.Alu { op = Insn.Acmp_lt; dst = d; a; b }) ireg isrc isrc);
      (2, map3 (fun d a b -> Insn.Falu { op = Insn.FAadd; dst = d; a; b }) freg fsrc fsrc);
      (1, map3 (fun d a b -> Insn.Falu { op = Insn.FAmul; dst = d; a; b }) freg fsrc fsrc);
      (1, map3 (fun d a b -> Insn.Fcmp { op = Insn.FClt; dst = d; a; b }) ireg fsrc fsrc);
      (1, map2 (fun d s -> Insn.Itof { dst = d; src = s }) freg isrc);
      (1, map2 (fun d s -> Insn.Ftoi { dst = d; src = s }) ireg fsrc);
      (2, map2 (fun d s -> Insn.Mov { dst = Insn.DInt d; src = s }) ireg isrc);
      (1, map2 (fun d s -> Insn.Mov { dst = Insn.DFlt d; src = s }) freg fsrc);
      (1, map3
            (fun d c (t, f) -> Insn.Sel { dst = Insn.DInt d; cond = c; if_true = t; if_false = f })
            ireg ireg (pair isrc isrc));
      (3, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt d; base = b; site = 0 })
            ireg ireg);
      (1, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld_a; dst = Insn.DInt d; base = b; site = 1 })
            ireg ireg);
      (1, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld_sa; dst = Insn.DInt d; base = b; site = 1 })
            ireg ireg);
      (1, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld_c { clear = false }; dst = Insn.DInt d; base = b; site = 2 })
            ireg ireg);
      (1, map2
            (fun d b -> Insn.Ld { kind = Insn.K_ld; dst = Insn.DFlt d; base = b; site = 0 })
            freg ireg);
      (2, map2 (fun s b -> Insn.St { src = s; base = b; site = 0 }) isrc ireg);
      (1, map2 (fun r t -> Insn.Chk_a { tag = Insn.DInt r; recovery = t; site = 2 }) ireg lbl);
      (1, map (fun r -> Insn.Invala_e { tag = Insn.DInt r }) ireg);
      (1, map2 (fun d s -> Insn.Alloc { dst = d; nbytes = s; site = 3 }) ireg isrc);
      (1, map (fun s -> Insn.Print { what = s; as_float = false }) isrc);
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
  int_range 1 40 >>= fun body ->
  list_repeat body (gen_insn (body + 1)) >>= fun instrs ->
  return (Array.of_list (instrs @ [ Insn.Ret { value = None } ]))

let print_code code =
  String.concat "\n"
    (Array.to_list
       (Array.mapi (fun i ins -> Fmt.str ".%d %a" i Insn.pp_insn ins) code))

let arb_code = QCheck.make ~print:print_code gen_code

(* --- the properties --- *)

let prop_permutation code =
  let out = Sched.run code in
  Array.length out = Array.length code
  && List.for_all
       (fun (lo, hi) -> match_block code out lo hi <> None)
       (blocks code)

let prop_dependences_preserved code =
  let out = Sched.run code in
  let inter a b = List.exists (fun x -> List.mem x b) a in
  List.for_all
    (fun (lo, hi) ->
      match match_block code out lo hi with
      | None -> false
      | Some map ->
        let n = hi - lo in
        (* place.(input index) = output position *)
        let place = Array.make n (-1) in
        Array.iteri (fun p k -> place.(k) <- p) map;
        let rw = Array.init n (fun k -> reads_writes code.(lo + k)) in
        let dep i j =
          let iu_i, fu_i, iw_i, fw_i = rw.(i) in
          let iu_j, fu_j, iw_j, fw_j = rw.(j) in
          inter iw_i iu_j || inter fw_i fu_j (* RAW *)
          || inter iw_i iw_j || inter fw_i fw_j (* WAW *)
          || inter iu_i iw_j || inter fu_i fw_j (* WAR *)
        in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if dep i j && place.(i) >= place.(j) then ok := false
          done
        done;
        !ok)
    (blocks code)

let prop_world_order_preserved code =
  let out = Sched.run code in
  List.for_all
    (fun (lo, hi) ->
      let seq a =
        List.filter observes_world
          (Array.to_list (Array.sub a lo (hi - lo)))
      in
      seq code = seq out)
    (blocks code)

(* every ALAT tag's own arm / check / invalidate / store story: stores
   kill arbitrary entries, so they belong to every tag's sequence *)
let prop_alat_sequences_preserved code =
  let out = Sched.run code in
  let touches tag = function
    | Insn.Ld { kind = Insn.K_ld_a | Insn.K_ld_sa | Insn.K_ld_c _; dst; _ } ->
      dst = tag
    | Insn.Chk_a { tag = t; _ } | Insn.Invala_e { tag = t } -> t = tag
    | Insn.St _ -> true
    | _ -> false
  in
  let tags =
    Array.to_list code
    |> List.filter_map (function
         | Insn.Ld { kind = Insn.K_ld_a | Insn.K_ld_sa; dst; _ } -> Some dst
         | _ -> None)
  in
  List.for_all
    (fun (lo, hi) ->
      List.for_all
        (fun tag ->
          let seq a =
            List.filter (touches tag)
              (Array.to_list (Array.sub a lo (hi - lo)))
          in
          seq code = seq out)
        tags)
    (blocks code)

let prop_terminals_pinned code =
  let out = Sched.run code in
  Array.length out = Array.length code
  && Array.for_all
       (fun i -> (not (ends_block code.(i))) || out.(i) = code.(i))
       (Array.init (Array.length code) (fun i -> i))

(* --- Insn's control-flow helpers against the restatement above --- *)

let prop_leaders code = Insn.leaders code = leaders code

let has_target = function
  | Insn.Br _ | Insn.Brc _ | Insn.Chk_a _ -> true
  | _ -> false

(* [k] picks the rewrite: an injective shift, or the constant pack_cost
   clamps to *)
let prop_map_targets (code, k) =
  let f t = if k = 0 then 0 else (7 * t) + k in
  Array.for_all
    (fun ins ->
      let ins' = Insn.map_targets f ins in
      Insn.targets ins' = List.map f (Insn.targets ins)
      && (has_target ins || ins' == ins))
    code

let sched_qchecks =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:500 ~name:"per-block permutation" arb_code
        prop_permutation;
      QCheck.Test.make ~count:500 ~name:"no RAW/WAW/WAR pair inverted"
        arb_code prop_dependences_preserved;
      QCheck.Test.make ~count:500
        ~name:"memory/ALAT/side-effect order preserved" arb_code
        prop_world_order_preserved;
      QCheck.Test.make ~count:500 ~name:"per-tag ALAT sequences preserved"
        arb_code prop_alat_sequences_preserved;
      QCheck.Test.make ~count:500 ~name:"terminals pinned at their pc"
        arb_code prop_terminals_pinned;
      QCheck.Test.make ~count:500 ~name:"Insn.leaders = restated rule" arb_code
        prop_leaders;
      QCheck.Test.make ~count:500
        ~name:"map_targets maps targets, keeps the rest physically"
        (QCheck.pair arb_code (QCheck.int_range 0 5))
        prop_map_targets ]

(* --- deterministic units --- *)

let test_serial_chain_is_identity () =
  let chain =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Alu { op = Insn.Aadd; dst = 2; a = Insn.SReg 1; b = Insn.SImm 1L };
       Insn.Alu { op = Insn.Aadd; dst = 3; a = Insn.SReg 2; b = Insn.SImm 1L };
       Insn.Alu { op = Insn.Aadd; dst = 4; a = Insn.SReg 3; b = Insn.SImm 1L };
       Insn.Ret { value = None } |]
  in
  Alcotest.(check bool) "fully serial block untouched" true
    (Sched.run chain = chain)

let test_independent_lda_hoists () =
  (* the ld.a owes nothing to the FP chain ahead of it, so it should
     issue earlier (separating it from its consumer), while the FP chain
     fills the shadow *)
  let code =
    [| Insn.Falu { op = Insn.FAadd; dst = 1; a = Insn.SFrg 0; b = Insn.SFrg 0 };
       Insn.Falu { op = Insn.FAadd; dst = 2; a = Insn.SFrg 1; b = Insn.SFrg 1 };
       Insn.Ld { kind = Insn.K_ld_a; dst = Insn.DInt 1; base = 2; site = 0 };
       Insn.Alu { op = Insn.Aadd; dst = 3; a = Insn.SReg 1; b = Insn.SImm 1L };
       Insn.Ret { value = None } |]
  in
  let out = Sched.run code in
  Alcotest.(check bool) "ld.a hoisted above the FP chain" true
    (out.(1) = code.(2) && out.(3) = code.(1))

(* --- sched-on/off differential over the built-in kernels --- *)

let cycle_family =
  [ "cycles"; "instrs_retired"; "data_access_cycles"; "bundles_retired";
    "nops_emitted"; "split_stalls" ]

let run_small (w : Workload.t) ~sched level =
  let small = { w with Workload.ref_ = w.Workload.train } in
  let ablations = if sched then [] else [ Pipeline.No_sched ] in
  Pipeline.profile_compile_run ~ablations small level

let test_kernel_sched_differential name () =
  let w = Srp_workloads.Registry.find name in
  List.iter
    (fun level ->
      let on = run_small w ~sched:true level in
      let off = run_small w ~sched:false level in
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
      if level = Pipeline.Alat then
        Alcotest.(check bool)
          (Fmt.str "%s@alat scheduled cycles <= unscheduled" name)
          true
          (on.Pipeline.counters.C.cycles <= off.Pipeline.counters.C.cycles))
    Pipeline.all_levels

(* the scheduler must also pay at the bundler: over the whole suite at
   alat, stop-bit splits plus retired pad nops strictly shrink *)
let test_sched_shrinks_issue_bill () =
  let agg sched =
    List.fold_left
      (fun acc name ->
        let r =
          run_small (Srp_workloads.Registry.find name) ~sched Pipeline.Alat
        in
        acc + r.Pipeline.counters.C.split_stalls
        + r.Pipeline.counters.C.nops_emitted)
      0
      (Srp_workloads.Registry.names ())
  in
  let on = agg true and off = agg false in
  Alcotest.(check bool)
    (Fmt.str "aggregate split_stalls+nops_emitted shrinks (%d -> %d)" off on)
    true (on < off)

let kernel_diff_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " sched on/off differential") `Slow
        (test_kernel_sched_differential name))
    (Srp_workloads.Registry.names ())

let suite =
  sched_qchecks
  @ [ Alcotest.test_case "fully serial chain is identity" `Quick
        test_serial_chain_is_identity;
      Alcotest.test_case "independent ld.a hoists" `Quick
        test_independent_lda_hoists;
      Alcotest.test_case "aggregate issue bill shrinks" `Slow
        test_sched_shrinks_issue_bill ]
  @ kernel_diff_tests
