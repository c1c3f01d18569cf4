(* Tests for the machine model: the ALAT, the caches, the RSE, and the
   executing pipeline (differentially against the interpreter). *)

module Alat = Srp_machine.Alat
module Cache = Srp_machine.Cache
module Rse = Srp_machine.Rse
module Counters = Srp_machine.Counters
module Model = Srp_ir.Machine_model

(* --- ALAT unit tests --- *)

let test_alat_arm_check () =
  let a = Alat.create () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000);
  Alcotest.(check bool) "armed entry hits" true (Alat.check a tag ~clear:false);
  Alcotest.(check bool) "nc keeps the entry" true (Alat.check a tag ~clear:false);
  Alcotest.(check bool) "clr removes it" true (Alat.check a tag ~clear:true);
  Alcotest.(check bool) "gone after clr" false (Alat.check a tag ~clear:false)

let test_alat_store_invalidation () =
  let a = Alat.create () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000);
  Alcotest.(check int) "matching store invalidates" 1 (Alat.store_probe a 0x1000);
  Alcotest.(check bool) "check misses after store" false (Alat.check a tag ~clear:false)

let test_alat_partial_tag_false_collision () =
  let a = Alat.create ~paddr_bits:12 () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000);
  (* an address 2^15 bytes away shares the 12-bit word tag *)
  let colliding = 0x1000 + (4096 * 8) in
  Alcotest.(check int) "false collision invalidates (safe direction)" 1
    (Alat.store_probe a colliding);
  (* a non-colliding address does not *)
  ignore (Alat.insert a tag 0x1000);
  Alcotest.(check int) "different tag leaves it alone" 0 (Alat.store_probe a 0x1008);
  Alcotest.(check bool) "still armed" true (Alat.check a tag ~clear:false)

let test_alat_register_keyed () =
  let a = Alat.create () in
  let t1 = Alat.int_tag ~frame:1 5 in
  let t2 = Alat.int_tag ~frame:1 6 in
  ignore (Alat.insert a t1 0x1000);
  Alcotest.(check bool) "other register misses" false (Alat.check a t2 ~clear:false);
  (* same register re-armed at a new address: only one entry *)
  ignore (Alat.insert a t1 0x2000);
  Alcotest.(check int) "old address no longer matches" 0 (Alat.store_probe a 0x1000);
  Alcotest.(check int) "new address matches" 1 (Alat.store_probe a 0x2000)

let test_alat_frames_isolated () =
  let a = Alat.create () in
  let t1 = Alat.int_tag ~frame:1 5 in
  let t2 = Alat.int_tag ~frame:2 5 in
  ignore (Alat.insert a t1 0x1000);
  Alcotest.(check bool) "same reg, other frame misses" false (Alat.check a t2 ~clear:false);
  Alat.purge_frame a ~frame:1;
  Alcotest.(check bool) "purged frame misses" false (Alat.check a t1 ~clear:false)

let test_alat_capacity_eviction () =
  let a = Alat.create ~size:32 ~ways:2 () in
  (* fill one set: addresses with identical set index *)
  let mk_addr i = ((i * 16 * 8) lor 0) * 1 in
  let evicted = ref 0 in
  for i = 0 to 3 do
    if Alat.insert a (Alat.int_tag ~frame:1 i) (mk_addr i) <> None then
      incr evicted
  done;
  Alcotest.(check bool) "third insert into a 2-way set evicts" true (!evicted >= 1)

let test_alat_fp_tags_distinct () =
  let a = Alat.create () in
  let ti = Alat.int_tag ~frame:1 3 in
  let tf = Alat.fp_tag ~frame:1 3 in
  ignore (Alat.insert a ti 0x1000);
  Alcotest.(check bool) "fp tag distinct from int tag" false (Alat.check a tf ~clear:false)

let test_alat_invala_all () =
  let a = Alat.create () in
  ignore (Alat.insert a (Alat.int_tag ~frame:1 1) 0x10);
  ignore (Alat.insert a (Alat.int_tag ~frame:1 2) 0x20);
  Alcotest.(check int) "occupancy" 2 (Alat.occupancy a);
  Alat.invala_all a;
  Alcotest.(check int) "empty" 0 (Alat.occupancy a)

(* --- table geometry: every ill-formed request is refused by name --- *)

let expect_invalid ~param f () =
  match f () with
  | _ -> Alcotest.failf "accepted an invalid %s" param
  | exception Invalid_argument msg ->
    let mentions =
      let n = String.length param and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = param || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) (Fmt.str "%S names %s" msg param) true mentions

let alat_rejects_indivisible_size =
  expect_invalid ~param:"size" (fun () -> Alat.create ~size:32 ~ways:3 ())

let alat_rejects_ways_above_size =
  expect_invalid ~param:"size" (fun () -> Alat.create ~size:4 ~ways:8 ())

let alat_rejects_zero_ways = expect_invalid ~param:"ways" (fun () -> Alat.create ~ways:0 ())

let alat_rejects_zero_paddr_bits =
  expect_invalid ~param:"paddr_bits" (fun () -> Alat.create ~paddr_bits:0 ())

let alat_rejects_wide_paddr_bits =
  expect_invalid ~param:"paddr_bits" (fun () -> Alat.create ~paddr_bits:17 ())

let cache_rejects_odd_line =
  expect_invalid ~param:"line" (fun () -> Cache.level ~size_bytes:(48 * 64) ~ways:1 ~line:48)

let cache_rejects_odd_set_count =
  expect_invalid ~param:"set count" (fun () ->
      Cache.level ~size_bytes:(3 * 4 * 64) ~ways:4 ~line:64)

(* --- ALAT live counts against a naive reference ---

   The reference is the table without the per-partial-address live counts:
   every probe scans every entry.  Random scripts of every operation must
   get the same answer from both after every step — results, the order of
   returned site lists, and occupancy — so a live count that drifted
   (a store probe skipping a table that still holds a match) shows up as a
   missed invalidation. *)

module Ref_alat = struct
  type key = int * int * bool (* frame, register, float file *)

  type entry = {
    mutable valid : bool;
    mutable key : key;
    mutable paddr : int;
    mutable site : int;
  }

  type t = { es : entry array; ways : int; bits : int; mutable victim : int }

  let create ~size ~ways =
    { es = Array.init size (fun _ -> { valid = false; key = (0, 0, false); paddr = 0; site = -1 });
      ways; bits = 12; victim = 0 }

  let partial t a = (a lsr 3) land ((1 lsl t.bits) - 1)

  let remove t key = Array.iter (fun e -> if e.valid && e.key = key then e.valid <- false) t.es

  let insert t ~site key a =
    remove t key;
    let paddr = partial t a in
    let base = paddr mod (Array.length t.es / t.ways) * t.ways in
    let free = List.find_opt (fun i -> not t.es.(i).valid) (List.init t.ways (( + ) base)) in
    let slot, evicted =
      match free with
      | Some i -> (i, None)
      | None ->
        let i = base + (t.victim mod t.ways) in
        t.victim <- t.victim + 1;
        (i, Some t.es.(i).site)
    in
    let e = t.es.(slot) in
    e.valid <- true;
    e.key <- key;
    e.paddr <- paddr;
    e.site <- site;
    evicted

  let check t key ~clear =
    Array.fold_left
      (fun hit e ->
        if e.valid && e.key = key then begin
          if clear then e.valid <- false;
          true
        end
        else hit)
      false t.es

  let store_probe_sites t a =
    let paddr = partial t a in
    Array.fold_left
      (fun acc e ->
        if e.valid && e.paddr = paddr then begin
          e.valid <- false;
          e.site :: acc
        end
        else acc)
      [] t.es

  let purge_frame t frame =
    Array.iter (fun e -> let f, _, _ = e.key in if e.valid && f = frame then e.valid <- false) t.es

  let invala_all t = Array.iter (fun e -> e.valid <- false) t.es
  let occupancy t = Array.fold_left (fun n e -> if e.valid then n + 1 else n) 0 t.es
end

type alat_op =
  | Op_insert of Ref_alat.key * int * int
  | Op_check of Ref_alat.key * bool
  | Op_remove of Ref_alat.key
  | Op_probe of int
  | Op_purge of int
  | Op_invala

let pp_alat_op ppf = function
  | Op_insert ((f, r, fp), a, s) -> Fmt.pf ppf "insert(%d,%d,%b,0x%x,s%d)" f r fp a s
  | Op_check ((f, r, fp), c) -> Fmt.pf ppf "check(%d,%d,%b,clear=%b)" f r fp c
  | Op_remove (f, r, fp) -> Fmt.pf ppf "remove(%d,%d,%b)" f r fp
  | Op_probe a -> Fmt.pf ppf "probe(0x%x)" a
  | Op_purge f -> Fmt.pf ppf "purge(%d)" f
  | Op_invala -> Fmt.string ppf "invala"

(* Few frames, registers and addresses, so entries collide: the address
   pool has words 2^15 bytes apart, which share a 12-bit partial tag. *)
let gen_alat_script =
  let open QCheck.Gen in
  let key = triple (int_range 1 3) (int_range 0 5) bool in
  let addr =
    map2 (fun w j -> (8 * w) + (32768 * j)) (int_range 0 11) (int_range 0 2)
  in
  let op =
    frequency
      [ (6, map3 (fun k a s -> Op_insert (k, a, s)) key addr (int_range 0 99));
        (3, map2 (fun k c -> Op_check (k, c)) key bool);
        (1, map (fun k -> Op_remove k) key);
        (5, map (fun a -> Op_probe a) addr);
        (1, map (fun f -> Op_purge f) (int_range 1 3));
        (1, pure Op_invala) ]
  in
  list_size (int_range 1 200) op

let alat_live_count_agrees ?ways () =
  let prop script =
    let size = 32 in
    let real = Alat.create ~size ?ways () in
    let naive = Ref_alat.create ~size ~ways:(Option.value ways ~default:size) in
    let tag (f, r, fp) = if fp then Alat.fp_tag ~frame:f r else Alat.int_tag ~frame:f r in
    List.for_all
      (fun op ->
        let agree =
          match op with
          | Op_insert (k, a, site) ->
            Alat.insert ~site real (tag k) a = Ref_alat.insert naive ~site k a
          | Op_check (k, clear) -> Alat.check real (tag k) ~clear = Ref_alat.check naive k ~clear
          | Op_remove k ->
            Alat.remove real (tag k);
            Ref_alat.remove naive k;
            true
          | Op_probe a -> Alat.store_probe_sites real a = Ref_alat.store_probe_sites naive a
          | Op_purge f ->
            Alat.purge_frame real ~frame:f;
            Ref_alat.purge_frame naive f;
            true
          | Op_invala ->
            Alat.invala_all real;
            Ref_alat.invala_all naive;
            true
        in
        agree && Alat.occupancy real = Ref_alat.occupancy naive)
      script
  in
  QCheck.Test.make ~count:300
    ~name:
      (match ways with
      | None -> "alat live counts = naive scan (fully associative)"
      | Some w -> Fmt.str "alat live counts = naive scan (%d-way)" w)
    (QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_alat_op)) gen_alat_script)
    prop

(* --- cache tests --- *)

let test_cache_hit_miss () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  let lat1 = Cache.load_latency c ctr ~fp:false 0x4000 in
  Alcotest.(check bool) "cold miss is slow" true (lat1 > Model.lat_l1);
  let lat2 = Cache.load_latency c ctr ~fp:false 0x4000 in
  Alcotest.(check int) "warm hit is 2 cycles" Model.lat_l1 lat2;
  (* same line, different word: still a hit *)
  let lat3 = Cache.load_latency c ctr ~fp:false 0x4008 in
  Alcotest.(check int) "same line hits" Model.lat_l1 lat3

let test_cache_fp_latency () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  ignore (Cache.load_latency c ctr ~fp:true 0x8000);
  let lat = Cache.load_latency c ctr ~fp:true 0x8000 in
  Alcotest.(check int) "fp loads cost 9 cycles even when resident" Model.lat_fp lat

let test_cache_capacity () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  (* stream 1 MiB: must overflow 16 KiB L1 *)
  for i = 0 to 16_383 do
    ignore (Cache.load_latency c ctr ~fp:false (i * 64))
  done;
  let lat = Cache.load_latency c ctr ~fp:false 0x0 in
  Alcotest.(check bool) "evicted line misses L1" true (lat > Model.lat_l1)

(* --- RSE tests --- *)

let test_rse_no_overflow () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  Alcotest.(check int) "small frames free" 0 (Rse.call r c ~nregs:30);
  Alcotest.(check int) "still free" 0 (Rse.call r c ~nregs:30);
  Alcotest.(check int) "ret free" 0 (Rse.ret r c);
  Alcotest.(check int) "rse cycles zero" 0 c.Counters.rse_cycles

let test_rse_overflow_spill_fill () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  ignore (Rse.call r c ~nregs:60);
  let spill = Rse.call r c ~nregs:60 in
  Alcotest.(check int) "spills the overflow" 24 spill;
  Alcotest.(check int) "spilled regs counted" 24 c.Counters.rse_spilled_regs;
  let fill = Rse.ret r c in
  Alcotest.(check int) "fills the caller back" 24 fill;
  Alcotest.(check int) "rse cycles = spill + fill" 48 c.Counters.rse_cycles

let test_rse_deep_recursion () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  for _ = 1 to 10 do
    ignore (Rse.call r c ~nregs:20)
  done;
  Alcotest.(check bool) "deep stack spilled" true (c.Counters.rse_spilled_regs > 0);
  Alcotest.(check int) "max stacked peaks before spilling" 116 c.Counters.max_stacked_regs;
  for _ = 1 to 10 do
    ignore (Rse.ret r c)
  done;
  Alcotest.(check bool) "fills happened" true (c.Counters.rse_filled_regs > 0)

(* --- static branch prediction on br.cond ---

   The machine predicts by direction alone: a branch whose taken target
   sits at a lower address than the branch is predicted taken, any other
   is predicted not taken (machine.ml).  These hand-assembled programs pin
   each quadrant of that contract, plus the degenerate taken-to-next-pc
   case, so a layout change can't silently redefine what "mispredict"
   means. *)

module Insn = Srp_target.Insn

let raw_func ?(nfregs = 0) ?(frame_bytes = 0) name code ~nregs =
  { Insn.name; formals = []; code; bundles = None; nregs; nfregs;
    frame_bytes; slot_of_sym = Hashtbl.create 1 }

let raw_program fs =
  let funcs = Hashtbl.create 2 in
  List.iter (fun f -> Hashtbl.replace funcs f.Insn.name f) fs;
  { Insn.funcs; func_order = List.map (fun f -> f.Insn.name) fs; globals = [] }

let raw_main code ~nregs = raw_program [ raw_func "main" code ~nregs ]

let run_raw code ~nregs =
  let exit_code, _, c = Srp_machine.Machine.run_program (raw_main code ~nregs) in
  (exit_code, c)

let test_predict_taken_backward () =
  (* a 3-iteration countdown: the backward latch branch is predicted taken,
     so only the final not-taken exit mispredicts *)
  let code =
    [| Insn.Movl { dst = 1; imm = 3L };
       Insn.Alu { op = Insn.Asub; dst = 1; a = Insn.SReg 1; b = Insn.SImm 1L };
       Insn.Alu { op = Insn.Acmp_gt; dst = 2; a = Insn.SReg 1; b = Insn.SImm 0L };
       Insn.Brc { cond = 2; ifso = 1; ifnot = 4; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:3 in
  Alcotest.(check int64) "exits through ifnot" 0L exit_code;
  Alcotest.(check int) "only the loop exit mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_taken_forward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Brc { cond = 1; ifso = 3; ifnot = 2; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 1L) };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "takes the branch" 0L exit_code;
  Alcotest.(check int) "taken forward branch mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_not_taken_forward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 0L };
       Insn.Brc { cond = 1; ifso = 3; ifnot = 2; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) };
       Insn.Ret { value = Some (Insn.SImm 1L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "falls through" 0L exit_code;
  Alcotest.(check int) "not-taken forward branch predicted" 0
    c.Counters.branch_mispredicts

let test_predict_not_taken_backward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 0L };
       Insn.Nop;
       Insn.Brc { cond = 1; ifso = 1; ifnot = 3; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "falls through" 0L exit_code;
  Alcotest.(check int) "not-taken backward branch mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_taken_to_next_pc () =
  (* ifso = pc + 1: still a *forward* taken branch by direction, so it
     mispredicts — the predictor keys on direction, not on whether the
     target happens to be the fall-through address *)
  let code =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Brc { cond = 1; ifso = 2; ifnot = 3; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) };
       Insn.Ret { value = Some (Insn.SImm 1L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "lands on next pc" 0L exit_code;
  Alcotest.(check int) "taken-to-next-pc still mispredicts" 1
    c.Counters.branch_mispredicts

(* --- the machine's ALU against the interpreter's ---

   Every integer, float and float-compare op, on edge operands, run as a
   one-instruction program whose operands come from registers or
   immediates.  Its result must carry the bits [Value.binop] gives; a
   float result is moved to an integer register and printed as an
   integer, so no decimal rounding can hide a difference.  An op that
   raises must raise the interpreter's error text. *)

module Value = Srp_profile.Value
module Ops = Srp_ir.Ops

let ialu_ops =
  Insn.
    [ (Aadd, Ops.Add); (Asub, Ops.Sub); (Amul, Ops.Mul); (Adiv, Ops.Div); (Arem, Ops.Rem);
      (Aand, Ops.And); (Aor, Ops.Or); (Axor, Ops.Xor); (Ashl, Ops.Shl); (Ashr, Ops.Shr);
      (Acmp_eq, Ops.Eq); (Acmp_ne, Ops.Ne); (Acmp_lt, Ops.Lt); (Acmp_le, Ops.Le);
      (Acmp_gt, Ops.Gt); (Acmp_ge, Ops.Ge) ]

let falu_ops = Insn.[ (FAadd, Ops.FAdd); (FAsub, Ops.FSub); (FAmul, Ops.FMul); (FAdiv, Ops.FDiv) ]

let fcmp_ops =
  Insn.
    [ (FCeq, Ops.FEq); (FCne, Ops.FNe); (FClt, Ops.FLt); (FCle, Ops.FLe); (FCgt, Ops.FGt);
      (FCge, Ops.FGe) ]

let edge_ints =
  [ 0L; 1L; -1L; 2L; 7L; -7L; 63L; 64L; 65L; 127L; -64L; Int64.min_int; Int64.max_int;
    0x5555_5555_5555_5555L ]

let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 0.1; 3.0; Float.nan; Float.infinity; Float.neg_infinity;
    Float.max_float; Float.min_float; 5e-324 ]

(* exit text: the printed line, or the interpreter's error *)
let run_printing code ~nregs ~nfregs =
  match Srp_machine.Machine.run_program (raw_program [ raw_func ~nfregs "main" code ~nregs ]) with
  | _, out, _ -> Ok out
  | exception Value.Interp_error msg -> Error msg

let expect_value f =
  match f () with v -> Ok v | exception Value.Interp_error msg -> Error msg

let int_line v = Fmt.str "%Ld\n" (Value.to_int v)
let bits_line v = Fmt.str "%Ld\n" (Int64.bits_of_float (Value.to_flt v))

let outcome = Alcotest.(result string string)

(* operand [k] of a two-operand op: register [k + 1] loaded beforehand,
   or the immediate itself *)
let int_operand ~imm k x = if imm then ([], Insn.SImm x) else ([ Insn.Movl { dst = k + 1; imm = x } ], Insn.SReg (k + 1))

let flt_operand ~imm k x =
  if imm then ([], Insn.SFim x)
  else ([ Insn.Mov { dst = Insn.DFlt (k + 1); src = Insn.SFim x } ], Insn.SFrg (k + 1))

let alu_case (op, irop) (x, y) (imm_a, imm_b) =
  let pa, a = int_operand ~imm:imm_a 0 x and pb, b = int_operand ~imm:imm_b 1 y in
  let code =
    Array.of_list
      (pa @ pb
      @ [ Insn.Alu { op; dst = 3; a; b }; Insn.Print { what = Insn.SReg 3; as_float = false };
          Insn.Ret { value = None } ])
  in
  run_printing code ~nregs:4 ~nfregs:1
  = expect_value (fun () -> int_line (Value.binop irop (Value.Vint x) (Value.Vint y)))

let falu_case (op, irop) (x, y) (imm_a, imm_b) =
  let pa, a = flt_operand ~imm:imm_a 0 x and pb, b = flt_operand ~imm:imm_b 1 y in
  let code =
    Array.of_list
      (pa @ pb
      @ [ Insn.Falu { op; dst = 3; a; b }; Insn.Mov { dst = Insn.DInt 1; src = Insn.SFrg 3 };
          Insn.Print { what = Insn.SReg 1; as_float = false }; Insn.Ret { value = None } ])
  in
  run_printing code ~nregs:2 ~nfregs:4
  = expect_value (fun () -> bits_line (Value.binop irop (Value.Vflt x) (Value.Vflt y)))

let fcmp_case (op, irop) (x, y) (imm_a, imm_b) =
  let pa, a = flt_operand ~imm:imm_a 0 x and pb, b = flt_operand ~imm:imm_b 1 y in
  let code =
    Array.of_list
      (pa @ pb
      @ [ Insn.Fcmp { op; dst = 1; a; b }; Insn.Print { what = Insn.SReg 1; as_float = false };
          Insn.Ret { value = None } ])
  in
  run_printing code ~nregs:2 ~nfregs:3
  = expect_value (fun () -> int_line (Value.binop irop (Value.Vflt x) (Value.Vflt y)))

let alu_differential =
  let open QCheck in
  let operands edges = Gen.(pair (oneofl edges) (oneofl edges)) in
  let forms = Gen.(pair bool bool) in
  let arb name ops edges pp =
    make
      ~print:(fun (i, (x, y), (ia, ib)) ->
        Fmt.str "%s #%d (%a, %a) imm=(%b, %b)" name i pp x pp y ia ib)
      Gen.(triple (int_bound (List.length ops - 1)) (operands edges) forms)
  in
  let pp_i ppf = Fmt.pf ppf "%Ld" and pp_f ppf = Fmt.pf ppf "%h" in
  [ Test.make ~count:1000 ~name:"ialu = Value.binop on edge operands"
      (arb "ialu" ialu_ops edge_ints pp_i)
      (fun (i, xy, forms) -> alu_case (List.nth ialu_ops i) xy forms);
    Test.make ~count:500 ~name:"falu = Value.binop on edge operands (bits)"
      (arb "falu" falu_ops edge_floats pp_f)
      (fun (i, xy, forms) -> falu_case (List.nth falu_ops i) xy forms);
    Test.make ~count:500 ~name:"fcmp = Value.binop on edge operands"
      (arb "fcmp" fcmp_ops edge_floats pp_f)
      (fun (i, xy, forms) -> fcmp_case (List.nth fcmp_ops i) xy forms) ]

(* Operands of the wrong register file and division by zero raise the
   interpreter's own errors, word for word; a NaT read is the machine's. *)
let test_operand_kind_errors () =
  let ret = Insn.Ret { value = None } in
  let fails name expected code =
    Alcotest.check outcome name (Error expected) (run_printing code ~nregs:3 ~nfregs:2)
  in
  fails "falu with an integer register" "expected float, got int 5"
    [| Insn.Movl { dst = 1; imm = 5L };
       Insn.Falu { op = Insn.FAadd; dst = 0; a = Insn.SReg 1; b = Insn.SFim 1.0 };
       ret |];
  fails "alu with a float register" "expected int, got float 2.5"
    [| Insn.Mov { dst = Insn.DFlt 1; src = Insn.SFim 2.5 };
       Insn.Alu { op = Insn.Aadd; dst = 1; a = Insn.SFrg 1; b = Insn.SImm 1L };
       ret |];
  fails "print_float of an integer register" "expected float, got int 7"
    [| Insn.Movl { dst = 1; imm = 7L }; Insn.Print { what = Insn.SReg 1; as_float = true }; ret |];
  fails "print_int of a float register" "expected int, got float 0.5"
    [| Insn.Mov { dst = Insn.DFlt 1; src = Insn.SFim 0.5 };
       Insn.Print { what = Insn.SFrg 1; as_float = false }; ret |];
  fails "division by zero" "integer division by zero"
    [| Insn.Movl { dst = 1; imm = 0L };
       Insn.Alu { op = Insn.Adiv; dst = 2; a = Insn.SImm 9L; b = Insn.SReg 1 };
       ret |];
  fails "remainder by zero" "integer remainder by zero"
    [| Insn.Alu { op = Insn.Arem; dst = 2; a = Insn.SImm 9L; b = Insn.SImm 0L }; ret |];
  (* ld.sa from an address no region holds defers into the NaT bit *)
  let nat_read =
    [| Insn.Movl { dst = 1; imm = 8L };
       Insn.Ld { kind = Insn.K_ld_sa; dst = Insn.DInt 2; base = 1; site = 1 };
       Insn.Alu { op = Insn.Aadd; dst = 1; a = Insn.SReg 2; b = Insn.SImm 1L };
       ret |]
  in
  match run_printing nat_read ~nregs:3 ~nfregs:1 with
  | _ -> Alcotest.fail "a NaT read did not fault"
  | exception Srp_machine.Machine.Machine_error msg ->
    Alcotest.(check string) "NaT read" "read of NaT integer register r2" msg

(* An address register holding an int64 that no native int holds is in no
   region.  A plain load or store faults with the interpreter's text,
   printed from the full int64; ld.sa defers the fault into a NaT and drops
   the register's ALAT entry, so the ld.c after it misses and reloads
   instead of validating the entry the earlier ld.a armed. *)
let test_wild_int64_address () =
  let wild = 0x7fff_ffff_ffff_fff8L in
  let ret = Insn.Ret { value = None } in
  let fails name code =
    Alcotest.check outcome name (Error "wild access at 0x7ffffffffffffff8")
      (run_printing code ~nregs:3 ~nfregs:1)
  in
  fails "ld"
    [| Insn.Movl { dst = 1; imm = wild };
       Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt 2; base = 1; site = 1 };
       ret |];
  fails "st"
    [| Insn.Movl { dst = 1; imm = wild };
       Insn.St { src = Insn.SImm 1L; base = 1; site = 1 };
       ret |];
  let code =
    [| Insn.St { src = Insn.SImm 42L; base = Insn.sp; site = 1 };
       Insn.Ld { kind = Insn.K_ld_a; dst = Insn.DInt 2; base = Insn.sp; site = 2 };
       Insn.Movl { dst = 1; imm = wild };
       Insn.Ld { kind = Insn.K_ld_sa; dst = Insn.DInt 2; base = 1; site = 3 };
       Insn.Ld { kind = Insn.K_ld_c { clear = false }; dst = Insn.DInt 2; base = Insn.sp; site = 4 };
       Insn.Print { what = Insn.SReg 2; as_float = false };
       ret |]
  in
  let run code =
    let main = raw_func ~frame_bytes:8 "main" code ~nregs:3 in
    let _, out, c = Srp_machine.Machine.run_program (raw_program [ main ]) in
    (out, c.Counters.check_failures)
  in
  Alcotest.(check (pair string int)) "ld.c after the deferred fault misses and reloads"
    ("42\n", 1) (run code);
  (* an ld.c that hits touches no memory, whatever address it names *)
  Alcotest.(check (pair string int)) "ld.c hit at a wild address" ("42\n", 0)
    (run
       [| code.(0); code.(1); code.(2);
          Insn.Ld { kind = Insn.K_ld_c { clear = false }; dst = Insn.DInt 2; base = 1; site = 4 };
          code.(5); ret |])

(* --- measured charges ---

   Small hand-assembled programs that each isolate one charge, pinned to
   Srp_ir.Machine_model: a private copy of a latency, penalty or RSE rate
   that disagreed with the model (in the machine or in the promoter's
   pricing) fails here. *)

(* A load of a line the preceding store just brought in hits; its
   consumer opens the next issue group and stalls for the rest of the
   load latency, all of it data access. *)
let load_use_stall ~fp =
  let dst, use =
    if fp then
      ( Insn.DFlt 0,
        Insn.Falu { op = Insn.FAadd; dst = 1; a = Insn.SFrg 0; b = Insn.SFrg 0 } )
    else
      ( Insn.DInt 1,
        Insn.Alu { op = Insn.Aadd; dst = 2; a = Insn.SReg 1; b = Insn.SReg 1 } )
  in
  let code =
    [| Insn.St { src = Insn.SImm 0L; base = Insn.sp; site = 1 };
       Insn.Ld { kind = Insn.K_ld; dst; base = Insn.sp; site = 2 };
       use;
       Insn.Ret { value = None } |]
  in
  let main = raw_func ~nfregs:2 ~frame_bytes:8 "main" code ~nregs:3 in
  let _, _, c = Srp_machine.Machine.run_program (raw_program [ main ]) in
  c.Counters.data_access_cycles

let test_charge_load_latency () =
  Alcotest.(check int) "integer L1 hit ready after lat_l1"
    (Model.lat_l1 - 1) (load_use_stall ~fp:false);
  Alcotest.(check int) "fp load ready after lat_fp" (Model.lat_fp - 1)
    (load_use_stall ~fp:true)

(* A chk.a whose entry a store killed, against the same program with an
   unconditional branch into the recovery code in its place: both run the
   same reload, so the difference is the recovery penalty alone. *)
let test_charge_check_recovery () =
  let run at3 =
    let code =
      [| Insn.St { src = Insn.SImm 0L; base = Insn.sp; site = 1 };
         Insn.Ld { kind = Insn.K_ld_a; dst = Insn.DInt 1; base = Insn.sp; site = 2 };
         Insn.St { src = Insn.SImm 5L; base = Insn.sp; site = 3 };
         at3;
         Insn.Ret { value = Some (Insn.SReg 1) };
         Insn.Ld { kind = Insn.K_ld; dst = Insn.DInt 1; base = Insn.sp; site = 2 };
         Insn.Br { target = 4 } |]
    in
    let main = raw_func ~frame_bytes:8 "main" code ~nregs:2 in
    let exit_code, _, c = Srp_machine.Machine.run_program (raw_program [ main ]) in
    Alcotest.(check int64) "recovery reloads the stored value" 5L exit_code;
    c
  in
  let failed = run (Insn.Chk_a { tag = Insn.DInt 1; recovery = 5; site = 2 }) in
  let branched = run (Insn.Br { target = 5 }) in
  Alcotest.(check int) "the check failed" 1 failed.Counters.check_failures;
  Alcotest.(check int) "failure costs check_recovery_penalty on top"
    Model.check_recovery_penalty
    (failed.Counters.cycles - branched.Counters.cycles)

(* main fills the RSE pool and calls a k-register leaf: the call spills k
   registers and the return fills them back. *)
let test_charge_rse_overflow () =
  let k = 5 in
  let run ~main_regs =
    let main =
      raw_func "main"
        [| Insn.Call { callee = "leaf"; args = []; ret = None };
           Insn.Ret { value = None } |]
        ~nregs:main_regs
    in
    let leaf = raw_func "leaf" [| Insn.Ret { value = None } |] ~nregs:k in
    let _, _, c = Srp_machine.Machine.run_program (raw_program [ main; leaf ]) in
    c
  in
  let over = run ~main_regs:Model.rse_pool in
  let fits = run ~main_regs:(Model.rse_pool - k) in
  let charge = 2 * k * Model.rse_cycles_per_reg in
  Alcotest.(check int) "k registers out" k over.Counters.rse_spilled_regs;
  Alcotest.(check int) "k registers back" k over.Counters.rse_filled_regs;
  Alcotest.(check int) "rse cycles" charge over.Counters.rse_cycles;
  Alcotest.(check int) "no traffic within the pool" 0 fits.Counters.rse_cycles;
  Alcotest.(check int) "overflow costs one cycle per register each way"
    charge
    (over.Counters.cycles - fits.Counters.cycles)

(* The promoter's ledger for the direct candidate on the global g in
   [src]'s main, in the contexts [Promote.run] builds under [config]
   (whose profile, if any, supplies the block counts and, at alat, a
   probability gate at the default threshold of 1). *)
let global_g prog =
  fst
    (List.find
       (fun (s, _) -> Srp_ir.Symbol.name s = "g")
       (Srp_ir.Program.globals prog))

let assess_g ~config src =
  let prog = Srp_frontend.Lower.compile_source src in
  let f = Srp_ir.Program.find_func prog "main" in
  let ctx, collect = Srp_core.Promote.contexts config prog f in
  let is_g (k : Srp_core.Expr.key) =
    match k.Srp_core.Expr.base with
    | Ops.Sym s -> Srp_ir.Symbol.name s = "g"
    | Ops.Reg _ -> false
  in
  match List.filter is_g (Srp_core.Expr.candidates ~indirect:false f) with
  | [ key ] -> fst (Srp_core.Ssapre.assess ctx collect f key)
  | keys -> Alcotest.failf "expected one candidate on g, got %d" (List.length keys)

(* The promoter's benefit side: g + g has one redundant integer load,
   weight 1 without a profile, credited with the machine's L1 hit. *)
let test_charge_assess_l1 () =
  let a =
    assess_g ~config:Srp_core.Config.conservative
      "int g; int main() { print_int(g + g); return 0; }"
  in
  Alcotest.(check int) "one eliminated use" 1 a.Srp_core.Ssapre.as_occ;
  Alcotest.(check int) "credited lat_l1" Model.lat_l1 (Srp_core.Ssapre.net a)

(* The promoter's bill side.  In one straight-line block of weight [w],
   g is loaded, a store through p (which may point at g or h) runs, and g
   is loaded again: one redundant use, one speculated kill.  The profile
   says the store touches g on [hits] of its [execs] executions, so
   P = hits / execs, and the ledger must bill
   ceil(w x (check_issue_cost + P x lat_l1)) against the w x lat_l1 the
   reload saves.  The verdict declines exactly when the bill eats the
   saving, and the committed promotion follows the verdict: one ld.c
   check when accepted, none when declined. *)
let test_charge_assess_check () =
  let src =
    "int g; int h; int *p;
     int main() { int x; p = &g; p = &h; x = g; *p = 1; x = x + g;
    \  print_int(x); return 0; }"
  in
  let w = 10 and execs = 8 in
  let profile hits =
    let prog = Srp_frontend.Lower.compile_source src in
    let f = Srp_ir.Program.find_func prog "main" in
    let p = Srp_profile.Alias_profile.create () in
    List.iter
      (fun b ->
        Srp_profile.Alias_profile.add_block_count p ~func:"main"
          ~label_id:(Srp_ir.Label.id b.Srp_ir.Block.label) w)
      (Srp_ir.Func.blocks f);
    Srp_ir.Func.iter_instrs
      (fun _ ins ->
        match ins with
        | Srp_ir.Instr.Store { addr = { Ops.base = Ops.Reg _; _ }; site; _ } ->
          let g = global_g prog in
          Srp_profile.Alias_profile.add_count p site execs;
          Srp_profile.Alias_profile.add_hits p site (Srp_alias.Location.Sym g) hits
        | _ -> ())
      f;
    p
  in
  let verdicts =
    List.init (execs + 1) (fun hits ->
        let profile = profile hits in
        let config = Srp_core.Config.alat ~profile in
        let a = assess_g ~config src in
        let prob = float_of_int hits /. float_of_int execs in
        let bill =
          int_of_float
            (Float.ceil
               (float_of_int w
               *. (Model.check_issue_cost +. (prob *. float_of_int Model.lat_l1))))
        in
        let tag = Fmt.str "P = %d/%d: %s" hits execs in
        Alcotest.(check int) (tag "saved") (w * Model.lat_l1) a.Srp_core.Ssapre.as_saved;
        Alcotest.(check int) (tag "bill") bill a.Srp_core.Ssapre.as_bill;
        let accept = (w * Model.lat_l1) - bill > 0 in
        Alcotest.(check bool) (tag "verdict") accept (Srp_core.Promote.accepts a);
        let prog = Srp_frontend.Lower.compile_source src in
        let r = Srp_core.Promote.run ~config prog in
        Alcotest.(check int) (tag "committed checks")
          (if accept then 1 else 0)
          r.Srp_core.Promote.stats.Srp_core.Ssapre.checks_inserted;
        accept)
  in
  Alcotest.(check (list bool)) "accepts up to P = 6/8, declines from 7/8"
    (List.init (execs + 1) (fun hits -> hits < 7))
    verdicts;
  (* A cascade chk.a failure also pays the recovery flush. *)
  let cell =
    { Ops.base = Ops.Sym (global_g (Srp_frontend.Lower.compile_source src));
      offset = 0 }
  in
  Alcotest.(check (float 0.0)) "cascade check price"
    (Model.check_issue_cost
    +. (0.25 *. float_of_int (Model.check_recovery_penalty + Model.lat_l1)))
    (Srp_core.Ssapre.check_price ~lat:Model.lat_l1 (0, 0, None, Some cell, 0.25))

(* The cascade kill's price.  Round 1 promotes the pointer p across the
   store through pp, which the profile says repoints p on [hits] of its
   [execs] executions, and plants a check of p after it.  In round 2 the
   candidate *p crosses that check (paper section 2.4): a cascade kill,
   priced at the largest conflict probability among the speculative
   kills of p's own cell, P = hits / execs.  A failed chk.a also pays
   check_recovery_penalty, so the ledger must bill
   ceil(w x (check_issue_cost + P x (check_recovery_penalty + lat_l1)))
   per cascade check of block weight w, and the committed chk.a follows
   the verdict. *)
let test_charge_assess_cascade () =
  let src =
    "int a; int b; int *p; int **pp; int *r; int sel; int sum;
     int main() { int i; p = &a; a = 100;
    \  if (sel == 5) { pp = &p; } else { pp = &r; }
    \  for (i = 0; i < 40; i = i + 1) { sum = sum + *p; *pp = &b; sum = sum + *p; }
    \  print_int(sum); return 0; }"
  in
  let execs = 40 in
  let config hits =
    let prog = Srp_frontend.Lower.compile_source src in
    let _, _, profile = Srp_profile.Interp.run_program prog in
    let p_sym =
      fst
        (List.find
           (fun (s, _) -> Srp_ir.Symbol.name s = "p")
           (Srp_ir.Program.globals prog))
    in
    Srp_ir.Func.iter_instrs
      (fun _ ins ->
        match ins with
        | Srp_ir.Instr.Store { addr = { Ops.base = Ops.Reg _; _ }; site; _ } ->
          Alcotest.(check int) "store executions" execs
            (Srp_profile.Alias_profile.count profile site);
          Srp_profile.Alias_profile.add_hits profile site
            (Srp_alias.Location.Sym p_sym) hits
        | _ -> ())
      (Srp_ir.Program.find_func prog "main");
    Srp_core.Config.alat_cascade ~profile
  in
  let verdicts =
    List.init 13 (fun hits ->
        let config = config hits in
        let prog = Srp_frontend.Lower.compile_source src in
        ignore
          (Srp_core.Promote.run
             ~config:{ config with Srp_core.Config.max_rounds = 1 } prog);
        let f = Srp_ir.Program.find_func prog "main" in
        let ctx, collect = Srp_core.Promote.contexts config prog f in
        let cascade_probs (form : Srp_core.Ssapre.prepared) =
          Array.to_list form.Srp_core.Ssapre.p_a.Srp_core.Ssapre.events
          |> List.concat_map
               (List.filter_map (function
                 | Srp_core.Expr.Kill { cascade = Some _; prob; _ } -> Some prob
                 | _ -> None))
        in
        let tag = Fmt.str "P = %d/%d: %s" hits execs in
        match
          List.filter_map
            (fun key ->
              let a, form = Srp_core.Ssapre.assess ctx collect f key in
              match cascade_probs form with [] -> None | ps -> Some (a, ps))
            (Srp_core.Expr.candidates ~indirect:true f)
        with
        | [ (a, [ prob ]) ] ->
          let p = float_of_int hits /. float_of_int execs in
          Alcotest.(check (float 1e-12)) (tag "cascade kill probability") p prob;
          let bill =
            int_of_float
              (Float.ceil
                 (float_of_int execs
                 *. (Model.check_issue_cost
                    +. (p *. float_of_int (Model.check_recovery_penalty + Model.lat_l1)))))
          in
          Alcotest.(check int) (tag "bill") bill a.Srp_core.Ssapre.as_bill;
          let accept = a.Srp_core.Ssapre.as_saved - bill > 0 in
          Alcotest.(check bool) (tag "verdict") accept (Srp_core.Promote.accepts a);
          let r =
            Srp_core.Promote.run ~config (Srp_frontend.Lower.compile_source src)
          in
          Alcotest.(check int) (tag "committed chk.a")
            (if accept then 1 else 0)
            r.Srp_core.Promote.stats.Srp_core.Ssapre.chk_a_inserted;
          accept
        | l -> Alcotest.failf "%s" (tag (Fmt.str "%d cascade candidates" (List.length l))))
  in
  Alcotest.(check (list bool)) "accepts up to P = 8/40, declines from 9/40"
    (List.init 13 (fun hits -> hits < 9))
    verdicts

(* --- machine vs interpreter differential on hand-written programs --- *)

let differential src =
  let ref_prog = Srp_frontend.Lower.compile_source src in
  let code_i, out_i, _ = Srp_profile.Interp.run_program ref_prog in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  let code_m, out_m, _ = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "stdout agrees" out_i out_m;
  Alcotest.(check int64) "exit code agrees" code_i code_m

let test_machine_arith () =
  differential {|
int main() {
  print_int(7 / 2); print_int(-7 / 2); print_int(7 % 3); print_int(-7 % 3);
  print_int(1 << 10); print_int(-16 >> 2);
  print_int(5 & 3); print_int(5 | 3); print_int(5 ^ 3); print_int(~5);
  print_float(1.0 / 3.0); print_float(0.1 + 0.2);
  print_int(3.9);
  print_float(3);
  return 0;
}
|}

let test_machine_control () =
  differential {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
    if (i == 7) { break; }
  }
  while (s > 0) { s = s - 3; }
  do { s = s + 1; } while (s < 2);
  print_int(s);
  return s;
}
|}

let test_machine_heap_structs () =
  differential {|
struct node { int v; double w; struct node* next; };
int main() {
  struct node* head = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    struct node* n = malloc(24);
    n->v = i * 3;
    n->w = i * 0.5;
    n->next = head;
    head = n;
  }
  int s = 0; double t = 0.0;
  while (head != 0) { s += head->v; t = t + head->w; head = head->next; }
  print_int(s); print_float(t);
  return 0;
}
|}

let test_machine_functions () =
  differential {|
int square(int x) { return x * x; }
double mix(double a, int b) { return a * b + 0.5; }
int rec(int n) { if (n <= 1) { return 1; } return n * rec(n - 1); }
int main() {
  print_int(square(12));
  print_float(mix(1.5, 4));
  print_int(rec(10));
  return 0;
}
|}

let test_machine_zero_init () =
  differential {|
int arr[4];
double darr[4];
int g;
int main() {
  print_int(arr[2]); print_float(darr[1]); print_int(g);
  return 0;
}
|}

(* A negative malloc size is the same error on both sides, also one that
   is negative only as an int64: (1 << 63) + 8 would narrow to 8. *)
let test_malloc_negative () =
  List.iter
    (fun size ->
      let src =
        Fmt.str "int main() { int* p = malloc(%s); *p = 5; print_int(*p); return 0; }" size
      in
      let error f = match f () with _ -> None | exception Value.Interp_error e -> Some e in
      let prog () = Srp_frontend.Lower.compile_source src in
      Alcotest.(check (option string)) ("interpreter " ^ size) (Some "malloc of negative size")
        (error (fun () -> Srp_profile.Interp.run_program (prog ())));
      Alcotest.(check (option string)) ("machine " ^ size) (Some "malloc of negative size")
        (error (fun () ->
             Srp_machine.Machine.run_program (Srp_target.Codegen.gen_program (prog ())))))
    [ "0 - 8"; "(1 << 63) + 8" ]

let test_counters_sane () =
  let src = {|
int g;
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { g = g + i; }
  print_int(g);
  return 0;
}
|} in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, _, c = Srp_machine.Machine.run_program tgt in
  Alcotest.(check bool) "cycles positive" true (c.Counters.cycles > 0);
  Alcotest.(check bool) "instrs >= loads + stores" true
    (c.Counters.instrs_retired >= c.Counters.loads_retired + c.Counters.stores_retired);
  Alcotest.(check bool) "ipc bounded by width" true
    (c.Counters.cycles * Model.issue_width >= c.Counters.instrs_retired)

let test_machine_fuel () =
  let src = "int main() { while (1) { } return 0; }" in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  Alcotest.check_raises "runs out of fuel" Srp_machine.Machine.Out_of_fuel (fun () ->
      ignore (Srp_machine.Machine.run_program ~fuel:10_000 tgt))

let suite =
  [ Alcotest.test_case "alat arm/check/clear" `Quick test_alat_arm_check;
    Alcotest.test_case "alat store invalidation" `Quick test_alat_store_invalidation;
    Alcotest.test_case "alat partial-tag collisions" `Quick test_alat_partial_tag_false_collision;
    Alcotest.test_case "alat keyed by register" `Quick test_alat_register_keyed;
    Alcotest.test_case "alat frame isolation + purge" `Quick test_alat_frames_isolated;
    Alcotest.test_case "alat capacity eviction" `Quick test_alat_capacity_eviction;
    Alcotest.test_case "alat fp/int tags distinct" `Quick test_alat_fp_tags_distinct;
    Alcotest.test_case "alat invala_all" `Quick test_alat_invala_all;
    Alcotest.test_case "alat rejects size not divisible by ways" `Quick
      alat_rejects_indivisible_size;
    Alcotest.test_case "alat rejects ways above size" `Quick alat_rejects_ways_above_size;
    Alcotest.test_case "alat rejects zero ways" `Quick alat_rejects_zero_ways;
    Alcotest.test_case "alat rejects zero paddr_bits" `Quick alat_rejects_zero_paddr_bits;
    Alcotest.test_case "alat rejects paddr_bits above 16" `Quick alat_rejects_wide_paddr_bits;
    Alcotest.test_case "cache rejects a non-power-of-two line" `Quick cache_rejects_odd_line;
    Alcotest.test_case "cache rejects a non-power-of-two set count" `Quick
      cache_rejects_odd_set_count;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache fp latency" `Quick test_cache_fp_latency;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "rse no overflow" `Quick test_rse_no_overflow;
    Alcotest.test_case "rse spill/fill" `Quick test_rse_overflow_spill_fill;
    Alcotest.test_case "rse deep recursion" `Quick test_rse_deep_recursion;
    Alcotest.test_case "predict taken backward" `Quick test_predict_taken_backward;
    Alcotest.test_case "predict taken forward" `Quick test_predict_taken_forward;
    Alcotest.test_case "predict not-taken forward" `Quick test_predict_not_taken_forward;
    Alcotest.test_case "predict not-taken backward" `Quick test_predict_not_taken_backward;
    Alcotest.test_case "predict taken to next pc" `Quick test_predict_taken_to_next_pc;
    Alcotest.test_case "charge: load latency" `Quick test_charge_load_latency;
    Alcotest.test_case "charge: chk.a recovery" `Quick test_charge_check_recovery;
    Alcotest.test_case "charge: rse overflow" `Quick test_charge_rse_overflow;
    Alcotest.test_case "charge: promoter prices lat_l1" `Quick test_charge_assess_l1;
    Alcotest.test_case "charge: promoter prices a check" `Quick test_charge_assess_check;
    Alcotest.test_case "charge: promoter prices a cascade check" `Quick
      test_charge_assess_cascade;
    Alcotest.test_case "machine arith (vs interp)" `Quick test_machine_arith;
    Alcotest.test_case "machine control flow (vs interp)" `Quick test_machine_control;
    Alcotest.test_case "machine heap/structs (vs interp)" `Quick test_machine_heap_structs;
    Alcotest.test_case "machine functions (vs interp)" `Quick test_machine_functions;
    Alcotest.test_case "machine zero-init (vs interp)" `Quick test_machine_zero_init;
    Alcotest.test_case "counters sane" `Quick test_counters_sane;
    Alcotest.test_case "fuel exhaustion" `Quick test_machine_fuel;
    Alcotest.test_case "operand kind and division errors" `Quick test_operand_kind_errors;
    Alcotest.test_case "wild int64 address" `Quick test_wild_int64_address;
    Alcotest.test_case "malloc of negative size (vs interp)" `Quick test_malloc_negative ]
  @ List.map QCheck_alcotest.to_alcotest
      ([ alat_live_count_agrees (); alat_live_count_agrees ~ways:2 () ] @ alu_differential)
