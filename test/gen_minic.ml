(* Random MiniC program generator for differential testing.

   The generated programs are deterministic (no input), terminate (all
   loops are counted), never fault (indices come from loop counters modulo
   array sizes; pointers are always initialized to valid objects before
   any dereference), and print a checksum trail so two executions can be
   compared bit-for-bit.

   The shapes are chosen to stress the promotion machinery: scalar globals
   with their addresses escaping into pointers, stores through ambiguous
   pointers between re-reads, nested control flow, helper calls, and a
   closing stretch of pointer-to-pointer loads and stores and pointer
   arguments. *)

module Rng = Srp_support.Rng

type ctx = {
  rng : Rng.t;
  buf : Buffer.t;
  mutable indent : int;
  mutable loop_counters : string list; (* in-scope counted loop variables *)
  mutable depth : int;
  n_scalars : int;
  n_fscalars : int;
  n_arrays : int;
  n_ptrs : int;
  n_helpers : int;
}

let line ctx fmt =
  Buffer.add_string ctx.buf (String.make (ctx.indent * 2) ' ');
  Fmt.kstr
    (fun s ->
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let scalar ctx = Fmt.str "g%d" (Rng.int ctx.rng ctx.n_scalars)
let fscalar ctx = Fmt.str "f%d" (Rng.int ctx.rng ctx.n_fscalars)
let array_name ctx = Fmt.str "arr%d" (Rng.int ctx.rng ctx.n_arrays)
let ptr ctx = Fmt.str "p%d" (Rng.int ctx.rng ctx.n_ptrs)

let array_size = 16

(* An in-bounds index expression. *)
let index ctx =
  match ctx.loop_counters with
  | [] -> string_of_int (Rng.int ctx.rng array_size)
  | cs ->
    let c = List.nth cs (Rng.int ctx.rng (List.length cs)) in
    (match Rng.int ctx.rng 3 with
    | 0 -> Fmt.str "%s %% %d" c array_size
    | 1 -> Fmt.str "(%s + %d) %% %d" c (Rng.int ctx.rng 7) array_size
    | _ -> string_of_int (Rng.int ctx.rng array_size))

(* An integer expression of bounded depth.  Division only by non-zero
   constants; everything else is total. *)
let rec expr ctx depth =
  if depth <= 0 then atom ctx
  else
    match Rng.int ctx.rng 8 with
    | 0 -> Fmt.str "(%s + %s)" (expr ctx (depth - 1)) (expr ctx (depth - 1))
    | 1 -> Fmt.str "(%s - %s)" (expr ctx (depth - 1)) (expr ctx (depth - 1))
    | 2 -> Fmt.str "(%s * %s)" (atom ctx) (atom ctx)
    | 3 -> Fmt.str "(%s / %d)" (expr ctx (depth - 1)) (1 + Rng.int ctx.rng 9)
    | 4 -> Fmt.str "(%s %% %d)" (expr ctx (depth - 1)) (1 + Rng.int ctx.rng 9)
    | 5 -> Fmt.str "(%s ^ %s)" (atom ctx) (atom ctx)
    | 6 ->
      Fmt.str "(%s %s %s)" (expr ctx (depth - 1))
        (Rng.pick ctx.rng [| "<"; "<="; "=="; "!="; ">"; ">=" |])
        (expr ctx (depth - 1))
    | _ -> atom ctx

and atom ctx =
  match Rng.int ctx.rng 6 with
  | 0 -> string_of_int (Rng.int ctx.rng 100 - 50)
  | 1 -> scalar ctx
  | 2 -> Fmt.str "%s[%s]" (array_name ctx) (index ctx)
  | 3 -> Fmt.str "*%s" (ptr ctx)
  | 4 -> ( match ctx.loop_counters with [] -> scalar ctx | c :: _ -> c)
  | _ -> scalar ctx

(* A statement; recursion bounded by ctx.depth. *)
let rec stmt ctx =
  let choice = Rng.int ctx.rng 14 in
  if ctx.depth >= 3 && choice >= 7 then simple ctx
  else
    match choice with
    | 0 | 1 | 2 -> simple ctx
    | 3 ->
      (* counted loop; occasionally 0- or 1-trip so promoted loops with
         their arming loads hoisted see short trip counts too *)
      let c = Fmt.str "i%d" (Rng.int ctx.rng 1000) in
      if List.mem c ctx.loop_counters then simple ctx
      else begin
        let bound =
          if Rng.int ctx.rng 4 = 0 then Rng.int ctx.rng 2
          else 1 + Rng.int ctx.rng 8
        in
        line ctx "{ int %s;" c;
        ctx.indent <- ctx.indent + 1;
        line ctx "for (%s = 0; %s < %d; %s = %s + 1) {" c c bound c c;
        ctx.indent <- ctx.indent + 1;
        ctx.loop_counters <- c :: ctx.loop_counters;
        ctx.depth <- ctx.depth + 1;
        let n = 1 + Rng.int ctx.rng 3 in
        for _ = 1 to n do
          stmt ctx
        done;
        ctx.depth <- ctx.depth - 1;
        ctx.loop_counters <- List.tl ctx.loop_counters;
        ctx.indent <- ctx.indent - 1;
        line ctx "}";
        ctx.indent <- ctx.indent - 1;
        line ctx "}"
      end
    | 4 | 5 ->
      (* if / if-else *)
      line ctx "if (%s) {" (expr ctx 1);
      ctx.indent <- ctx.indent + 1;
      ctx.depth <- ctx.depth + 1;
      stmt ctx;
      ctx.depth <- ctx.depth - 1;
      ctx.indent <- ctx.indent - 1;
      if Rng.bool ctx.rng then begin
        line ctx "} else {";
        ctx.indent <- ctx.indent + 1;
        ctx.depth <- ctx.depth + 1;
        stmt ctx;
        ctx.depth <- ctx.depth - 1;
        ctx.indent <- ctx.indent - 1
      end;
      line ctx "}"
    | 6 ->
      (* repoint a pointer (always to a valid object) *)
      let p = ptr ctx in
      if Rng.bool ctx.rng then line ctx "%s = &%s;" p (scalar ctx)
      else line ctx "%s = &%s[%s];" p (array_name ctx) (index ctx)
    | 7 -> line ctx "checksum = checksum + %s;" (expr ctx 2)
    | 8 -> line ctx "print_int(%s);" (expr ctx 1)
    | 9 ->
      (* helper call: a whole read/aliased-store/re-read shape behind a
         call boundary — promotions live across it must stay sound *)
      if ctx.n_helpers = 0 then simple ctx
      else
        line ctx "%s = %s + h%d(%s);" (scalar ctx) (scalar ctx)
          (Rng.int ctx.rng ctx.n_helpers) (expr ctx 1)
    | 10 ->
      (* pointer copy: two names for the same cell from here on *)
      line ctx "%s = %s;" (ptr ctx) (ptr ctx)
    | 11 ->
      (* long dependence chain: a run of serially dependent updates on
         one scalar.  The list scheduler cannot reorder any of it (every
         update is RAW on the last), so sched on/off must agree exactly
         while the critical-path heights get a deep chain to walk. *)
      let g = scalar ctx in
      let k = 4 + Rng.int ctx.rng 8 in
      for _ = 1 to k do
        line ctx "%s = (%s * 3 + %s) %% 8191;" g g (atom ctx)
      done
    | 12 ->
      (* FP-heavy block: chained double arithmetic with itof mix-ins —
         long FP latencies for the scheduler to hide.  Coefficients sum
         below 1 with small additive terms, so every f stays bounded and
         the truncated checksum contribution is exact. *)
      if ctx.n_fscalars = 0 then simple ctx
      else begin
        let d = fscalar ctx and d2 = fscalar ctx in
        let k = 3 + Rng.int ctx.rng 5 in
        for _ = 1 to k do
          match Rng.int ctx.rng 3 with
          | 0 ->
            line ctx "%s = %s * 0.5 + %s * 0.25 + %d.5;" d d d2
              (Rng.int ctx.rng 3)
          | 1 ->
            let c =
              match ctx.loop_counters with
              | [] -> string_of_int (Rng.int ctx.rng 8)
              | c :: _ -> c
            in
            line ctx "%s = %s * 0.25 + %s;" d d2 c
          | _ -> line ctx "%s = %s * 0.5 + %d.25;" d d (Rng.int ctx.rng 4)
        done;
        line ctx "checksum = checksum + %s;" d
      end
    | _ -> simple ctx

and simple ctx =
  match Rng.int ctx.rng 5 with
  | 0 -> line ctx "%s = %s;" (scalar ctx) (expr ctx 2)
  | 1 -> line ctx "%s[%s] = %s;" (array_name ctx) (index ctx) (expr ctx 2)
  | 2 -> line ctx "*%s = %s;" (ptr ctx) (expr ctx 2)
  | 3 ->
    (* pointer-to-pointer traffic: a store whose value came through
       another (possibly aliasing) pointer *)
    line ctx "*%s = *%s + %s;" (ptr ctx) (ptr ctx) (expr ctx 1)
  | _ ->
    (* the promotion-relevant shape: read, aliased store, re-read *)
    let g = scalar ctx in
    line ctx "checksum = checksum + %s;" g;
    line ctx "*%s = %s + 1;" (ptr ctx) g;
    line ctx "checksum = checksum + %s;" g

(* A helper function: the promotion-relevant read / aliased-store /
   re-read shape hidden behind a call boundary.  Bodies only touch
   globals and the integer parameter (never array indices derived from
   it), so helpers are total wherever they are called — and they are only
   called from main, after every pointer has been initialized. *)
let helper ctx i =
  let g = scalar ctx and g2 = scalar ctx and p = ptr ctx in
  line ctx "int h%d(int x) {" i;
  ctx.indent <- 1;
  line ctx "%s = %s + x;" g g;
  line ctx "checksum = checksum + %s;" g2;
  line ctx "*%s = %s + %d;" p g2 (Rng.int ctx.rng 5);
  line ctx "checksum = checksum + %s;" g2;
  line ctx "return x + %s;" g;
  ctx.indent <- 0;
  line ctx "}"

(* The pointer helper: reads and writes through its pointer argument, so
   the points-to analysis must bind each actual to the formal. *)
let pointer_helper ctx =
  line ctx "int hp(int* x) {";
  line ctx "  checksum = checksum + *x;";
  line ctx "  *x = *x + 1;";
  line ctx "  return *x;";
  line ctx "}"

(* Pointer-to-pointer traffic, emitted after main's random statements so
   it draws nothing before them: a pointer loaded through [pp] is read
   and written through in a loop (a cascade shape for the promoter), then
   a fresh address is stored through [pp] and read back through the
   pointer it repointed, and [hp] gets pointer actuals. *)
let pointer_chain ctx =
  let pk = ptr ctx and pj = ptr ctx in
  line ctx "pp = &%s;" pk;
  line ctx "{ int j;";
  line ctx "  for (j = 0; j < %d; j = j + 1) {" (1 + Rng.int ctx.rng 3);
  line ctx "    int* q = *pp;";
  line ctx "    checksum = checksum + *q;";
  line ctx "    *q = *q + %d;" (Rng.int ctx.rng 5);
  line ctx "    checksum = checksum + *q + hp(%s);" pj;
  line ctx "  }";
  line ctx "}";
  line ctx "*pp = &gq;";
  line ctx "checksum = checksum + *%s + hp(&%s);" pk (scalar ctx)

(* Generate a full program from a seed. *)
let program ?(n_scalars = 4) ?(n_fscalars = 2) ?(n_arrays = 2) ?(n_ptrs = 3)
    ?(n_helpers = 2) ~seed () : string =
  let ctx =
    { rng = Rng.create seed; buf = Buffer.create 1024; indent = 0;
      loop_counters = []; depth = 0; n_scalars; n_fscalars; n_arrays; n_ptrs;
      n_helpers }
  in
  for i = 0 to n_scalars - 1 do
    line ctx "int g%d = %d;" i (Rng.int ctx.rng 20)
  done;
  for i = 0 to n_fscalars - 1 do
    line ctx "double f%d = %d.5;" i (Rng.int ctx.rng 4)
  done;
  for i = 0 to n_arrays - 1 do
    line ctx "int arr%d[%d];" i array_size
  done;
  for i = 0 to n_ptrs - 1 do
    line ctx "int* p%d;" i
  done;
  line ctx "int** pp;";
  line ctx "int gq;";
  line ctx "int checksum;";
  for i = 0 to n_helpers - 1 do
    helper ctx i
  done;
  pointer_helper ctx;
  line ctx "int main() {";
  ctx.indent <- 1;
  (* initialize every pointer before any use *)
  for i = 0 to n_ptrs - 1 do
    if Rng.bool ctx.rng then line ctx "p%d = &g%d;" i (Rng.int ctx.rng n_scalars)
    else line ctx "p%d = &arr%d[%d];" i (Rng.int ctx.rng n_arrays) (Rng.int ctx.rng array_size)
  done;
  let n = 4 + Rng.int ctx.rng 8 in
  for _ = 1 to n do
    stmt ctx
  done;
  pointer_chain ctx;
  line ctx "print_int(checksum);";
  for i = 0 to n_scalars - 1 do
    line ctx "print_int(g%d);" i
  done;
  for i = 0 to n_fscalars - 1 do
    line ctx "print_float(f%d);" i
  done;
  line ctx "return 0;";
  ctx.indent <- 0;
  line ctx "}";
  Buffer.contents ctx.buf
