(* Tests for the interpreter substrate itself: the memory model, the
   alias-profile contents, and the speculation policy's derived data. *)

open Srp_frontend
module Memory = Srp_profile.Memory
module Value = Srp_profile.Value
module Alias_profile = Srp_profile.Alias_profile
module Location = Srp_alias.Location

(* The location of the region an address falls in, if any. *)
let location_of_addr m a =
  match Memory.location m a with l -> Some l | exception Not_found -> None

let test_memory_regions () =
  let m = Memory.create () in
  let sym =
    Srp_ir.Symbol.Gen.fresh (Srp_ir.Symbol.Gen.create ()) ~name:"x"
      ~storage:Srp_ir.Symbol.Global ~mty:Srp_ir.Mem_ty.I64 ~size_bytes:32
      ~is_scalar:false
  in
  let base = Memory.alloc m ~size:32 ~loc:(Location.Sym sym) in
  Alcotest.(check bool) "aligned" true (Int64.rem base 8L = 0L);
  (match location_of_addr m (Int64.add base 24L) with
  | Some (Location.Sym s) -> Alcotest.(check string) "inside region" "x" (Srp_ir.Symbol.name s)
  | _ -> Alcotest.fail "expected the region");
  Alcotest.(check (option reject)) "past the end is nobody's" None
    (Option.map (fun _ -> ()) (location_of_addr m (Int64.add base 32L)))

let test_memory_zero_init () =
  let m = Memory.create () in
  let base = Memory.alloc m ~size:16 ~loc:(Location.Heap 0) in
  (match Memory.load m base with
  | Value.Vint 0L -> ()
  | v -> Alcotest.failf "expected zero, got %a" Value.pp v);
  (match Memory.load_typed m base Srp_ir.Mem_ty.F64 with
  | Value.Vflt 0.0 -> ()
  | v -> Alcotest.failf "expected 0.0, got %a" Value.pp v)

let test_memory_free_erases () =
  let m = Memory.create () in
  let base = Memory.alloc m ~size:8 ~loc:(Location.Heap 1) in
  Memory.store m base (Value.Vint 7L);
  Memory.free m base;
  let base2 = Memory.alloc m ~size:8 ~loc:(Location.Heap 2) in
  ignore base2;
  (* whether or not addresses are reused, a fresh region reads zero *)
  (match Memory.load m base2 with
  | Value.Vint 0L -> ()
  | v -> Alcotest.failf "fresh region not zero: %a" Value.pp v)

let test_wild_access_faults () =
  let m = Memory.create () in
  Alcotest.(check bool) "wild load raises" true
    (try
       ignore (Memory.load m 0x10L);
       false
     with Value.Interp_error _ -> true);
  Alcotest.(check bool) "unaligned raises" true
    (try
       let b = Memory.alloc m ~size:8 ~loc:(Location.Heap 3) in
       ignore (Memory.load m (Int64.add b 4L));
       false
     with Value.Interp_error _ -> true)

let raises_interp f =
  match f () with
  | _ -> None
  | exception Value.Interp_error msg -> Some msg

let check_value name want got =
  if not (Value.equal want got) then
    Alcotest.failf "%s: expected %a, got %a" name Value.pp want Value.pp got

(* alloc_at must refuse a span that runs into a region starting above
   its base, not only one reaching up from below *)
let test_alloc_at_overlap_above () =
  let m = Memory.create () in
  let above = Memory.alloc_at m ~base:0x2000L ~size:16 ~loc:(Location.Heap 0) in
  Alcotest.(check (option string)) "span reaching into the region above"
    (Some "alloc_at: overlap at 0x1ff0")
    (raises_interp (fun () ->
         Memory.alloc_at m ~base:0x1ff0L ~size:32 ~loc:(Location.Heap 1)));
  Alcotest.(check (option string)) "span covering the region above"
    (Some "alloc_at: overlap at 0x1f00")
    (raises_interp (fun () ->
         Memory.alloc_at m ~base:0x1f00L ~size:0x400 ~loc:(Location.Heap 1)));
  let below = Memory.alloc_at m ~base:0x1ff0L ~size:16 ~loc:(Location.Heap 2) in
  Alcotest.(check int64) "a span ending at the region above fits" 0x1ff0L below;
  Memory.store m below (Value.Vint 1L);
  Memory.store m above (Value.Vint 2L);
  check_value "below" (Value.Vint 1L) (Memory.load m below);
  check_value "above" (Value.Vint 2L) (Memory.load m above)

(* Neither last-hit slot may serve a freed region. *)
let test_freed_region_is_wild () =
  let m = Memory.create () in
  let other = Memory.alloc m ~size:64 ~loc:(Location.Heap 0) in
  let base = Memory.alloc_at m ~base:0x8000L ~size:32 ~loc:(Location.Heap 1) in
  let addr = Int64.add base 8L in
  Memory.store m addr (Value.Vint 5L);
  check_value "cached hit before free" (Value.Vint 5L) (Memory.load m addr);
  Memory.free m base;
  Alcotest.(check (option string)) "load right after a cache hit"
    (Some "wild access at 0x8008")
    (raises_interp (fun () -> Memory.load m addr));
  Alcotest.(check (option string)) "store after free"
    (Some "wild access at 0x8008")
    (raises_interp (fun () -> Memory.store m addr (Value.Vint 1L)));
  Alcotest.(check bool) "no location after free" true
    (location_of_addr m addr = None);
  (* freeing a region the cache does not point at leaves the cache valid *)
  let b2 = Memory.alloc_at m ~base:0x9000L ~size:8 ~loc:(Location.Heap 2) in
  Memory.store m other (Value.Vint 9L);
  Memory.free m b2;
  check_value "other region intact" (Value.Vint 9L) (Memory.load m other);
  Alcotest.(check (option string)) "double free"
    (Some "free of unknown region at 0x8000")
    (raises_interp (fun () -> Memory.free m base))

let test_alloc_at_reused_base_reads_zero () =
  let m = Memory.create () in
  let base = Memory.alloc_at m ~base:0x4000L ~size:24 ~loc:(Location.Heap 0) in
  for w = 0 to 2 do
    Memory.store m (Int64.add base (Int64.of_int (8 * w))) (Value.Vint 7L)
  done;
  check_value "written" (Value.Vint 7L) (Memory.load m (Int64.add base 16L));
  Memory.free m base;
  let again = Memory.alloc_at m ~base:0x4000L ~size:24 ~loc:(Location.Heap 1) in
  for w = 0 to 2 do
    check_value "reused base reads zero" (Value.Vint 0L)
      (Memory.load m (Int64.add again (Int64.of_int (8 * w))))
  done

let test_alternating_regions () =
  let m = Memory.create () in
  let a = Memory.alloc m ~size:64 ~loc:(Location.Heap 0) in
  let b = Memory.alloc m ~size:64 ~loc:(Location.Heap 1) in
  let at base w = Int64.add base (Int64.of_int (8 * w)) in
  for w = 0 to 7 do
    Memory.store m (at a w) (Value.Vint (Int64.of_int w));
    Memory.store m (at b w) (Value.Vflt (float_of_int (100 + w)))
  done;
  for w = 0 to 7 do
    check_value "a" (Value.Vint (Int64.of_int w)) (Memory.load m (at a w));
    check_value "b" (Value.Vflt (float_of_int (100 + w))) (Memory.load m (at b w))
  done;
  Alcotest.(check bool) "locations follow the regions" true
    (location_of_addr m (at a 7) = Some (Location.Heap 0)
    && location_of_addr m (at b 0) = Some (Location.Heap 1))

(* Bump allocation must stop at a region placed above the break rather
   than run through it: in the machine, that is the heap growing into the
   descending stack. *)
let test_alloc_stops_at_placed_region () =
  let m = Memory.create () in
  let placed = Memory.alloc_at m ~base:0x1100L ~size:8 ~loc:(Location.Heap 0) in
  Memory.store m placed (Value.Vint 42L);
  Alcotest.(check (option string)) "a heap span reaching the placed region"
    (Some "alloc: 512 bytes at 0x1000 would overlap another region")
    (raises_interp (fun () -> Memory.alloc m ~size:0x200 ~loc:(Location.Heap 1)));
  check_value "placed region intact" (Value.Vint 42L) (Memory.load m placed);
  Alcotest.(check bool) "placed region still located" true
    (location_of_addr m placed = Some (Location.Heap 0));
  let below = Memory.alloc m ~size:0x80 ~loc:(Location.Heap 2) in
  Alcotest.(check int64) "a span ending below it fits" 0x1000L below

(* A page its last region's [free] empties is dropped; mapping it again
   reads zero, in the directory and above its reach alike. *)
let test_freed_page_remapped_reads_zero () =
  let page = Memory.page_bytes in
  List.iter
    (fun base ->
      let m = Memory.create () in
      let base64 = Int64.of_int base in
      (* two whole pages, then a region straddling their boundary *)
      ignore (Memory.alloc_at m ~base:base64 ~size:(2 * page) ~loc:(Location.Heap 0));
      Alcotest.(check int) "two pages resident" 2 (Memory.resident_pages m);
      for w = 0 to (2 * page / 8) - 1 do
        Memory.store m (Int64.add base64 (Int64.of_int (8 * w))) (Value.Vflt 1.5)
      done;
      Memory.free m base64;
      Alcotest.(check int) "both freed pages dropped" 0 (Memory.resident_pages m);
      let at = Int64.of_int (base + page - 8) in
      ignore (Memory.alloc_at m ~base:at ~size:16 ~loc:(Location.Heap 1));
      Alcotest.(check int) "a straddling region maps both pages" 2
        (Memory.resident_pages m);
      check_value "below the boundary" (Value.Vint 0L) (Memory.load m at);
      check_value "above the boundary" (Value.Vint 0L) (Memory.load m (Int64.add at 8L));
      Alcotest.(check (option string)) "the rest of the page is unmapped"
        (Some (Fmt.str "wild access at 0x%x" base))
        (raises_interp (fun () -> Memory.load m base64)))
    [ 0x4000_0000; Memory.directory_reach - Memory.page_bytes; 1 lsl 40 ]

(* Interpreter-style churn: bump-allocated frames come and go past a
   long-lived region.  The pages they sweep through are dropped, so the
   resident count stays at the pages live regions touch. *)
let test_page_churn_bounded () =
  let m = Memory.create () in
  let kept = Memory.alloc m ~size:64 ~loc:(Location.Heap 0) in
  Memory.store m kept (Value.Vint 42L);
  let most = ref 0 in
  for k = 1 to 100_000 do
    let a = Memory.alloc m ~size:8 ~loc:(Location.Heap k) in
    let b = Memory.alloc m ~size:40 ~loc:(Location.Heap k) in
    Memory.store m a (Value.Vint (Int64.of_int k));
    Memory.store m (Int64.add b 32L) (Value.Vflt 2.0);
    most := max !most (Memory.resident_pages m);
    Memory.free m b;
    Memory.free m a
  done;
  (* the long-lived region's page and two under a straddling frame *)
  Alcotest.(check bool) (Fmt.str "at most 3 pages resident (saw %d)" !most) true (!most <= 3);
  Alcotest.(check int) "the long-lived region's page is left" 1 (Memory.resident_pages m);
  check_value "the long-lived region kept its word" (Value.Vint 42L) (Memory.load m kept)

(* --- Memory against a reference model ---

   Random alloc / alloc_at / free / load / load_typed / store /
   load_bits / store_bits / location scripts run against a naive
   reference: an association list from base to region, each region an
   array of [Value.t] words.
   Addresses are drawn relative to the bases handed out so far (so they
   land in, between, in the red zone just past and misaligned inside
   regions, freed ones included), or lie outside the [int] range: fixed
   extremes, and live addresses with bit 63 flipped, which an unchecked
   narrowing to [int] would map onto the live region.  alloc_at bases
   come from windows of stack-like addresses where spans collide often,
   so freed pages are mapped again; a window sits on a page boundary, on
   the end of the page directory's reach, far above it and across zero.
   Some regions are larger than a page, and some offsets land near the
   page boundary after a base.  Loads, stores and [mapped] also go through
   the machine's native-int entry points, which read the page tags alone,
   never the region table.  Stored floats include -0.0, the infinities
   and NaNs with payloads; every result is compared bit for bit, and
   every error by its text. *)

type mem_addr =
  | Rel of int * int (* region index, byte offset *)
  | High of int * int (* the same, with bit 63 flipped *)
  | Abs of int64

type mem_op =
  | M_alloc of int
  | M_alloc_at of int * int * int (* window, stack slot, size *)
  | M_free of mem_addr
  | M_load of mem_addr
  | M_load_f64 of mem_addr
  | M_store of mem_addr * Value.t
  | M_load_bits of mem_addr (* the machine's native-int entry points *)
  | M_store_bits of mem_addr * Value.t
  | M_where of mem_addr

(* bit-exact: NaN payloads and the sign of zero are part of a value *)
let show_value = function
  | Value.Vint i -> Fmt.str "Vint %Ld" i
  | Value.Vflt x -> Fmt.str "Vflt %h (0x%Lx)" x (Int64.bits_of_float x)

let pp_mem_addr ppf = function
  | Rel (i, o) -> Fmt.pf ppf "r%d%+d" i o
  | High (i, o) -> Fmt.pf ppf "high(r%d%+d)" i o
  | Abs a -> Fmt.pf ppf "0x%Lx" a

let pp_mem_op ppf = function
  | M_alloc n -> Fmt.pf ppf "alloc %d" n
  | M_alloc_at (w, k, n) -> Fmt.pf ppf "alloc_at window %d slot %d size %d" w k n
  | M_free a -> Fmt.pf ppf "free %a" pp_mem_addr a
  | M_load a -> Fmt.pf ppf "load %a" pp_mem_addr a
  | M_load_f64 a -> Fmt.pf ppf "load_f64 %a" pp_mem_addr a
  | M_store (a, v) -> Fmt.pf ppf "store %a %s" pp_mem_addr a (show_value v)
  | M_load_bits a -> Fmt.pf ppf "load_bits %a" pp_mem_addr a
  | M_store_bits (a, v) -> Fmt.pf ppf "store_bits %a %s" pp_mem_addr a (show_value v)
  | M_where a -> Fmt.pf ppf "where %a" pp_mem_addr a

(* The bases alloc_at draws from: a stack-like window whose spans cross a
   page boundary, one straddling the end of the page directory's reach,
   one far above it, and one crossing address zero. *)
let alloc_at_windows =
  [| 0x4000_0000L; Int64.of_int (Memory.directory_reach + 64);
     Int64.of_int ((1 lsl 40) + Memory.page_bytes); 96L |]

let arb_mem_ops =
  let open QCheck.Gen in
  let page = Memory.page_bytes in
  let rel =
    pair (int_range 0 7)
      (frequency
         [ (4, return 0); (4, int_range (-16) 72);
           (1, int_range (page - 24) (page + 24)) ])
  in
  let size = frequency [ (6, int_range 0 48); (1, int_range 0 (2 * page + 64)) ] in
  let addr =
    frequency
      [ (8, map (fun (i, o) -> Rel (i, o)) rel);
        (1, map (fun (i, o) -> High (i, o)) rel);
        (1,
         map (fun a -> Abs a)
           (oneofl
              [ 0x7fff_ffff_ffff_fff8L; Int64.min_int; Int64.max_int;
                0x4000_0000_0000_0000L; -8L; 0L;
                Int64.of_int (Memory.directory_reach - 8);
                Int64.of_int Memory.directory_reach ])) ]
  in
  let value =
    oneof
      [ map (fun i -> Value.Vint i) (oneofl [ 0L; 1L; -1L; 7L; Int64.min_int; Int64.max_int ]);
        map (fun x -> Value.Vflt x)
          (oneofl
             [ 0.0; -0.0; 1.5; Float.infinity; Float.neg_infinity; Float.nan;
               Int64.float_of_bits 0x7ff0_0000_0000_0001L;
               Int64.float_of_bits 0xfff8_0000_dead_beefL ]) ]
  in
  let op =
    frequency
      [ (2, map (fun n -> M_alloc n) size);
        (3,
         map3
           (fun w k n -> M_alloc_at (w, k, n))
           (frequency [ (3, return 0); (1, return 1); (1, return 2) ])
           (int_range 0 40) size);
        (* small spans only, so they stay below the first bump address *)
        (1, map2 (fun k n -> M_alloc_at (3, k, n)) (int_range 0 40) (int_range 0 48));
        (2, map (fun a -> M_free a) addr);
        (4, map (fun a -> M_load a) addr);
        (2, map (fun a -> M_load_f64 a) addr);
        (4, map2 (fun a v -> M_store (a, v)) addr value);
        (3, map (fun a -> M_load_bits a) addr);
        (3, map2 (fun a v -> M_store_bits (a, v)) addr value);
        (2, map (fun a -> M_where a) addr) ]
  in
  QCheck.make
    ~print:(fun ops -> Fmt.str "%a" Fmt.(list ~sep:semi pp_mem_op) ops)
    (list_size (int_range 0 80) op)

type model_region = { msize : int; mloc : Location.t; words : Value.t array }

let prop_memory_model =
  QCheck.Test.make ~count:500 ~name:"memory agrees with a reference model"
    arb_mem_ops (fun ops ->
      let m = Memory.create () in
      (* base -> region, and every base handed out, freed ones included *)
      let live : (int64 * model_region) list ref = ref [] and bases = ref [||] in
      let addr_of = function
        | Abs a -> a
        | Rel (i, off) | High (i, off) as a ->
          let n = Array.length !bases in
          let a' = Int64.add (if n = 0 then 0x10L else !bases.(i mod n)) (Int64.of_int off) in
          (match a with High _ -> Int64.logxor a' Int64.min_int | _ -> a')
      in
      let inside a (b, r) = a >= b && a < Int64.add b (Int64.of_int r.msize) in
      let find a = List.find_opt (inside a) !live in
      (* the word an access reaches, or the error it raises *)
      let access a =
        if Int64.logand a 7L <> 0L then Error (Fmt.str "unaligned access at 0x%Lx" a)
        else match find a with
          | None -> Error (Fmt.str "wild access at 0x%Lx" a)
          | Some (b, r) -> Ok (r, Int64.to_int (Int64.sub a b) / 8)
      in
      let add base size loc =
        live := (base, { msize = size; mloc = loc; words = Array.make (size / 8) (Value.Vint 0L) })
                :: !live;
        bases := Array.append !bases [| base |]
      in
      let round n = max 8 ((n + 7) / 8 * 8) in
      (* the machine narrows an address to an int before it reaches
         [Memory]; one no int holds faults there *)
      let native a f =
        let i = Int64.to_int a in
        if Int64.equal (Int64.of_int i) a then f i else Memory.unmapped a
      in
      let word = Bytes.create 8 in
      let real f = match f () with v -> Ok v | exception Value.Interp_error e -> Error e in
      let show = function Ok v -> show_value v | Error e -> "error: " ^ e in
      let agree k what want got =
        if want <> got then
          QCheck.Test.fail_reportf "op %d (%s): model %s, memory %s" k what want got
      in
      List.iteri
        (fun k op ->
          let what = Fmt.str "%a" pp_mem_op op in
          match op with
          | M_alloc n ->
            let loc = Location.Heap k in
            let base = Memory.alloc m ~size:n ~loc in
            let size = round n in
            if Int64.rem base 8L <> 0L then agree k what "aligned base" "unaligned";
            List.iter
              (fun (b, r) ->
                if inside base (b, r) || inside b (base, { r with msize = size })
                then agree k what "a free span" "an overlap")
              !live;
            add base size loc
          | M_alloc_at (window, slot, n) ->
            let base = Int64.sub alloc_at_windows.(window) (Int64.of_int (4 * slot)) in
            let size = round n in
            let loc = Location.Heap k in
            let want =
              if Int64.rem base 8L <> 0L then
                Error (Fmt.str "alloc_at: unaligned base 0x%Lx" base)
              else if
                List.exists
                  (fun (b, r) ->
                    base < Int64.add b (Int64.of_int r.msize)
                    && b < Int64.add base (Int64.of_int size))
                  !live
              then Error (Fmt.str "alloc_at: overlap at 0x%Lx" base)
              else Ok base
            in
            let got = real (fun () -> Memory.alloc_at m ~base ~size:n ~loc) in
            let str = function Ok b -> Fmt.str "0x%Lx" b | Error e -> "error: " ^ e in
            agree k what (str want) (str got);
            if Result.is_ok want then add base size loc
          | M_free a ->
            let a = addr_of a in
            let want =
              if List.mem_assoc a !live then begin
                live := List.remove_assoc a !live;
                "ok"
              end
              else Fmt.str "error: free of unknown region at 0x%Lx" a
            in
            let got =
              match Memory.free m a with
              | () -> "ok"
              | exception Value.Interp_error e -> "error: " ^ e
            in
            agree k what want got
          | M_load a | M_load_f64 a ->
            let a = addr_of a in
            let f64 = match op with M_load_f64 _ -> true | _ -> false in
            let want =
              Result.map
                (fun (r, w) ->
                  match r.words.(w) with
                  | Value.Vint 0L when f64 -> Value.Vflt 0.0
                  | v -> v)
                (access a)
            in
            let got =
              real (fun () ->
                  if f64 then Memory.load_typed m a Srp_ir.Mem_ty.F64 else Memory.load m a)
            in
            agree k what (show want) (show got)
          | M_store (a, v) ->
            let a = addr_of a in
            let want = Result.map (fun (r, w) -> r.words.(w) <- v; v) (access a) in
            let got = real (fun () -> Memory.store m a v; v) in
            agree k what (show want) (show got)
          | M_load_bits a ->
            let a = addr_of a in
            let bits = function
              | Value.Vint i -> i
              | Value.Vflt x -> Int64.bits_of_float x
            in
            let str = function Ok b -> Fmt.str "0x%Lx" b | Error e -> "error: " ^ e in
            let want = Result.map (fun (r, w) -> bits r.words.(w)) (access a) in
            let got =
              real (fun () ->
                  native a (fun i ->
                      Memory.load_bits m i word 0;
                      Bytes.get_int64_ne word 0))
            in
            agree k what (str want) (str got)
          | M_store_bits (a, v) ->
            let a = addr_of a in
            let want = Result.map (fun (r, w) -> r.words.(w) <- v; v) (access a) in
            let got =
              real (fun () ->
                  native a (fun i ->
                      let bits, float =
                        match v with
                        | Value.Vint b -> (b, false)
                        | Value.Vflt x -> (Int64.bits_of_float x, true)
                      in
                      Bytes.set_int64_ne word 0 bits;
                      Memory.store_bits m i word 0 ~float;
                      v))
            in
            agree k what (show want) (show got)
          | M_where a ->
            let a = addr_of a in
            let str = Option.fold ~none:"none" ~some:Location.to_string in
            agree k what
              (str (Option.map (fun (_, r) -> r.mloc) (find a)))
              (str (location_of_addr m a));
            let i = Int64.to_int a in
            if Int64.equal (Int64.of_int i) a then
              agree k (what ^ " (mapped)")
                (string_of_bool (find a <> None))
                (string_of_bool (Memory.mapped m i)))
        ops;
      true)

let test_profile_counts_and_targets () =
  let src = {|
int a; int b;
int* p;
int main() {
  int i;
  p = &a;
  for (i = 0; i < 5; i = i + 1) { *p = i; }
  p = &b;
  *p = 9;
  return 0;
}
|} in
  let prog = Lower.compile_source src in
  let _, _, profile = Srp_profile.Interp.run_program prog in
  (* the in-loop indirect store executed 5 times, touching only a *)
  let sites = Alias_profile.sites profile in
  let five =
    List.filter
      (fun s ->
        Alias_profile.count profile s = 5
        && Location.Set.exists
             (fun l -> Location.to_string l = "a")
             (Alias_profile.targets profile s))
      sites
  in
  Alcotest.(check bool) "an a-touching site ran 5 times" true (five <> []);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) "it touched only a" [ "a" ]
        (List.map Location.to_string
           (Location.Set.elements (Alias_profile.targets profile s))))
    five

let test_profile_block_counts () =
  let src = {|
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 7; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|} in
  let prog = Lower.compile_source src in
  let _, _, profile = Srp_profile.Interp.run_program prog in
  (* some block ran exactly 7 times (the loop body) *)
  let f = Srp_ir.Program.find_func prog "main" in
  let found = ref false in
  List.iter
    (fun blk ->
      let c =
        Alias_profile.block_count profile ~func:"main"
          ~label_id:(Srp_ir.Label.id (Srp_ir.Block.label blk))
      in
      if c = 7 then found := true)
    (Srp_ir.Func.blocks f);
  Alcotest.(check bool) "loop body counted 7" true !found

let test_interp_rejects_promoted () =
  let src = "int a; int* q; int main() { q = &a; a = 1; int x = a; *q = 2; int y = a; return x + y; }" in
  let pprog = Lower.compile_source src in
  let _, _, profile = Srp_profile.Interp.run_program pprog in
  let prog = Lower.compile_source src in
  ignore (Srp_core.Promote.run ~config:(Srp_core.Config.alat ~profile) prog);
  (* the promoted program contains Check instructions *)
  let has_check = ref false in
  Srp_ir.Func.iter_instrs
    (fun _ ins -> match ins with Srp_ir.Instr.Check _ -> has_check := true | _ -> ())
    (Srp_ir.Program.find_func prog "main");
  if !has_check then
    Alcotest.(check bool) "interp refuses checks" true
      (try
         ignore (Srp_profile.Interp.run_program ~collect_profile:false prog);
         false
       with Value.Interp_error _ -> true)

let test_fuel () =
  let src = "int main() { while (1) { } return 0; }" in
  let prog = Lower.compile_source src in
  Alcotest.check_raises "fuel" Srp_profile.Interp.Out_of_fuel (fun () ->
      ignore (Srp_profile.Interp.run_program ~fuel:1000 prog))

let test_value_ops () =
  let open Srp_ir.Ops in
  Alcotest.(check bool) "div by zero raises" true
    (try
       ignore (Value.binop Div (Value.Vint 1L) (Value.Vint 0L));
       false
     with Value.Interp_error _ -> true);
  (match Value.binop Add (Value.Vint 2L) (Value.Vint 3L) with
  | Value.Vint 5L -> ()
  | _ -> Alcotest.fail "add");
  (match Value.binop FLt (Value.Vflt 1.0) (Value.Vflt 2.0) with
  | Value.Vint 1L -> ()
  | _ -> Alcotest.fail "flt");
  (match Value.unop F2I (Value.Vflt 3.99) with
  | Value.Vint 3L -> ()
  | _ -> Alcotest.fail "f2i truncates")

let suite =
  [ Alcotest.test_case "memory regions" `Quick test_memory_regions;
    Alcotest.test_case "memory zero init" `Quick test_memory_zero_init;
    Alcotest.test_case "memory free erases" `Quick test_memory_free_erases;
    Alcotest.test_case "wild access faults" `Quick test_wild_access_faults;
    Alcotest.test_case "alloc_at overlap above" `Quick test_alloc_at_overlap_above;
    Alcotest.test_case "freed region is wild" `Quick test_freed_region_is_wild;
    Alcotest.test_case "alloc_at reused base reads zero" `Quick
      test_alloc_at_reused_base_reads_zero;
    Alcotest.test_case "alternating regions" `Quick test_alternating_regions;
    Alcotest.test_case "alloc stops at a placed region" `Quick
      test_alloc_stops_at_placed_region;
    Alcotest.test_case "freed page re-mapped reads zero" `Quick
      test_freed_page_remapped_reads_zero;
    Alcotest.test_case "page churn stays bounded" `Quick test_page_churn_bounded;
    QCheck_alcotest.to_alcotest prop_memory_model;
    Alcotest.test_case "profile counts and targets" `Quick test_profile_counts_and_targets;
    Alcotest.test_case "profile block counts" `Quick test_profile_block_counts;
    Alcotest.test_case "interp rejects promoted IR" `Quick test_interp_rejects_promoted;
    Alcotest.test_case "interpreter fuel" `Quick test_fuel;
    Alcotest.test_case "value semantics" `Quick test_value_ops ]

let test_profile_roundtrip () =
  let src = {|
int a; int b;
int* p;
int sel;
int main() {
  int i;
  if (sel) { p = &a; } else { p = &b; }
  struct_free();
  for (i = 0; i < 9; i = i + 1) { *p = i; }
  return 0;
}
void struct_free() { }
|} in
  (* the helper makes the source multi-function for block-count coverage *)
  let src = String.concat "" [ src ] in
  let prog = Lower.compile_source src in
  let _, _, profile = Srp_profile.Interp.run_program prog in
  let text = Alias_profile.save profile in
  let symbols = Hashtbl.create 16 in
  List.iter
    (fun s -> Hashtbl.replace symbols (Srp_ir.Symbol.id s) s)
    (Srp_ir.Program.all_symbols prog);
  let back = Alias_profile.load ~symbols text in
  (* every site's counts and targets survive the round trip *)
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Fmt.str "count of site %d" (Srp_ir.Site.to_int site))
        (Alias_profile.count profile site)
        (Alias_profile.count back site);
      Alcotest.(check bool)
        (Fmt.str "targets of site %d" (Srp_ir.Site.to_int site))
        true
        (Location.Set.equal
           (Alias_profile.targets profile site)
           (Alias_profile.targets back site)))
    (Alias_profile.sites profile);
  (* block counts too *)
  let f = Srp_ir.Program.find_func prog "main" in
  List.iter
    (fun blk ->
      let lid = Srp_ir.Label.id (Srp_ir.Block.label blk) in
      Alcotest.(check int) "block count" 
        (Alias_profile.block_count profile ~func:"main" ~label_id:lid)
        (Alias_profile.block_count back ~func:"main" ~label_id:lid))
    (Srp_ir.Func.blocks f)

(* --- serialization properties and format pinning --- *)

let no_symbols : (int, Srp_ir.Symbol.t) Hashtbl.t = Hashtbl.create 0

(* Random profiles as operation scripts over heap locations, one access
   or block entry per operation added through the bulk adders, so loading
   needs no symbol table and the property is self-contained. *)
let arb_profile_ops =
  let open QCheck.Gen in
  let gen_op =
    oneof
      [ (let* site = int_range 0 9 in
         let* heap = int_range 0 5 in
         return (`Access (site, heap)));
        (let* func = oneofl [ "main"; "f"; "g" ] in
         let* label = int_range 0 7 in
         return (`Block (func, label))) ]
  in
  let print_ops ops =
    String.concat "; "
      (List.map
         (function
           | `Access (s, h) -> Fmt.str "access s%d heap:%d" s h
           | `Block (f, l) -> Fmt.str "block %s %d" f l)
         ops)
  in
  QCheck.make ~print:print_ops (list_size (int_range 0 60) gen_op)

let profile_of_ops ops =
  let p = Alias_profile.create () in
  List.iter
    (function
      | `Access (site, heap) ->
        Alias_profile.add_hits p site (Location.Heap heap) 1;
        Alias_profile.add_count p site 1
      | `Block (func, label_id) -> Alias_profile.add_block_count p ~func ~label_id 1)
    ops;
  p

(* save . load . save must be byte-identical: the text format is fully
   sorted, so one pass through the parser cannot reorder or rewrite
   anything.  This is what makes profiles usable as content-key inputs
   in the staged pipeline. *)
let prop_save_load_save =
  QCheck.Test.make ~count:300 ~name:"save . load . save byte-identical"
    arb_profile_ops (fun ops ->
      let p = profile_of_ops ops in
      let s1 = Alias_profile.save p in
      let back = Alias_profile.load ~symbols:no_symbols s1 in
      s1 = Alias_profile.save back)

(* ... and the reloaded profile answers every query identically. *)
let prop_load_preserves_queries =
  QCheck.Test.make ~count:300 ~name:"load preserves counts/rates/blocks"
    arb_profile_ops (fun ops ->
      let p = profile_of_ops ops in
      let back = Alias_profile.load ~symbols:no_symbols (Alias_profile.save p) in
      List.for_all
        (fun s ->
          Alias_profile.count p s = Alias_profile.count back s
          && Location.Set.equal (Alias_profile.targets p s)
               (Alias_profile.targets back s)
          && List.for_all
               (fun h ->
                 let l = Location.Heap h in
                 Alias_profile.touch_count p s l
                 = Alias_profile.touch_count back s l
                 && Alias_profile.conflict_rate p s l
                    = Alias_profile.conflict_rate back s l)
               [ 0; 1; 2; 3; 4; 5 ])
        (Alias_profile.sites p)
      && List.for_all
           (fun func ->
             List.for_all
               (fun label_id ->
                 Alias_profile.block_count p ~func ~label_id
                 = Alias_profile.block_count back ~func ~label_id)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
           [ "main"; "f"; "g" ])

let test_v1_migration () =
  (* headerless v1 text, bare kind:id targets: every recorded location is
     read as conflicting on every execution, reproducing the binary
     verdicts exactly *)
  let text = "site 3 count 5 targets heap:1 heap:2\nsite 4 count 0 targets heap:7\n" in
  let p = Alias_profile.load ~symbols:no_symbols text in
  Alcotest.(check int) "v1 count" 5 (Alias_profile.count p 3);
  Alcotest.(check int) "v1 hits = count" 5
    (Alias_profile.touch_count p 3 (Location.Heap 1));
  Alcotest.(check (float 0.0)) "v1 rate is 1" 1.0
    (Alias_profile.conflict_rate p 3 (Location.Heap 2));
  (* a v1 count-0 site with targets still touches them (the legacy set
     semantics) but is not executed (the pinned count semantics) *)
  Alcotest.(check bool) "v1 count-0 target touched" true
    (Alias_profile.touch_count p 4 (Location.Heap 7) > 0);
  Alcotest.(check bool) "v1 count-0 not executed" false
    (Alias_profile.executed p 4);
  Alcotest.(check (float 0.0)) "v1 count-0 rate is 1" 1.0
    (Alias_profile.conflict_rate p 4 (Location.Heap 7))

let test_count0_site_not_executed () =
  let text = "srp-profile-v2\nsite 9 count 0 targets\n" in
  let p = Alias_profile.load ~symbols:no_symbols text in
  Alcotest.(check bool) "count-0 site not executed" false
    (Alias_profile.executed p 9);
  Alcotest.(check bool) "count-0 site has no targets" true
    (Location.Set.is_empty (Alias_profile.targets p 9));
  (* the site line is still present, so reloading keeps it: sites lists it *)
  Alcotest.(check (list int)) "site retained" [ 9 ]
    (List.map Srp_ir.Site.to_int (Alias_profile.sites p))

let check_parse_error name needle text =
  match Alias_profile.load ~symbols:no_symbols text with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Alias_profile.Parse_error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Fmt.str "%s: message %S names %S" name msg needle)
      true (contains msg needle)

let test_load_rejects_corruption () =
  check_parse_error "duplicate site" "duplicate site"
    "srp-profile-v2\nsite 1 count 2 targets heap:0=2\nsite 1 count 3 targets\n";
  check_parse_error "duplicate block" "duplicate block"
    "srp-profile-v2\nblock main 4 7\nblock main 4 9\n";
  check_parse_error "duplicate target" "duplicate target"
    "srp-profile-v2\nsite 1 count 2 targets heap:0=1 heap:0=1\n";
  check_parse_error "bad site integer" "\"x\""
    "srp-profile-v2\nsite x count 2 targets\n";
  check_parse_error "bad count integer" "\"2z\""
    "srp-profile-v2\nsite 1 count 2z targets\n";
  check_parse_error "bad hits integer" "\"ten\""
    "srp-profile-v2\nsite 1 count 2 targets heap:0=ten\n";
  check_parse_error "bad block count" "\"seven\"" "block main 4 seven\n";
  check_parse_error "unknown symbol" "unknown symbol"
    "srp-profile-v2\nsite 1 count 2 targets sym:99=1\n";
  check_parse_error "junk line" "bad line" "srp-profile-v2\nfrobnicate 3\n"

(* --- the interpreter's counters are exact --- *)

(* Every location a site's profile names, with its hits. *)
let touch_total profile site =
  Location.Set.fold
    (fun loc n -> n + Alias_profile.touch_count profile site loc)
    (Alias_profile.targets profile site) 0

(* On a run that completes: every step is an instruction or a terminator
   of an entered block, every site execution touched exactly one
   location, and collecting the profile changes nothing the program
   computes. *)
let check_exact what prog =
  let it = Srp_profile.Interp.create prog in
  let code = Srp_profile.Interp.run it in
  let profile = Srp_profile.Interp.profile it in
  let block_steps =
    List.fold_left
      (fun n f ->
        List.fold_left
          (fun n b ->
            let c =
              Alias_profile.block_count profile ~func:(Srp_ir.Func.name f)
                ~label_id:(Srp_ir.Label.id (Srp_ir.Block.label b))
            in
            n + (c * (List.length b.Srp_ir.Block.instrs + 1)))
          n (Srp_ir.Func.blocks f))
      0 (Srp_ir.Program.funcs prog)
  in
  Alcotest.(check int) (what ^ ": steps = block entries x block length")
    (Srp_profile.Interp.steps it) block_steps;
  List.iter
    (fun site ->
      Alcotest.(check int)
        (Fmt.str "%s: site %d count = sum of touches" what (Srp_ir.Site.to_int site))
        (Alias_profile.count profile site) (touch_total profile site))
    (Alias_profile.sites profile);
  let bare = Srp_profile.Interp.create ~collect_profile:false prog in
  let bare_code = Srp_profile.Interp.run bare in
  Alcotest.(check int64) (what ^ ": exit without profile") code bare_code;
  Alcotest.(check string) (what ^ ": output without profile")
    (Srp_profile.Interp.output it) (Srp_profile.Interp.output bare);
  Alcotest.(check int) (what ^ ": steps without profile")
    (Srp_profile.Interp.steps it) (Srp_profile.Interp.steps bare)

let test_profile_exact_kernels () =
  List.iter
    (fun (w : Srp_driver.Workload.t) ->
      let prog = Lower.compile_source w.Srp_driver.Workload.source in
      Srp_driver.Workload.apply_input prog w.Srp_driver.Workload.train;
      check_exact w.Srp_driver.Workload.name prog)
    (Srp_workloads.Registry.all ())

let test_profile_exact_random () =
  for seed = 1 to 12 do
    check_exact (Fmt.str "gen_minic seed %d" seed)
      (Lower.compile_source (Gen_minic.program ~seed ()))
  done

(* A loop cut by fuel in the middle of its body: the counters gathered
   before the fault reach the profile.

     entry:  i = 0; jump header                      2 steps
     header: c = i < 1000; br c, body, exit          2 steps
     body:   x = load g; y = x + 1; store y -> g;
             i = i + 1; jump header                  5 steps

   With fuel 2 + 7k + 4, k whole iterations run, then the header and
   body of iteration k are entered and the body's load and add execute;
   the store's step is one past the fuel, so it never runs. *)
let test_fuel_mid_loop_profile () =
  let open Srp_ir in
  let prog = Program.create () in
  let g =
    Symbol.Gen.fresh prog.Program.sym_gen ~name:"g" ~storage:Symbol.Global
      ~mty:Mem_ty.I64 ~size_bytes:8 ~is_scalar:true
  in
  Program.add_global prog g Program.Init_zero;
  let temp_gen = Temp.Gen.create () and label_gen = Label.Gen.create () in
  let f = Func.create ~name:"main" ~formals:[] ~ret_mty:(Some Mem_ty.I64) ~temp_gen ~label_gen in
  let entry = List.hd (Func.blocks f) in
  let header = Func.fresh_block ~hint:"header" f in
  let body = Func.fresh_block ~hint:"body" f in
  let exit = Func.fresh_block ~hint:"exit" f in
  let fresh () = Func.fresh_temp f Mem_ty.I64 in
  let site () = Site.Gen.fresh prog.Program.site_gen in
  let i = fresh () and c = fresh () and x = fresh () and y = fresh () in
  let load_site = site () and store_site = site () in
  Block.append entry (Instr.Mov { dst = i; src = Ops.Int 0L });
  entry.Block.term <- Instr.Jump (Block.label header);
  Block.append header (Instr.Bin { dst = c; op = Ops.Lt; a = Ops.Temp i; b = Ops.Int 1000L });
  header.Block.term <-
    Instr.Br { cond = Ops.Temp c; ifso = Block.label body; ifnot = Block.label exit;
               site = site () };
  List.iter (Block.append body)
    [ Instr.Load { dst = x; addr = Ops.addr_of_sym g; mty = Mem_ty.I64; site = load_site;
                   promo = Instr.P_none };
      Instr.Bin { dst = y; op = Ops.Add; a = Ops.Temp x; b = Ops.Int 1L };
      Instr.Store { src = Ops.Temp y; addr = Ops.addr_of_sym g; mty = Mem_ty.I64;
                    site = store_site };
      Instr.Bin { dst = i; op = Ops.Add; a = Ops.Temp i; b = Ops.Int 1L } ];
  body.Block.term <- Instr.Jump (Block.label header);
  exit.Block.term <- Instr.Ret (Some (Ops.Int 0L));
  Program.add_func prog f;
  let k = 10 in
  let it = Srp_profile.Interp.create ~fuel:(2 + (7 * k) + 4) prog in
  Alcotest.check_raises "fuel runs out" Srp_profile.Interp.Out_of_fuel (fun () ->
      ignore (Srp_profile.Interp.run it));
  let p = Srp_profile.Interp.profile it in
  let entries b = Alias_profile.block_count p ~func:"main" ~label_id:(Label.id (Block.label b)) in
  Alcotest.(check int) "steps: one past the fuel" ((7 * k) + 7) (Srp_profile.Interp.steps it);
  Alcotest.(check (list int)) "entry, header, body, exit entries" [ 1; k + 1; k + 1; 0 ]
    (List.map entries [ entry; header; body; exit ]);
  Alcotest.(check (list int)) "load site: count, hits on g" [ k + 1; k + 1 ]
    [ Alias_profile.count p load_site; Alias_profile.touch_count p load_site (Location.Sym g) ];
  Alcotest.(check (list int)) "store site: count, hits on g" [ k; k ]
    [ Alias_profile.count p store_site; Alias_profile.touch_count p store_site (Location.Sym g) ]

(* The interpreter's faults, each raised by a one-block [main] built by
   hand, keep their texts; a jump to a label with no block still counts
   the entry in the profile.  So do the locations of direct accesses: a
   constant offset inside its symbol is recorded as the symbol, even when
   unaligned (then it faults); one that leaves its symbol is recorded as
   whatever region it lands in, or not at all in a red zone.  Regions are
   laid out from 0x1000, each followed by an 8-byte red zone: globals
   first, then the frame's locals in [Func.locals] order. *)
let test_interp_fault_texts () =
  let open Srp_ir in
  let fault build =
    let prog = Program.create () in
    let temp_gen = Temp.Gen.create () and label_gen = Label.Gen.create () in
    let func name =
      let f = Func.create ~name ~formals:[] ~ret_mty:(Some Mem_ty.I64) ~temp_gen ~label_gen in
      Program.add_func prog f;
      f
    in
    let sym name storage =
      Symbol.Gen.fresh prog.Program.sym_gen ~name ~storage ~mty:Mem_ty.I64 ~size_bytes:8
        ~is_scalar:true
    in
    let main = func "main" in
    build prog func sym main (List.hd (Func.blocks main));
    let it = Srp_profile.Interp.create prog in
    let text =
      match Srp_profile.Interp.run it with
      | v -> Fmt.str "exit %Ld" v
      | exception Value.Interp_error e -> e
      | exception Invalid_argument e -> "invalid: " ^ e
    in
    (text, Srp_profile.Interp.profile it)
  in
  let load_of s = Instr.Load { dst = Temp.Gen.fresh (Temp.Gen.create ()) Mem_ty.I64;
                               addr = Ops.addr_of_sym s; mty = Mem_ty.I64; site = 0;
                               promo = Instr.P_none } in
  let check what want build = Alcotest.(check string) what want (fst (fault build)) in
  let undefined = ref "" in
  let text, _ =
    fault (fun _ _ _ main b ->
        let t = Func.fresh_temp main Mem_ty.I64 in
        undefined := Temp.to_string t;
        b.Block.term <- Instr.Ret (Some (Ops.Temp t)))
  in
  Alcotest.(check string) "undefined temp" ("read of undefined temp " ^ !undefined) text;
  check "unknown global" "unknown global g" (fun _ _ sym _ b ->
      Block.append b (load_of (sym "g" Symbol.Global)));
  check "no frame slot" "no frame slot for x in main" (fun _ _ sym _ b ->
      Block.append b (load_of (sym "x" Symbol.Local)));
  check "unknown callee" "invalid: Program.find_func: no function nope" (fun _ _ _ _ b ->
      Block.append b (Instr.Call { dst = None; callee = "nope"; args = []; site = 0 }));
  check "void return used" "void return used as a value in call to f" (fun _ func _ main b ->
      let f = func "f" in
      (List.hd (Func.blocks f)).Block.term <- Instr.Ret None;
      Block.append b
        (Instr.Call { dst = Some (Func.fresh_temp main Mem_ty.I64); callee = "f"; args = [];
                      site = 0 }));
  let gone = ref (-1) in
  let text, p =
    fault (fun _ _ _ main b ->
        let l = Label.Gen.fresh ~hint:"gone" main.Func.label_gen in
        gone := Label.id l;
        b.Block.term <- Instr.Jump l)
  in
  Alcotest.(check string) "jump to no block"
    (Fmt.str "invalid: Func.find_block: main has no block gone%d" !gone) text;
  Alcotest.(check int) "its entry is counted" 1
    (Alias_profile.block_count p ~func:"main" ~label_id:!gone);
  (* a site's count and its (location, hits) targets *)
  let touches p site =
    ( Alias_profile.count p site,
      List.map
        (fun l -> (Location.to_string l, Alias_profile.touch_count p site l))
        (Location.Set.elements (Alias_profile.targets p site)) )
  in
  let check_site what p site want =
    Alcotest.(check (pair int (list (pair string int)))) what want (touches p site)
  in
  let load ?(dst = Temp.Gen.fresh (Temp.Gen.create ()) Mem_ty.I64) s offset site =
    Instr.Load { dst; addr = { Ops.base = Ops.Sym s; offset }; mty = Mem_ty.I64; site;
                 promo = Instr.P_none }
  in
  let local main sym name =
    let s = sym name Symbol.Local in
    Func.add_local main s;
    s
  in
  (* a global array's interior: arr spans 0x1000-0x101f *)
  let arr = ref "" in
  let text, p =
    fault (fun prog _ _ _ b ->
        let a =
          Symbol.Gen.fresh prog.Program.sym_gen ~name:"arr" ~storage:Symbol.Global
            ~mty:Mem_ty.I64 ~size_bytes:32 ~is_scalar:false
        in
        Program.add_global prog a Program.Init_zero;
        arr := Location.to_string (Location.Sym a);
        List.iter (Block.append b) [ load a 16 1; load a 12 2 ])
  in
  Alcotest.(check string) "unaligned interior offset" "unaligned access at 0x100c" text;
  check_site "interior offset: the array" p 1 (1, [ (!arr, 1) ]);
  check_site "unaligned interior offset: recorded, then faults" p 2 (1, [ (!arr, 1) ]);
  (* x spans 0x1000-0x1007; its red zone follows *)
  let text, p =
    fault (fun _ _ sym main b -> Block.append b (load (local main sym "x") 8 1))
  in
  Alcotest.(check string) "offset into a red zone" "wild access at 0x1008" text;
  check_site "red zone: not recorded" p 1 (0, []);
  (* x spans 0x1000-0x1007 and y 0x1010-0x1017: x + 16 is y *)
  let y = ref "" in
  let text, p =
    fault (fun _ _ sym main b ->
        let ys = local main sym "y" in
        let xs = local main sym "x" in
        y := Location.to_string (Location.Sym ys);
        let v = Func.fresh_temp main Mem_ty.I64 in
        List.iter (Block.append b)
          [ Instr.Store { src = Ops.Int 7L; addr = Ops.addr_of_sym ys; mty = Mem_ty.I64;
                          site = 1 };
            load ~dst:v xs 16 2 ];
        b.Block.term <- Instr.Ret (Some (Ops.Temp v)))
  in
  Alcotest.(check string) "offset into the neighbour reads it" "exit 7" text;
  check_site "neighbour: the store" p 1 (1, [ (!y, 1) ]);
  check_site "neighbour: the load" p 2 (1, [ (!y, 1) ])

(* The interpreter checks a malloc size as the int64 the program passed:
   (1 << 63) + 8 is negative, and 1 << 62 fits no region. *)
let test_interp_malloc_int64_size () =
  let error src =
    match Srp_profile.Interp.run_program (Lower.compile_source src) with
    | _ -> None
    | exception Value.Interp_error e -> Some e
  in
  Alcotest.(check (option string)) "(1 << 63) + 8" (Some "malloc of negative size")
    (error "int main() { int* p = malloc((1 << 63) + 8); *p = 5; print_int(*p); return 0; }");
  Alcotest.(check (option string)) "1 << 62"
    (Some "alloc: region of 4611686018427387904 bytes exceeds the 134217728-byte limit")
    (error "int main() { int* p = malloc(1 << 62); *p = 5; print_int(*p); return 0; }")

(* A base no native int holds is refused by name, not narrowed. *)
let test_alloc_at_wide_base () =
  let m = Memory.create () in
  let base = 0x8000_0000_0000_1000L in
  Alcotest.(check (option string)) "refused"
    (Some "alloc_at: base 0x8000000000001000 is outside the address space")
    (match Memory.alloc_at m ~base ~size:8 ~loc:(Location.Heap 0) with
    | _ -> None
    | exception Value.Interp_error e -> Some e);
  Alcotest.(check bool) "nothing placed at 0x1000" true
    (location_of_addr m 0x1000L = None)

(* The saved text of every kernel's train profile, pinned by MD5 and
   length: the figures were taken from the writer that formatted each
   line with [Fmt.str], so the [Buffer] writer must give the same bytes
   (and the promote keys derived from them stay where they were). *)
let saved_train_profiles =
  [ ("gzip", "767d3dce60778a6afc06d8c61b95b9ee", 5625);
    ("vpr", "e5faff2878d1800352338b236ab6400c", 4549);
    ("mcf", "83c366d29f79d5271337bcdb5d2fb582", 6460);
    ("parser", "2e316af66dcd4ecdaf4b3f78e19680fe", 4237);
    ("bzip2", "4ef5e7850ca97100014d2ad06c33c727", 4199);
    ("twolf", "b060827f05bbf549586e9133b28b0fbd", 6019);
    ("gap", "4acd00958d90a9ac1ca8bee9742c3133", 4465);
    ("ammp", "94b2960564b68820a7c8529375b6f732", 5294);
    ("art", "381a828daced8d253a23ef1a32711643", 3267);
    ("equake", "6efb7a12105f4245e13a9fd0993ec4a6", 3869) ]

let test_save_text_pinned () =
  List.iter
    (fun (name, md5, len) ->
      let w = Srp_workloads.Registry.find name in
      let text = Alias_profile.save (Srp_driver.Pipeline.train_profile w) in
      Alcotest.(check (pair string int))
        (name ^ " train profile text")
        (md5, len)
        (Digest.to_hex (Digest.string text), String.length text))
    saved_train_profiles

let suite =
  suite
  @ [ Alcotest.test_case "profile save/load roundtrip" `Quick
        test_profile_roundtrip;
      Alcotest.test_case "saved text pinned on kernel train profiles" `Quick
        test_save_text_pinned;
      QCheck_alcotest.to_alcotest prop_save_load_save;
      QCheck_alcotest.to_alcotest prop_load_preserves_queries;
      Alcotest.test_case "v1 profile migration" `Quick test_v1_migration;
      Alcotest.test_case "count-0 site not executed" `Quick
        test_count0_site_not_executed;
      Alcotest.test_case "load rejects corrupt profiles" `Quick
        test_load_rejects_corruption;
      Alcotest.test_case "profile exact on kernel train runs" `Quick
        test_profile_exact_kernels;
      Alcotest.test_case "profile exact on gen_minic seeds" `Quick
        test_profile_exact_random;
      Alcotest.test_case "profile kept when fuel runs out mid-loop" `Quick
        test_fuel_mid_loop_profile;
      Alcotest.test_case "interpreter fault texts" `Quick test_interp_fault_texts;
      Alcotest.test_case "malloc size checked as int64 (interp)" `Quick
        test_interp_malloc_int64_size;
      Alcotest.test_case "alloc_at refuses a base outside int" `Quick
        test_alloc_at_wide_base ]
