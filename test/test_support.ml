(* Tests for the support library: growable vectors, the PRNG and the
   table renderer. *)

open Srp_support

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "get 99" 9801 (Vec.get v 99)

let test_vec_pop_top () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.(check int) "top" 3 (Vec.top v);
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "top after pop" 2 (Vec.top v);
  Alcotest.(check int) "length" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v);
      ignore (Vec.pop v))

let test_vec_set_iter () =
  let v = Vec.make ~dummy:0 5 1 in
  Vec.set v 2 42;
  let sum = Vec.fold_left ( + ) 0 v in
  Alcotest.(check int) "fold after set" (1 + 1 + 42 + 1 + 1) sum;
  let count = ref 0 in
  Vec.iteri (fun i x -> if i = 2 then count := x) v;
  Alcotest.(check int) "iteri sees set" 42 !count

let test_vec_clear () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Vec.clear v;
  Alcotest.(check bool) "empty after clear" true (Vec.is_empty v);
  Vec.push v 9;
  Alcotest.(check int) "reusable" 9 (Vec.get v 0)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of range"
  done;
  let f = Rng.float r in
  if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range"

let test_rng_pick_shuffle () =
  let r = Rng.create 3 in
  let arr = [| 10; 20; 30 |] in
  let v = Rng.pick r arr in
  Alcotest.(check bool) "pick member" true (Array.exists (( = ) v) arr);
  let arr2 = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_id_gen () =
  let g = Id_gen.create () in
  Alcotest.(check int) "first" 0 (Id_gen.fresh g);
  Alcotest.(check int) "second" 1 (Id_gen.fresh g);
  Alcotest.(check int) "count" 2 (Id_gen.count g)

let test_render_table () =
  let t =
    Pp_util.render_table ~header:[ "name"; "v" ]
      ~rows:[ [ "a"; "10" ]; [ "bb"; "3" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length t > 0 && String.sub t 0 4 = "name");
  (* columns align: every line has the same length or more *)
  let lines = String.split_on_char '\n' t |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "4 lines (header, rule, 2 rows)" 4 (List.length lines)

let test_pad () =
  Alcotest.(check string) "pad" "ab " (Pp_util.pad 3 "ab");
  Alcotest.(check string) "lpad" " ab" (Pp_util.lpad 3 "ab");
  Alcotest.(check string) "pad overflow" "abcd" (Pp_util.pad 3 "abcd")

let suite =
  [ Alcotest.test_case "vec push/get" `Quick test_vec_push_get;
    Alcotest.test_case "vec pop/top" `Quick test_vec_pop_top;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec set/iter" `Quick test_vec_set_iter;
    Alcotest.test_case "vec clear" `Quick test_vec_clear;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng pick/shuffle" `Quick test_rng_pick_shuffle;
    Alcotest.test_case "id gen" `Quick test_id_gen;
    Alcotest.test_case "render table" `Quick test_render_table;
    Alcotest.test_case "pad/lpad" `Quick test_pad ]
