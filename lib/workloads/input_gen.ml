(* Deterministic input generation for the kernels.  Every array is produced
   by the seeded splitmix PRNG, so train and ref inputs are reproducible
   bit-for-bit across runs and machines. *)

open Srp_ir

let ints ~seed ~n ~lo ~hi : Program.global_init =
  let rng = Srp_support.Rng.create seed in
  Program.Init_ints
    (Program.Payload.of_array
       (Array.init n (fun _ -> Int64.of_int (lo + Srp_support.Rng.int rng (hi - lo + 1)))))

(* 0/1 array where each element is 1 with probability [p]. *)
let flags ~seed ~n ~p : Program.global_init =
  let rng = Srp_support.Rng.create seed in
  Program.Init_ints
    (Program.Payload.of_array
       (Array.init n (fun _ -> if Srp_support.Rng.chance rng p then 1L else 0L)))

let floats ~seed ~n ~lo ~hi : Program.global_init =
  let rng = Srp_support.Rng.create seed in
  Program.Init_floats
    (Program.Payload.of_array
       (Array.init n (fun _ -> lo +. (Srp_support.Rng.float rng *. (hi -. lo)))))

let scalar_int v : Program.global_init =
  Program.Init_ints (Program.Payload.of_array [| Int64.of_int v |])
