(* Host-speed calibration.

   The host is shared: the same simulation takes anywhere from 0.45 to
   0.9 s depending on what the neighbours are doing, and there are no
   instruction counters to measure instead of time.  So while every
   timed stretch of the benchmark runs, a fixed, allocation-free loop is
   run in short bursts ([during]); the loop's own speed tracks the host's
   at that moment, and host seconds are rescaled to "reference-host"
   seconds:

     reference seconds = raw seconds * (calib_ref / calib_measured) ^ k

   [calib_ref] is a constant recorded in BENCHMARK.json; [calib_measured]
   is the loop's speed during the stretch (see [during]); k is
   [sensitivity].

   The loop is a small bytecode interpreter — the shape of the
   simulator's own inner loop: fetch an instruction, dispatch on its
   opcode, read and write registers, load and store in a 1 MB window that
   slides across a 32 MB buffer.  Program, registers and memory are
   Bigarrays, outside the OCaml heap, so the program's heap and GC cannot
   change the loop's time.  Of the loops tried (streaming, ALU-bound,
   random access in windows of 256 KB to 32 MB, pointer chasing, this
   one), this one's time tracked the simulator's best; see README.md. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let slots = 4 * 1024 * 1024 (* 32 MB of 8-byte ints *)
let window = 131_072 (* 1 MB *)
let code_len = 4096
let steps = 3_000_000

let ints n f : ints =
  let a = Array1.create int c_layout n in
  for i = 0 to n - 1 do
    Array1.unsafe_set a i (f i)
  done;
  a

(* The interpreter's program, registers, memory, and its position (program
   counter, window base, step count in [pos]): it resumes where it
   stopped, so short bursts walk the whole buffer just as long samples
   do. *)
let state : (ints * ints * ints * ints) Lazy.t =
  lazy
    (let rng = Random.State.make [| 7 |] in
     ( ints code_len (fun _ -> Random.State.int rng (1 lsl 20)),
       ints 16 (fun _ -> 1),
       ints slots (fun i -> i * 7919),
       ints 3 (fun _ -> 0) ))

let interpret steps =
  let code, regs, mem, pos = Lazy.force state in
  let mask = slots - 1 and wmask = window - 1 in
  let pc = ref (Array1.unsafe_get pos 0)
  and base = ref (Array1.unsafe_get pos 1)
  and t = ref (Array1.unsafe_get pos 2) in
  for _ = 1 to steps do
    let ins = Array1.unsafe_get code !pc in
    let ra = (ins lsr 3) land 15 and rb = (ins lsr 7) land 15 in
    let va = Array1.unsafe_get regs ra and vb = Array1.unsafe_get regs rb in
    (match ins land 7 with
    | 0 -> Array1.unsafe_set regs ra (va + vb)
    | 1 -> Array1.unsafe_set regs ra (va lxor (vb lsl 1))
    | 2 -> Array1.unsafe_set regs ra ((va * 0x9E3779B1) + 1)
    | 3 ->
      Array1.unsafe_set regs ra
        (Array1.unsafe_get mem ((!base + (vb land wmask)) land mask))
    | 4 -> Array1.unsafe_set mem ((!base + (va land wmask)) land mask) vb
    | 5 -> if va land 1 = 1 then pc := !pc + 1
    | 6 -> Array1.unsafe_set regs ra (va lsr 3)
    | _ -> Array1.unsafe_set regs ra (vb - va));
    pc := (!pc + 1) land (code_len - 1);
    incr t;
    if !t land 65535 = 0 then base := (!base + window) land mask
  done;
  Array1.unsafe_set pos 0 !pc;
  Array1.unsafe_set pos 1 !base;
  Array1.unsafe_set pos 2 !t

(* One calibration sample: seconds taken by [steps] steps. *)
let sample () : float =
  let t0 = Srp_obs.Clock.now () in
  interpret steps;
  Srp_obs.Clock.now () -. t0

(* Calibration during a timed stretch.  A stretch of a few seconds can
   meet several changes of the host's speed that samples taken before and
   after it never see.  So while [f] runs, an interval timer interrupts it
   every [period] seconds for a burst of [burst_steps] interpreter steps,
   and the bursts' own CPU time is summed.  Bursts allocate nothing, so
   the heap words counted inside [f] do not change. *)
let burst_steps = 10_000
let period = 0.005

let bursts : (float, float64_elt, c_layout) Array1.t =
  Array1.create float64 c_layout 2 (* seconds, count *)

let burst (_ : int) =
  let t0 = Sys.time () in
  interpret burst_steps;
  Array1.unsafe_set bursts 0
    (Array1.unsafe_get bursts 0 +. (Sys.time () -. t0));
  Array1.unsafe_set bursts 1 (Array1.unsafe_get bursts 1 +. 1.0)

type stretch = {
  wall : float;  (** wall seconds, bursts included *)
  seconds : float;  (** wall seconds of [f] alone, bursts taken out *)
  calib : float option;
      (** the bursts' speed, as seconds per [steps] steps; [None] when
          too few bursts landed to tell *)
}

(* The calibration of a stretch: its bursts, or a sample taken right
   after it when it was too short for bursts. *)
let of_stretch st = match st.calib with Some c -> c | None -> sample ()

let during (f : unit -> unit) : stretch =
  ignore (Lazy.force state);
  Array1.fill bursts 0.0;
  let timer v = { Unix.it_interval = v; it_value = v } in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle burst) in
  let t0 = Srp_obs.Clock.now () in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer period));
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0)));
  let wall = Srp_obs.Clock.now () -. t0 in
  Sys.set_signal Sys.sigalrm old;
  let spent = bursts.{0} and n = bursts.{1} in
  { wall;
    seconds = wall -. spent;
    calib =
      (if n >= 10.0 then
         Some (spent /. (n *. float_of_int burst_steps) *. float_of_int steps)
       else None) }

(* The program's time moves more than the loop's when the host is
   contended.  On this host, log(program slowdown) / log(loop slowdown)
   was 1.30 to 1.48 on three workloads that slowed 1.9-2.2x, and 1.6 to
   1.7 in a 225-run sample of one simulation.  So the loop's slowdown is
   raised to this power.  On a quiet host [calib] is close to [calib_ref]
   and the power hardly matters. *)
let sensitivity = 1.5

let rescale ~calib_ref ~calib raw = raw *. ((calib_ref /. calib) ** sensitivity)
