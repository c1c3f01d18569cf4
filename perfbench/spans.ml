(* The benchmark's own span recorder.

   Spans are recorded from the benchmark's code, around each call it
   makes into a layer of the program, and kept in memory until the run
   ends.  Each span carries its wall time and the words the OCaml heap
   allocated inside it.  [write] emits them in the program's
   srp-spans-v1 shape (Chrome trace-event complete events), so
   `srp report FILE` renders the benchmark's flamegraph.

   Recording is off unless [start] was called: an untraced run pays one
   branch per call site. *)

type span = {
  name : string;
  phase : string; (* "setup", "warmup", "timed" or "check" *)
  round : int; (* set-up repetition or timed round, from 0 *)
  start_ns : int64;
  dur_s : float;
  words : float;
}

let on = ref false
let phase = ref "setup"
let round = ref 0
let recorded : span list ref = ref []
let origin = ref 0L

let start () =
  on := true;
  recorded := [];
  origin := Srp_obs.Clock.ns ()

(* Words allocated on the OCaml heap so far: minor-heap words plus words
   allocated directly in the major heap (major minus promoted).  The minor
   part comes from [Gc.minor_words], which is exact; the minor part of
   [Gc.counters] is not on OCaml 5.1 (it misses most of the words
   allocated since the last minor collection). *)
let words () : float =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let with_span name (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    let w0 = words () in
    let t0 = Srp_obs.Clock.ns () in
    let finish () =
      let t1 = Srp_obs.Clock.ns () in
      recorded :=
        { name; phase = !phase; round = !round; start_ns = t0;
          dur_s = Int64.to_float (Int64.sub t1 t0) /. 1e9;
          words = words () -. w0 }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Seconds of the spans called [name] in phase [p], all rounds. *)
let seconds ?(p = "timed") name : float =
  List.fold_left
    (fun a sp -> if sp.name = name && sp.phase = p then a +. sp.dur_s else a)
    0.0 !recorded

(* Heap words allocated in the spans called [name] in round 0 of phase
   [p]; one round, so the count is exact and repeats from run to run. *)
let words_round0 ?(p = "timed") name : float =
  List.fold_left
    (fun a sp ->
      if sp.name = name && sp.phase = p && sp.round = 0 then a +. sp.words
      else a)
    0.0 !recorded

let write (path : string) : unit =
  let open Srp_obs.Json in
  let us ns = Int64.to_float (Int64.sub ns !origin) /. 1e3 in
  let event s =
    Obj
      [ ("name", String s.name); ("cat", String "perfbench");
        ("ph", String "X"); ("ts", Float (us s.start_ns));
        ("dur", Float (s.dur_s *. 1e6)); ("pid", Int 1); ("tid", Int 0);
        ("args",
          Obj
            [ ("phase", String s.phase); ("round", Int s.round);
              ("words", Float s.words) ]) ]
  in
  let oc = open_out path in
  output_string oc (to_string (Arr (List.rev_map event !recorded)));
  output_char oc '\n';
  close_out oc
