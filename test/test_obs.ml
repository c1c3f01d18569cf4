(* Tests for the observability layer (lib/obs) and its wiring: JSON
   round-trips, the pass-statistics registry, per-site event attribution
   (histogram sums must equal the global counters), the counter
   field-count guard, the bounded trace sink, ablation wiring and the
   emitted `srp run --json` / bench documents. *)

open Srp_driver
module J = Srp_obs.Json
module Stats = Srp_obs.Stats
module Site_hist = Srp_obs.Site_hist
module Trace = Srp_obs.Trace
module C = Srp_machine.Counters

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* pretty-printable Json.t for alcotest equality *)
let json_testable : J.t Alcotest.testable =
  Alcotest.testable (fun ppf j -> Fmt.string ppf (J.to_string j)) ( = )

let parse_ok s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse of %S failed: %s" s e

(* --- Json --- *)

let roundtrip j =
  Alcotest.check json_testable
    (Fmt.str "compact round-trip of %s" (J.to_string j))
    j
    (parse_ok (J.to_string j));
  Alcotest.check json_testable "indented round-trip" j
    (parse_ok (J.to_string ~indent:2 j))

let test_json_roundtrip () =
  roundtrip J.Null;
  roundtrip (J.Bool true);
  roundtrip (J.Bool false);
  roundtrip (J.Int 0);
  roundtrip (J.Int (-42));
  roundtrip (J.Int max_int);
  roundtrip (J.Float 1.5);
  roundtrip (J.Float (-0.25));
  roundtrip (J.Float 3.141592653589793);
  (* whole-number floats must stay Float through the round-trip *)
  roundtrip (J.Float 2.0);
  roundtrip (J.String "");
  roundtrip (J.String "a\"b\\c\nd\te\r\x0c\x08f");
  roundtrip (J.String "unicode: \xc3\xa9\xe2\x82\xac");
  roundtrip (J.Arr []);
  roundtrip (J.Obj []);
  roundtrip
    (J.Obj
       [ ("a", J.Arr [ J.Int 1; J.Float 2.5; J.Null ]);
         ("nested", J.Obj [ ("b", J.Bool false); ("s", J.String "x y") ]);
         ("empty", J.Arr []) ])

let test_json_special_floats () =
  (* NaN / infinities are not representable in JSON: encoded as null *)
  Alcotest.(check string) "nan" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf" "null" (J.to_string (J.Float Float.infinity))

let test_json_escapes_control_chars () =
  let s = J.to_string (J.String "a\nb\x01c") in
  Alcotest.(check bool) "newline escaped" true (contains ~needle:"\\n" s);
  Alcotest.(check bool) "control escaped" true (contains ~needle:"\\u0001" s);
  Alcotest.check json_testable "still parses back" (J.String "a\nb\x01c")
    (parse_ok s)

let test_json_parse_unicode_escape () =
  Alcotest.check json_testable "\\u00e9 decodes to UTF-8"
    (J.String "\xc3\xa9")
    (parse_ok {|"é"|})

let test_json_parse_errors () =
  let rejects s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "parser accepted %S" s
    | Error _ -> ()
  in
  List.iter rejects
    [ ""; "{"; "["; "tru"; "nul"; "\"unterminated"; "{\"a\":}"; "[1,]";
      "{\"a\" 1}"; "1 2" (* trailing garbage *); "{} []"; "'single'";
      "+1"; "01a" ]

let test_json_accessors () =
  let doc = parse_ok {|{"a": 1, "b": [true, "x"], "f": 2.5}|} in
  Alcotest.(check (option int)) "member a" (Some 1)
    (Option.bind (J.member "a" doc) J.to_int_opt);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (J.member "zzz" doc) J.to_int_opt);
  Alcotest.(check bool) "to_float_opt accepts Int" true
    (Option.bind (J.member "a" doc) J.to_float_opt = Some 1.0);
  Alcotest.(check bool) "to_float_opt on Float" true
    (Option.bind (J.member "f" doc) J.to_float_opt = Some 2.5);
  (match Option.bind (J.member "b" doc) J.to_list_opt with
  | Some [ J.Bool true; J.String "x" ] -> ()
  | _ -> Alcotest.fail "to_list_opt shape");
  Alcotest.(check (option string)) "to_string_opt" (Some "x")
    (match J.member "b" doc with
    | Some (J.Arr [ _; s ]) -> J.to_string_opt s
    | _ -> None)

(* The encoder's exact bytes, compact and indented: integers at both ends
   of the range, escapes, and nesting. *)
let test_json_exact_strings () =
  List.iter
    (fun (expected, v) -> Alcotest.(check string) expected expected (J.to_string v))
    [ ("-4611686018427387904", J.Int min_int);
      ("4611686018427387903", J.Int max_int);
      ("0", J.Int 0);
      ("-7", J.Int (-7));
      ("-10", J.Int (-10));
      ("1000", J.Int 1000);
      ({|"say \"hi\""|}, J.String {|say "hi"|});
      ({|"a\\b\\"|}, J.String {|a\b\|});
      ( {|"\u0000\u001f\n\t\r\b\f|} ^ "\x7f\xc3\xa9\"",
        J.String "\x00\x1f\n\t\r\b\x0c\x7f\xc3\xa9" );
      (* floats: the %.12g text when it round-trips, else the %.17g text *)
      ("-0.0", J.Float (-0.0));
      ("4.94065645841e-324", J.Float 5e-324);
      ("1e+21", J.Float 1e21);
      ("2.0", J.Float 2.0);
      ("0.080666666666666664", J.Float 0.080666666666666664);
      ("1.2345678901234568e+17", J.Float 123456789012345678.0);
      ("null", J.Float Float.nan);
      ({|{"a":[1,{"b":null,"c":[true,-2.5]}],"d":{},"e":[]}|},
       J.Obj
         [ ( "a",
             J.Arr
               [ J.Int 1;
                 J.Obj
                   [ ("b", J.Null); ("c", J.Arr [ J.Bool true; J.Float (-2.5) ]) ]
               ] );
           ("d", J.Obj []); ("e", J.Arr []) ]) ];
  Alcotest.(check string) "indent 2"
    "{\n  \"a\": [\n    1,\n    {\n      \"b\": null\n    }\n  ],\n\
    \  \"c\": [],\n  \"d\": 2.0\n}"
    (J.to_string ~indent:2
       (J.Obj
          [ ("a", J.Arr [ J.Int 1; J.Obj [ ("b", J.Null) ] ]); ("c", J.Arr []);
            ("d", J.Float 2.0) ]));
  let buf = Buffer.create 4 in
  Buffer.add_string buf "x";
  J.add_int buf min_int;
  J.add_string buf "\"";
  Alcotest.(check string) "add_int and add_string append the compact form"
    ("x" ^ J.to_string (J.Int min_int) ^ J.to_string (J.String "\""))
    (Buffer.contents buf)

(* Any value with finite floats survives encode-then-parse, compact and
   indented. *)
let prop_json_roundtrip =
  let open QCheck.Gen in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let leaf =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map (fun x -> J.Float x) finite;
        map (fun s -> J.String s) string ]
  in
  let gen =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [ (3, leaf);
                 ( 1,
                   map (fun xs -> J.Arr xs)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map (fun kvs -> J.Obj kvs)
                     (list_size (int_bound 4) (pair string (self (n / 2)))) ) ])
  in
  QCheck.Test.make ~count:500 ~name:"json: of_string (to_string v) = v"
    (QCheck.make ~print:(fun v -> J.to_string v) gen)
    (fun v ->
      J.of_string (J.to_string v) = Ok v
      && J.of_string (J.to_string ~indent:2 v) = Ok v)

(* One field of a trace record, as the direct writer takes it. *)
type field =
  | F_int of int
  | F_str of string
  | F_bool of bool
  | F_float of float
  | F_ints of int list
  | F_hex of int64

(* The writer's field, and the [Json.t] it must encode as. *)
let write_field sink k = function
  | F_int i -> Trace.int sink k i
  | F_str s -> Trace.str sink k s
  | F_bool b -> Trace.bool sink k b
  | F_float x -> Trace.float sink k x
  | F_ints is -> Trace.ints sink k is
  | F_hex v -> Trace.hex sink k v

let field_json = function
  | F_int i -> J.Int i
  | F_str s -> J.String s
  | F_bool b -> J.Bool b
  | F_float x -> J.Float x
  | F_ints is -> J.Arr (List.map (fun i -> J.Int i) is)
  | F_hex v -> J.String (Printf.sprintf "0x%Lx" v)

(* The direct writer is the generic encoder, byte for byte: every line a
   sink writes is [Json.to_string] of the same record as an [Obj], plus a
   newline.  Several records share one sink, and floats come partly from
   a small pool, so the sink's remembered float texts are hit, [-0.0]
   beside [0.0] among them. *)
let prop_trace_writer_is_encoder =
  let open QCheck.Gen in
  let int = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let str =
    oneof
      [ string; string_printable;
        oneofl [ {|say "hi"|}; {|a\b\|}; "\x00\x1f\n\t\r\b\x0c\x7f"; "" ] ]
  in
  let float =
    oneof
      [ float;
        oneofl
          [ -0.0; 0.0; 5e-324; 1e21; 2.0; 0.080666666666666664; Float.nan;
            Float.infinity ] ]
  in
  let hex =
    oneof
      [ int64; map Int64.of_int int;
        oneofl [ 0L; 15L; 16L; -1L; Int64.min_int; Int64.max_int ] ]
  in
  let field =
    oneof
      [ map (fun i -> F_int i) int; map (fun s -> F_str s) str;
        map (fun b -> F_bool b) bool; map (fun x -> F_float x) float;
        map (fun is -> F_ints is) (list_size (int_bound 3) int);
        map (fun v -> F_hex v) hex ]
  in
  let record = triple int str (list_size (int_bound 6) (pair str field)) in
  let print (cycle, kind, fields) =
    J.to_string
      (J.Obj
         (("c", J.Int cycle) :: ("ev", J.String kind)
         :: List.map (fun (k, f) -> (k, field_json f)) fields))
  in
  QCheck.Test.make ~count:300 ~name:"trace: direct writer = Json encoder"
    (QCheck.make
       ~print:(fun rs -> String.concat "\n" (List.map print rs))
       (list_size (int_range 1 4) record))
    (fun records ->
      let path = Filename.temp_file "srp_obs_writer" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let oc = open_out_bin path in
      let sink = Trace.create oc in
      List.iter
        (fun (cycle, kind, fields) ->
          assert (Trace.admit sink);
          Trace.start sink ~cycle kind;
          List.iter (fun (k, f) -> write_field sink (Trace.key k) f) fields;
          Trace.finish sink)
        records;
      Trace.close sink;
      close_out oc;
      let written = In_channel.with_open_bin path In_channel.input_all in
      String.equal written
        (String.concat "" (List.map (fun r -> print r ^ "\n") records)))

(* --- Counters: the field-count guard (satellite a) --- *)

let test_counters_field_guard () =
  let c = C.create () in
  (* Every field of Counters.t is an immediate int, so the runtime block
     size is exactly the field count: adding a field without extending
     to_fields (which feeds pp, to_json and the per-site cross-check)
     fails here. *)
  Alcotest.(check int) "to_fields covers every record field"
    (Obj.size (Obj.repr c))
    (List.length (C.to_fields c));
  let names = List.map fst (C.to_fields c) in
  Alcotest.(check int) "field names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_counters_pp_prints_all_fields () =
  let c = C.create () in
  let s = Fmt.str "%a" C.pp c in
  (* the fields the old pp dropped, plus a sentinel old one *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " printed") true (contains ~needle:n s))
    [ "rse_spilled_regs"; "rse_filled_regs"; "max_stacked_regs"; "cycles" ]

let test_counters_to_json () =
  let c = C.create () in
  c.C.loads_retired <- 7;
  let doc = C.to_json c in
  Alcotest.(check (option int)) "loads_retired" (Some 7)
    (Option.bind (J.member "loads_retired" doc) J.to_int_opt);
  match doc with
  | J.Obj fields ->
    Alcotest.(check int) "json has every field" (List.length (C.to_fields c))
      (List.length fields)
  | _ -> Alcotest.fail "counters json is not an object"

(* --- Stats registry --- *)

let test_stats_counters () =
  Stats.reset ();
  let c = Stats.counter ~pass:"obs-test" "widgets" in
  Stats.incr c;
  Stats.add c 4;
  Alcotest.(check int) "accumulated" 5 (Stats.value c);
  (* find-or-create is idempotent: same handle, same value *)
  Alcotest.(check int) "idempotent lookup" 5
    (Stats.value (Stats.counter ~pass:"obs-test" "widgets"));
  let m = Stats.counter ~pass:"obs-test" "high-water" in
  Stats.set_max m 3;
  Stats.set_max m 9;
  Stats.set_max m 2;
  Alcotest.(check int) "set_max keeps the max" 9 (Stats.value m)

let test_stats_timer_and_report () =
  Stats.reset ();
  let r = Stats.time ~pass:"obs-test" "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "time returns f ()" 42 r;
  ignore (Stats.time ~pass:"obs-test" "work" (fun () -> ()));
  (* exceptions propagate but the call is still accounted *)
  (try Stats.time ~pass:"obs-test" "work" (fun () -> failwith "boom")
   with Failure _ -> ());
  ignore (Stats.counter ~pass:"obs-test" "widgets");
  let rep = Stats.report () in
  Alcotest.(check bool) "report mentions the timer" true
    (contains ~needle:"work" rep);
  Alcotest.(check bool) "report mentions the counter" true
    (contains ~needle:"widgets" rep);
  (match Stats.to_json () with
  | J.Arr entries ->
    Alcotest.(check int) "one json entry per statistic" 2 (List.length entries);
    let timer =
      List.find
        (fun e -> Option.bind (J.member "name" e) J.to_string_opt = Some "work")
        entries
    in
    Alcotest.(check (option int)) "timer call count" (Some 3)
      (Option.bind (J.member "calls" timer) J.to_int_opt)
  | _ -> Alcotest.fail "stats json is not an array");
  Stats.reset ();
  match Stats.to_json () with
  | J.Arr [] -> ()
  | _ -> Alcotest.fail "reset did not clear the registry"

(* Timed scopes use a monotonic wall clock, not Sys.time.  Sys.time is
   *process* CPU time: two domains spinning concurrently advance it at
   twice the wall rate, so each scope would record ~2x its own duration
   (the bug this pins down).  Each domain spins for a fixed wall-clock
   target, so with the wall clock every scope records ~target seconds
   regardless of what other domains do. *)
let test_stats_parallel_no_double_count () =
  Stats.reset ();
  let target = 0.05 in
  let spin () =
    let t0 = Srp_obs.Clock.now () in
    while Srp_obs.Clock.now () -. t0 < target do
      ()
    done
  in
  (* each worker times its own scope from outside: a descheduled domain
     stretches both its scope and this measure alike *)
  let worker () =
    let t0 = Srp_obs.Clock.now () in
    Stats.time ~pass:"obs-test" "parallel-scope" spin;
    Srp_obs.Clock.now () -. t0
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let outside = Domain.join d1 +. Domain.join d2 in
  match Stats.find ~pass:"obs-test" "parallel-scope" with
  | None -> Alcotest.fail "timer not recorded"
  | Some (calls, secs) ->
    Alcotest.(check int) "both scopes recorded" 2 calls;
    Alcotest.(check bool)
      (Fmt.str "no CPU-time double-count (%.3fs for 2 x %.3fs scopes, %.3fs measured outside)"
         secs target outside)
      true
      (secs >= 2.0 *. target && secs <= outside)

(* --- Site_hist --- *)

let test_site_hist_basics () =
  let h = Site_hist.create () in
  Site_hist.record h ~site:3 Site_hist.Loads_retired;
  Site_hist.record h ~site:3 Site_hist.Loads_retired;
  Site_hist.record h ~site:7 Site_hist.Loads_retired;
  Site_hist.record h ~site:7 Site_hist.Check_failures;
  Site_hist.record h ~site:1 Site_hist.Alat_inserts;
  Alcotest.(check int) "count" 2 (Site_hist.count h ~site:3 Site_hist.Loads_retired);
  Alcotest.(check int) "count absent" 0
    (Site_hist.count h ~site:99 Site_hist.Loads_retired);
  Alcotest.(check int) "total" 3 (Site_hist.total h Site_hist.Loads_retired);
  Alcotest.(check (list int)) "sites ascending" [ 1; 3; 7 ] (Site_hist.sites h);
  Alcotest.(check (list (pair int int))) "top ranked desc"
    [ (3, 2); (7, 1) ]
    (Site_hist.top h Site_hist.Loads_retired ~n:10);
  Alcotest.(check (list (pair int int))) "top truncates"
    [ (3, 2) ]
    (Site_hist.top h Site_hist.Loads_retired ~n:1);
  (* json omits zero counts *)
  (match Site_hist.to_json h with
  | J.Arr rows ->
    let row1 =
      List.find
        (fun r -> Option.bind (J.member "site" r) J.to_int_opt = Some 1)
        rows
    in
    Alcotest.(check (option int)) "nonzero event present" (Some 1)
      (Option.bind (J.member "alat_inserts" row1) J.to_int_opt);
    Alcotest.(check bool) "zero event omitted" true
      (J.member "loads_retired" row1 = None)
  | _ -> Alcotest.fail "site histogram json is not an array");
  (* event names track the Counters field names *)
  let counter_names = List.map fst (C.to_fields (C.create ())) in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Site_hist.event_name e ^ " is a counter field")
        true
        (List.mem (Site_hist.event_name e) counter_names))
    Site_hist.all_events

(* Dense rows against a hashtable reference: random record streams over
   a sparse spread of sites, the synthetic site -1 included, must give the
   same sites, ranking, counts and JSON. *)
let prop_site_hist_dense =
  let events = Array.of_list Site_hist.all_events in
  let arb =
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (pair
           (oneofl [ -1; 0; 1; 2; 5; 17; 63; 64; 65; 200; 1000 ])
           (int_range 0 (Array.length events - 1))))
  in
  QCheck.Test.make ~count:300 ~name:"site_hist: dense rows = hashtable reference"
    arb (fun stream ->
      let h = Site_hist.create () in
      let r : (int * Site_hist.event, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (site, e) ->
          let ev = events.(e) in
          Site_hist.record h ~site ev;
          Hashtbl.replace r (site, ev)
            (1 + Option.value ~default:0 (Hashtbl.find_opt r (site, ev))))
        stream;
      let ref_count site ev = Option.value ~default:0 (Hashtbl.find_opt r (site, ev)) in
      let ref_sites = List.sort_uniq compare (List.map fst stream) in
      let ref_top ev n =
        List.filter_map
          (fun s -> let c = ref_count s ev in if c > 0 then Some (s, c) else None)
          ref_sites
        |> List.sort (fun (s1, c1) (s2, c2) ->
               if c1 <> c2 then compare c2 c1 else compare s1 s2)
        |> List.filteri (fun k _ -> k < n)
      in
      let ref_json =
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 (("site", J.Int s)
                 :: List.filter_map
                      (fun ev ->
                        let c = ref_count s ev in
                        if c = 0 then None else Some (Site_hist.event_name ev, J.Int c))
                      Site_hist.all_events))
             ref_sites)
      in
      Site_hist.sites h = ref_sites
      && J.to_string (Site_hist.to_json h) = J.to_string ref_json
      && List.for_all
           (fun ev ->
             Site_hist.top h ev ~n:3 = ref_top ev 3
             && Site_hist.top h ev ~n:100 = ref_top ev 100
             && List.for_all
                  (fun s -> Site_hist.count h ~site:s ev = ref_count s ev)
                  (7 :: 5000 :: ref_sites))
           Site_hist.all_events)

(* --- per-site attribution vs global counters (the by-construction
   invariant the emitter documents) --- *)

let test_attribution_sums name () =
  let w = Srp_workloads.Registry.find name in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let r = Pipeline.profile_compile_run small Pipeline.Alat in
  let c = r.Pipeline.counters in
  let h = r.Pipeline.site_stats in
  let field e = List.assoc (Site_hist.event_name e) (C.to_fields c) in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Fmt.str "%s: site sum = global %s" name (Site_hist.event_name e))
        (field e) (Site_hist.total h e))
    Site_hist.all_events;
  Alcotest.(check bool) (name ^ " retired loads") true (c.C.loads_retired > 0)

(* Attribution with the pressure gate actively capping: parser's frames
   overflow the RSE pool, so at the default gate only the promotions
   whose saved latency beats their spill cost survive (27 of 33 on the
   train input) and the build runs with a mix of promoted and gated
   sites.  The per-site histogram must still sum to the global counters
   exactly — a gated site that kept a stale site id, or an edit applied
   outside the accepted set, breaks the equality. *)
let test_attribution_sums_gated () =
  let w = Srp_workloads.Registry.find "parser" in
  let profile = Pipeline.train_profile w in
  let build config =
    let ir = Srp_frontend.Lower.compile_source w.Workload.source in
    Workload.apply_input ir w.Workload.train;
    let res =
      Srp_core.Promote.run ~config ~pressure:(Pipeline.pressure_fn ir) ir
    in
    (res, Srp_target.Codegen.gen_program ir)
  in
  let alat = Srp_core.Config.alat ~profile in
  let full, _ = build { alat with Srp_core.Config.pressure = false } in
  let gated, target = build alat in
  Alcotest.(check bool) "the capped gate rejected at least one promotion" true
    (gated.Srp_core.Promote.stats.Srp_core.Ssapre.exprs_promoted
    < full.Srp_core.Promote.stats.Srp_core.Ssapre.exprs_promoted);
  let m = Srp_machine.Machine.create target in
  let _ = Srp_machine.Machine.run m in
  let c = Srp_machine.Machine.counters m in
  let h = Srp_machine.Machine.site_stats m in
  let field e = List.assoc (Site_hist.event_name e) (C.to_fields c) in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Fmt.str "capped parser: site sum = global %s" (Site_hist.event_name e))
        (field e) (Site_hist.total h e))
    Site_hist.all_events

(* --- trace sink --- *)

let test_trace_bounded () =
  let path = Filename.temp_file "srp_obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let limit = 50 in
  let oc = open_out path in
  let sink = Trace.create ~limit oc in
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let c =
    Pipeline.compile ~profile:(Pipeline.train_profile small)
      ~input:small.Workload.train small Pipeline.Alat
  in
  let _ = Pipeline.run ~trace:sink c in
  Alcotest.(check bool) "hit the bound" true (Trace.dropped sink > 0);
  Alcotest.(check int) "emitted stops at limit" limit (Trace.emitted sink);
  Trace.close sink;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  Alcotest.(check int) "limit + truncated record" (limit + 1)
    (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.failf "trace line is not an object: %s" l
      | Error e -> Alcotest.failf "trace line does not parse: %s (%s)" l e)
    lines;
  let last = parse_ok (List.nth lines limit) in
  Alcotest.(check (option string)) "final truncated record"
    (Some "truncated")
    (Option.bind (J.member "ev" last) J.to_string_opt);
  Alcotest.(check bool) "dropped count positive" true
    (match Option.bind (J.member "dropped" last) J.to_int_opt with
    | Some n -> n > 0
    | None -> false)

(* Driving the sink past its bound emits exactly one
   {"ev":"truncated","dropped":N} record, with N exact. *)
let test_trace_truncation_exact () =
  let path = Filename.temp_file "srp_obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let limit = 10 and total = 25 in
  let oc = open_out path in
  let sink = Trace.create ~limit oc in
  let k_i = Trace.key "i" in
  for i = 1 to total do
    if Trace.admit sink then begin
      Trace.start sink ~cycle:i "tick";
      Trace.int sink k_i i;
      Trace.finish sink
    end
  done;
  Alcotest.(check int) "emitted caps at limit" limit (Trace.emitted sink);
  Trace.close sink;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev_map parse_ok !lines in
  Alcotest.(check int) "exactly limit + 1 lines" (limit + 1)
    (List.length lines);
  let truncs =
    List.filter
      (fun l ->
        Option.bind (J.member "ev" l) J.to_string_opt = Some "truncated")
      lines
  in
  Alcotest.(check int) "exactly one truncated record" 1 (List.length truncs);
  Alcotest.(check (option int)) "dropped count exact" (Some (total - limit))
    (Option.bind (J.member "dropped" (List.hd truncs)) J.to_int_opt)

let test_trace_untruncated () =
  let path = Filename.temp_file "srp_obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Trace.create oc in
  Alcotest.(check bool) "admitted" true (Trace.admit sink);
  Trace.start sink ~cycle:5 "alat.arm";
  Trace.int sink (Trace.key "site") 3;
  Trace.finish sink;
  Trace.close sink;
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  let eof = try ignore (input_line ic); false with End_of_file -> true in
  close_in ic;
  Alcotest.(check bool) "no truncated record when under limit" true eof;
  let doc = parse_ok line in
  Alcotest.(check (option int)) "cycle" (Some 5)
    (Option.bind (J.member "c" doc) J.to_int_opt);
  Alcotest.(check (option string)) "kind" (Some "alat.arm")
    (Option.bind (J.member "ev" doc) J.to_string_opt);
  Alcotest.(check (option int)) "payload" (Some 3)
    (Option.bind (J.member "site" doc) J.to_int_opt)

(* --- the unobserved hot path --- *)

let alat_train name =
  let w = Srp_workloads.Registry.find name in
  let small = { w with Workload.ref_ = w.Workload.train } in
  (Pipeline.compile ~profile:(Pipeline.train_profile small)
     ~input:small.Workload.train small Pipeline.Alat)
    .Pipeline.target

(* Minor-heap words per retired instruction of one run of [m]. *)
let words_per_instr m =
  let before = Gc.minor_words () in
  let _ = Srp_machine.Machine.run m in
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Srp_machine.Machine.counters m).C.instrs_retired

(* With no sink attached the machine builds no trace records, hashes
   nothing and keeps no per-access tables; its register files hold
   unboxed int64s and floats, and loads and stores move raw bits between
   a register and an unboxed memory word at a native-int address, so ALU
   results, immediates, loads and stores allocate nothing.  What still
   allocates is the [Call]/[Ret] argument lists and the per-call register
   frames; a call's stack frame maps page words and allocates no buffer.
   That was 10-16 words per instruction with the trace lists, memory
   hashing and tag records in place, under 7 with boxed register files,
   under 4 with boxed memory words, 0.62 with a word and a tag buffer per
   stack frame, and is 0.55 now.  A sink past its bound was ~30: every
   call site built its record for the sink to drop, until the sink
   admitted each event before the record was built (the next test). *)
let test_unobserved_allocation () =
  let per_instr =
    words_per_instr (Srp_machine.Machine.create (alat_train "gzip"))
  in
  Alcotest.(check bool)
    (Fmt.str "%.2f minor words per retired instruction <= 0.6" per_instr)
    true (per_instr <= 0.6)

(* A saturated sink admits no event, so past its bound the machine
   builds no record and allocates what an unobserved run does. *)
let test_saturated_allocation () =
  let target = alat_train "gzip" in
  let oc = open_out_bin Filename.null in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let sink = Trace.create ~limit:10 oc in
  let per_instr = words_per_instr (Srp_machine.Machine.create ~trace:sink target) in
  Trace.close sink;
  Alcotest.(check int) "the sink wrote its limit" 10 (Trace.emitted sink);
  Alcotest.(check bool) "and dropped the rest" true (Trace.dropped sink > 0);
  Alcotest.(check bool)
    (Fmt.str "%.2f minor words per retired instruction <= 0.6" per_instr)
    true (per_instr <= 0.6)

(* Guarding every trace call site must lose no emission: with an
   unbounded sink, the event kinds that mirror a counter appear exactly
   as often as the counter counts. *)
let test_trace_complete () =
  let target = alat_train "gzip" in
  let path = Filename.temp_file "srp_obs_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Trace.create ~limit:max_int oc in
  let m = Srp_machine.Machine.create ~trace:sink target in
  let _ = Srp_machine.Machine.run m in
  Trace.close sink;
  close_out oc;
  let kinds = Hashtbl.create 16 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       (* every record starts {"c":N,"ev":"KIND", *)
       let k = String.index line ',' + 7 in
       let kind = String.sub line k (String.index_from line k '"' - k) in
       Hashtbl.replace kinds kind
         (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind))
     done
   with End_of_file -> ());
  close_in ic;
  let n kind = Option.value ~default:0 (Hashtbl.find_opt kinds kind) in
  let c = Srp_machine.Machine.counters m in
  Alcotest.(check int) "the trace was not truncated" 0 (Trace.dropped sink);
  Alcotest.(check int) "one i record per retired instruction" c.C.instrs_retired (n "i");
  Alcotest.(check int) "split = split_stalls" c.C.split_stalls (n "split");
  Alcotest.(check int) "br.mispredict = branch_mispredicts" c.C.branch_mispredicts
    (n "br.mispredict");
  Alcotest.(check int) "alat.evict = alat_evictions" c.C.alat_evictions
    (n "alat.evict");
  Alcotest.(check int) "chk.a.fail + ld.c.miss = check_failures"
    c.C.check_failures
    (n "chk.a.fail" + n "ld.c.miss");
  Alcotest.(check bool) "the run exercised splits, mispredicts and checks" true
    (c.C.split_stalls > 0 && c.C.branch_mispredicts > 0 && c.C.checks_retired > 0)

(* The first [n] lines of a file, and how many lines it has. *)
let head_lines path n =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc k =
    match input_line ic with
    | l -> go (if k < n then l :: acc else acc) (k + 1)
    | exception End_of_file -> (List.rev acc, k)
  in
  go [] 0

(* Admitting before building loses and adds nothing: on every kernel, a
   trace bounded at 1,000 events is the unbounded trace's first 1,000
   lines, byte for byte, then one truncation record whose count is the
   rest of the unbounded trace. *)
let test_trace_bounded_prefix () =
  let limit = 1000 in
  List.iter
    (fun name ->
      let target = alat_train name in
      let bounded = Filename.temp_file "srp_obs_bounded" ".jsonl"
      and full = Filename.temp_file "srp_obs_full" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove bounded;
          Sys.remove full)
      @@ fun () ->
      let traced ~limit path =
        let oc = open_out_bin path in
        let sink = Trace.create ~limit oc in
        let m = Srp_machine.Machine.create ~trace:sink target in
        ignore (Srp_machine.Machine.run m);
        Trace.close sink;
        close_out oc;
        sink
      in
      let full_sink = traced ~limit:max_int full in
      let sink = traced ~limit bounded in
      let total = Trace.emitted full_sink in
      Alcotest.(check bool)
        (name ^ ": the run outlasts the bound") true (total > limit);
      let prefix, _ = head_lines full limit in
      let lines, n = head_lines bounded (limit + 1) in
      Alcotest.(check int) (name ^ ": limit + truncated record") (limit + 1) n;
      Alcotest.(check (list string))
        (name ^ ": bounded trace = unbounded prefix")
        prefix
        (List.filteri (fun i _ -> i < limit) lines);
      Alcotest.(check string)
        (name ^ ": truncation record counts the rest")
        (Fmt.str {|{"ev":"truncated","dropped":%d}|} (total - limit))
        (List.nth lines limit);
      Alcotest.(check int)
        (name ^ ": dropped") (total - limit) (Trace.dropped sink))
    (Srp_workloads.Registry.names ())

(* The direct writer held to the generic encoder on real traffic: on
   every kernel, each line of a bounded event trace (its truncation
   record included) and of a timeline parses, and re-encodes to itself
   byte for byte. *)
let test_trace_lines_reencode () =
  List.iter
    (fun name ->
      let target = alat_train name in
      let trace = Filename.temp_file "srp_obs_trace" ".jsonl"
      and timeline = Filename.temp_file "srp_obs_timeline" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove trace;
          Sys.remove timeline)
      @@ fun () ->
      let trace_oc = open_out_bin trace and timeline_oc = open_out_bin timeline in
      let sink = Trace.create ~limit:20_000 trace_oc
      and tl_sink = Trace.create timeline_oc in
      let m =
        Srp_machine.Machine.create ~trace:sink
          ~timeline:(Srp_machine.Timeline.create ~interval:100 tl_sink)
          target
      in
      ignore (Srp_machine.Machine.run m);
      Trace.close sink;
      Trace.close tl_sink;
      close_out trace_oc;
      close_out timeline_oc;
      Alcotest.(check bool) (name ^ ": the trace was truncated") true
        (Trace.dropped sink > 0);
      List.iter
        (fun path ->
          In_channel.with_open_bin path In_channel.input_lines
          |> List.iter (fun l ->
                 match J.of_string l with
                 | Ok j ->
                   if J.to_string j <> l then
                     Alcotest.failf "%s: %s re-encodes as %s" name l
                       (J.to_string j)
                 | Error e -> Alcotest.failf "%s: %s does not parse (%s)" name l e))
        [ trace; timeline ])
    (Srp_workloads.Registry.names ())

(* --- ablation wiring (satellite b) --- *)

let test_ablation_names_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Pipeline.ablation_name a ^ " parses back")
        true
        (Pipeline.ablation_of_string (Pipeline.ablation_name a) = Some a))
    Pipeline.all_ablations;
  Alcotest.(check bool) "unknown rejected" true
    (Pipeline.ablation_of_string "frobnicate" = None)

(* Each ablation's effect on a config, spelled out per constructor: the
   config ones set their one field, the backend ones leave the config
   alone (compile reads them itself). *)
let test_ablation_config_overrides () =
  let base =
    { Srp_core.Config.alat_heuristic with
      Srp_core.Config.use_invala = true;
      control_spec = true }
  in
  List.iter
    (fun a ->
      let expected =
        match a with
        | Pipeline.No_invala -> { base with Srp_core.Config.use_invala = false }
        | Pipeline.No_control_spec ->
          { base with Srp_core.Config.control_spec = false }
        | Pipeline.Cascade -> { base with Srp_core.Config.cascade = true }
        | Pipeline.Single_round -> { base with Srp_core.Config.max_rounds = 1 }
        | Pipeline.No_pressure -> { base with Srp_core.Config.pressure = false }
        | Pipeline.No_prob -> { base with Srp_core.Config.prob = false }
        | Pipeline.No_layout | Pipeline.No_sched | Pipeline.No_bundle
        | Pipeline.No_split ->
          base
      in
      Alcotest.(check bool) (Pipeline.ablation_name a) true
        (Pipeline.apply_ablation a base = expected))
    Pipeline.all_ablations;
  Alcotest.(check bool) "config ablations change the base" true
    (List.for_all
       (fun a -> Pipeline.apply_ablation a base <> base)
       Pipeline.[ No_invala; No_control_spec; Cascade; Single_round;
                  No_pressure; No_prob ])

let test_ablation_run_output_equal () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let plain = Pipeline.profile_compile_run small Pipeline.Alat in
  let ablated =
    Pipeline.profile_compile_run
      ~ablations:[ Pipeline.No_invala; Pipeline.Single_round ]
      small Pipeline.Alat
  in
  Alcotest.(check string) "ablations preserve program output"
    plain.Pipeline.output ablated.Pipeline.output;
  Alcotest.(check bool) "ablations recorded in compiled" true
    (ablated.Pipeline.compiled.Pipeline.ablations
    = [ Pipeline.No_invala; Pipeline.Single_round ])

(* --- emitted documents (satellite c, e2e) --- *)

let test_run_json_roundtrip () =
  let w = Srp_workloads.Registry.find "mcf" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let r = Pipeline.profile_compile_run small Pipeline.Alat in
  let s = J.to_string ~indent:2 (Emit.run_json ~name:"mcf" r) in
  let doc = parse_ok s in
  Alcotest.(check (option string)) "schema" (Some "srp-run-v1")
    (Option.bind (J.member "schema" doc) J.to_string_opt);
  Alcotest.(check (option string)) "level" (Some "alat")
    (Option.bind (J.member "level" doc) J.to_string_opt);
  let counters = Option.get (J.member "counters" doc) in
  let loads =
    Option.get (Option.bind (J.member "loads_retired" counters) J.to_int_opt)
  in
  Alcotest.(check bool) "nonzero loads_retired" true (loads > 0);
  (* histogram sums survive the JSON round-trip *)
  let hist =
    Option.get (Option.bind (J.member "site_histogram" doc) J.to_list_opt)
  in
  let hist_loads =
    List.fold_left
      (fun acc row ->
        acc
        + Option.value ~default:0
            (Option.bind (J.member "loads_retired" row) J.to_int_opt))
      0 hist
  in
  Alcotest.(check int) "histogram loads sum equals counter" loads hist_loads;
  (match Option.bind (J.member "pass_stats" doc) J.to_list_opt with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "pass_stats empty or missing");
  match Option.bind (J.member "promotion" doc) (J.member "exprs_promoted") with
  | Some (J.Int _) -> ()
  | _ -> Alcotest.fail "promotion stats missing"

let test_bench_json_roundtrip () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let s = J.to_string ~indent:2 (Emit.bench_json (Experiments.sweep [ small ])) in
  let doc = parse_ok s in
  Alcotest.(check (option string)) "schema" (Some "srp-bench-v1")
    (Option.bind (J.member "schema" doc) J.to_string_opt);
  let benchmarks =
    Option.get (Option.bind (J.member "benchmarks" doc) J.to_list_opt)
  in
  Alcotest.(check int) "one benchmark" 1 (List.length benchmarks);
  let entry = List.hd benchmarks in
  Alcotest.(check (option string)) "name" (Some "gzip")
    (Option.bind (J.member "name" entry) J.to_string_opt);
  List.iter
    (fun fig ->
      match J.member fig entry with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.failf "%s row missing" fig)
    [ "figure8"; "figure9"; "figure10"; "figure11" ];
  match
    Option.bind (J.member "figure8" entry)
      (fun f ->
        Option.bind (J.member "cpu_cycles_reduction_pct" f) J.to_float_opt)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "figure8 cycles reduction missing"

(* An ablation on the sweep reaches its alat builds and is recorded in
   the document; the baseline builds stay the plain baseline run. *)
let test_sweep_ablation () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let rs = Experiments.sweep ~ablations:[ Pipeline.No_bundle ] [ small ] in
  let r = List.hd rs in
  Alcotest.(check int) "alat retires no bundles" 0
    r.Experiments.spec.Pipeline.counters.C.bundles_retired;
  Alcotest.(check json_testable) "baseline counters are the plain run's"
    (C.to_json (Pipeline.profile_compile_run small Pipeline.Baseline).Pipeline.counters)
    (C.to_json r.Experiments.base.Pipeline.counters);
  Alcotest.(check (option json_testable)) "document lists the ablation"
    (Some (J.Arr [ J.String "no-bundle" ]))
    (J.member "ablations" (Emit.bench_json rs))

(* The CLI end to end: `srp run FILE --json` prints a parseable document.
   Skipped outside the dune sandbox (the binary path is build-relative). *)
let test_cli_run_json () =
  let bin = Filename.concat (Filename.concat ".." "bin") "srp.exe" in
  if not (Sys.file_exists bin) then ()
  else begin
    let src = Filename.temp_file "srp_obs_cli" ".minic" in
    let out = Filename.temp_file "srp_obs_cli" ".json" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove src;
        Sys.remove out)
    @@ fun () ->
    let oc = open_out src in
    output_string oc
      "int a[8];\n\
       int main() {\n\
      \  int i; int s; s = 0;\n\
      \  for (i = 0; i < 8; i = i + 1) { a[i] = i * 3; }\n\
      \  for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }\n\
      \  return s;\n\
       }\n";
    close_out oc;
    (* the run document records the whole build: every ablation named
       on the command line, in canonical order *)
    List.iter
      (fun (flags, ablations) ->
        let cmd =
          Fmt.str "%s run %s --json%s >%s 2>/dev/null" (Filename.quote bin)
            (Filename.quote src) flags (Filename.quote out)
        in
        let rc = Sys.command cmd in
        Alcotest.(check int) "exit code is the program's (sum 84 & 0xff)" 84
          rc;
        let ic = open_in_bin out in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let doc = parse_ok s in
        Alcotest.(check (option string)) "schema" (Some "srp-run-v1")
          (Option.bind (J.member "schema" doc) J.to_string_opt);
        Alcotest.(check (option int)) "exit_code field" (Some 84)
          (Option.bind (J.member "exit_code" doc) J.to_int_opt);
        Alcotest.(check (option json_testable))
          ("ablations of" ^ flags)
          (Some (J.Arr (List.map (fun a -> J.String a) ablations)))
          (J.member "ablations" doc);
        match
          Option.bind (J.member "counters" doc) (fun c ->
              Option.bind (J.member "loads_retired" c) J.to_int_opt)
        with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.fail "cli json has no retired loads")
      [ ("", []);
        (" --ablation no-prob --ablation no-sched", [ "no-sched"; "no-prob" ]) ]
  end

(* `srp run --trace` on a loop that outlasts the default 100,000-event
   bound: the closing message's drop count is the truncation record's.
   Skipped outside the dune sandbox, like the test above. *)
let test_cli_trace_drops () =
  let bin = Filename.concat (Filename.concat ".." "bin") "srp.exe" in
  if Sys.file_exists bin then begin
    let src = Filename.temp_file "srp_obs_cli" ".minic" in
    let trace = Filename.temp_file "srp_obs_cli" ".jsonl" in
    let err = Filename.temp_file "srp_obs_cli" ".txt" in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ src; trace; err ])
    @@ fun () ->
    let oc = open_out src in
    output_string oc
      "int main() {\n\
      \  int i; int s; s = 0;\n\
      \  for (i = 0; i < 30000; i = i + 1) { s = s + i; }\n\
      \  print_int(s);\n\
      \  return 0;\n\
       }\n";
    close_out oc;
    let rc =
      Sys.command
        (Fmt.str "%s run %s --trace %s >/dev/null 2>%s" (Filename.quote bin)
           (Filename.quote src) (Filename.quote trace) (Filename.quote err))
    in
    Alcotest.(check int) "exit code" 0 rc;
    let ic = open_in_bin err in
    let msg = input_line ic in
    close_in ic;
    let prefix = Fmt.str "trace written to %s (100000 events, " trace in
    Alcotest.(check bool) ("message " ^ msg) true
      (String.starts_with ~prefix msg);
    let rest = String.length msg - String.length prefix in
    let n =
      Scanf.sscanf (String.sub msg (String.length prefix) rest) "%d dropped)%!"
        Fun.id
    in
    let lines, count = head_lines trace 100_001 in
    Alcotest.(check int) "100,000 events + truncated record" 100_001 count;
    Alcotest.(check bool) "a drop was reported" true (n > 0);
    Alcotest.(check (option int)) "reported drops = truncation record's" (Some n)
      (Option.bind
         (J.member "dropped" (parse_ok (List.nth lines 100_000)))
         J.to_int_opt)
  end

(* A MiniC error on the command line reads FILE:LINE:COL: message and
   exits 1, not as an uncaught exception.  Skipped outside the dune
   sandbox, like the test above. *)
let test_cli_source_error () =
  let bin = Filename.concat (Filename.concat ".." "bin") "srp.exe" in
  if Sys.file_exists bin then begin
    let src = Filename.temp_file "srp_obs_cli" ".mc" in
    let err = Filename.temp_file "srp_obs_cli" ".txt" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove src;
        Sys.remove err)
    @@ fun () ->
    let oc = open_out src in
    output_string oc "int main() { int x; x = ; return 0; }\n";
    close_out oc;
    let rc =
      Sys.command
        (Fmt.str "%s run %s 2>%s" (Filename.quote bin) (Filename.quote src)
           (Filename.quote err))
    in
    Alcotest.(check int) "exit code" 1 rc;
    let ic = open_in_bin err in
    let msg = input_line ic in
    close_in ic;
    Alcotest.(check string) "message"
      (src ^ ":1:25: expected expression, found ';'")
      msg
  end

(* A malformed SRP_BENCH_JOBS is reported before any work, as a user
   error (exit 2), not as an internal error. *)
let test_cli_bench_jobs_error () =
  let bin = Filename.concat (Filename.concat ".." "bin") "srp.exe" in
  if Sys.file_exists bin then begin
    let err = Filename.temp_file "srp_obs_cli" ".txt" in
    Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
    let rc =
      Sys.command
        (Fmt.str "SRP_BENCH_JOBS=abc %s bench gzip 2>%s" (Filename.quote bin)
           (Filename.quote err))
    in
    Alcotest.(check int) "exit code" 2 rc;
    let ic = open_in_bin err in
    let msg = input_line ic in
    close_in ic;
    Alcotest.(check string) "message"
      "error: SRP_BENCH_JOBS=\"abc\": expected an integer >= 1" msg
  end

let suite =
  [ Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: special floats" `Quick test_json_special_floats;
    Alcotest.test_case "json: control chars" `Quick
      test_json_escapes_control_chars;
    Alcotest.test_case "json: unicode escape" `Quick
      test_json_parse_unicode_escape;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "json: exact encodings" `Quick test_json_exact_strings;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_trace_writer_is_encoder;
    Alcotest.test_case "counters: field-count guard" `Quick
      test_counters_field_guard;
    Alcotest.test_case "counters: pp prints all fields" `Quick
      test_counters_pp_prints_all_fields;
    Alcotest.test_case "counters: to_json" `Quick test_counters_to_json;
    Alcotest.test_case "stats: counters" `Quick test_stats_counters;
    Alcotest.test_case "stats: timer + report + reset" `Quick
      test_stats_timer_and_report;
    Alcotest.test_case "stats: parallel scopes use wall clock" `Quick
      test_stats_parallel_no_double_count;
    Alcotest.test_case "site_hist: basics" `Quick test_site_hist_basics;
    QCheck_alcotest.to_alcotest prop_site_hist_dense;
    Alcotest.test_case "attribution: gzip sums = counters" `Quick
      (test_attribution_sums "gzip");
    Alcotest.test_case "attribution: mcf sums = counters" `Quick
      (test_attribution_sums "mcf");
    Alcotest.test_case "attribution: pressure-capped sums = counters" `Quick
      test_attribution_sums_gated;
    Alcotest.test_case "trace: bounded" `Quick test_trace_bounded;
    Alcotest.test_case "trace: exact truncation record" `Quick
      test_trace_truncation_exact;
    Alcotest.test_case "trace: under limit" `Quick test_trace_untruncated;
    Alcotest.test_case "hot path: unobserved allocation bound" `Quick
      test_unobserved_allocation;
    Alcotest.test_case "trace: guarded emission is complete" `Quick
      test_trace_complete;
    Alcotest.test_case "hot path: saturated-sink allocation bound" `Quick
      test_saturated_allocation;
    Alcotest.test_case "trace: bounded = unbounded prefix, every kernel" `Quick
      test_trace_bounded_prefix;
    Alcotest.test_case "trace: every kernel's lines re-encode to themselves" `Quick
      test_trace_lines_reencode;
    Alcotest.test_case "ablation: names round-trip" `Quick
      test_ablation_names_roundtrip;
    Alcotest.test_case "ablation: config overrides" `Quick
      test_ablation_config_overrides;
    Alcotest.test_case "ablation: output preserved" `Quick
      test_ablation_run_output_equal;
    Alcotest.test_case "emit: run json round-trip" `Quick
      test_run_json_roundtrip;
    Alcotest.test_case "emit: bench json round-trip" `Quick
      test_bench_json_roundtrip;
    Alcotest.test_case "emit: sweep ablation reaches alat builds" `Quick
      test_sweep_ablation;
    Alcotest.test_case "cli: srp run --json" `Quick test_cli_run_json;
    Alcotest.test_case "cli: run --trace reports its drops" `Quick
      test_cli_trace_drops;
    Alcotest.test_case "cli: source error position" `Quick
      test_cli_source_error;
    Alcotest.test_case "cli: malformed SRP_BENCH_JOBS" `Quick
      test_cli_bench_jobs_error ]
