(* The span tracer (srp-spans-v1), the machine timeline sampler
   (srp-timeline-v1) and their consumers: file format round-trips,
   truncation, per-domain well-nestedness (QCheck), the on/off
   differential (enabling observability leaves every counter and output
   bit-identical), `srp report` rendering and the bench --compare
   regression checker. *)

open Srp_driver
module J = Srp_obs.Json
module Span = Srp_obs.Span
module Trace = Srp_obs.Trace
module C = Srp_machine.Counters

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_ok s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "span file does not parse: %s" e

(* Run [f] with a fresh file-backed tracer installed; return the parsed
   span document and the tracer (already closed). *)
let with_file_tracer ?limit (f : unit -> unit) : J.t * Span.t =
  let path = Filename.temp_file "srp_span" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let t = Span.create ?limit ~out:oc () in
  Span.install t;
  Fun.protect
    ~finally:(fun () ->
      Span.uninstall ();
      Span.close t;
      close_out_noerr oc)
    f;
  (parse_ok (read_file path), t)

let events doc =
  match doc with
  | J.Arr evs -> evs
  | _ -> Alcotest.fail "span document is not an array"

let str_field name js =
  match Option.bind (J.member name js) J.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" name

let float_field name js =
  match Option.bind (J.member name js) J.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "missing number field %S" name

let int_field name js =
  match Option.bind (J.member name js) J.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "missing int field %S" name

(* --- file format --- *)

let test_span_file_shape () =
  let doc, t =
    with_file_tracer (fun () ->
        Span.with_span ~cat:"test" "outer" (fun () ->
            Span.with_span ~cat:"test" "inner"
              ~args:[ ("k", J.String "v") ]
              (fun () -> ());
            Span.instant ~cat:"test" "mark");
        ignore
          (Span.with_span_args ~cat:"test" "argsy" (fun () ->
               (17, [ ("hit", J.Bool true) ]))))
  in
  let evs = events doc in
  Alcotest.(check int) "four events" 4 (List.length evs);
  Alcotest.(check int) "emitted agrees" 4 (Span.emitted t);
  Alcotest.(check bool) "nothing dropped" false (Span.truncated t);
  (* spans are emitted at scope end: inner, mark, outer, argsy *)
  let names = List.map (str_field "name") evs in
  Alcotest.(check (list string)) "emission order"
    [ "inner"; "mark"; "outer"; "argsy" ]
    names;
  List.iter
    (fun ev ->
      Alcotest.(check string) "cat" "test" (str_field "cat" ev);
      Alcotest.(check int) "pid" 1 (int_field "pid" ev);
      ignore (int_field "tid" ev);
      ignore (float_field "ts" ev))
    evs;
  let by_name n = List.find (fun e -> str_field "name" e = n) evs in
  let inner = by_name "inner" and outer = by_name "outer" in
  Alcotest.(check string) "complete event" "X" (str_field "ph" inner);
  Alcotest.(check bool) "inner nested in outer" true
    (float_field "ts" inner >= float_field "ts" outer
    && float_field "ts" inner +. float_field "dur" inner
       <= float_field "ts" outer +. float_field "dur" outer +. 1e-6);
  (match Option.bind (J.member "args" inner) (J.member "k") with
  | Some (J.String "v") -> ()
  | _ -> Alcotest.fail "static args missing");
  let mark = by_name "mark" in
  Alcotest.(check string) "instant event" "i" (str_field "ph" mark);
  Alcotest.(check string) "thread-scoped" "t" (str_field "s" mark);
  Alcotest.(check bool) "instant has no dur" true (J.member "dur" mark = None);
  (* with_span_args: args discovered inside the scope land in the event *)
  match Option.bind (J.member "args" (by_name "argsy")) (J.member "hit") with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.fail "scope-result args missing"

let test_span_exception_safe () =
  let doc, _ =
    with_file_tracer (fun () ->
        try Span.with_span ~cat:"test" "boom" (fun () -> failwith "kapow")
        with Failure _ -> ())
  in
  match events doc with
  | [ ev ] ->
    Alcotest.(check string) "span still emitted" "boom" (str_field "name" ev);
    (match Option.bind (J.member "args" ev) (J.member "exn") with
    | Some (J.String msg) ->
      Alcotest.(check bool) "exn arg carries the message" true
        (contains ~needle:"kapow" msg)
    | _ -> Alcotest.fail "raising span lacks the exn arg")
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

let test_span_truncation () =
  let limit = 5 and total = 12 in
  let doc, t =
    with_file_tracer ~limit (fun () ->
        for i = 1 to total do
          Span.with_span ~cat:"test" (Fmt.str "s%d" i) (fun () -> ())
        done)
  in
  Alcotest.(check int) "emitted caps at limit" limit (Span.emitted t);
  Alcotest.(check int) "dropped counts the rest" (total - limit)
    (Span.dropped t);
  Alcotest.(check bool) "truncated" true (Span.truncated t);
  let evs = events doc in
  Alcotest.(check int) "file holds limit + marker" (limit + 1)
    (List.length evs);
  let markers =
    List.filter (fun e -> str_field "name" e = "truncated") evs
  in
  (* exactly one truncated marker, as the last event, with the count —
     the span-file analogue of Trace's {"ev":"truncated"} record *)
  Alcotest.(check int) "exactly one truncated marker" 1 (List.length markers);
  let last = List.nth evs limit in
  Alcotest.(check string) "marker is last" "truncated" (str_field "name" last);
  Alcotest.(check string) "marker is an instant" "i" (str_field "ph" last);
  match Option.bind (J.member "args" last) (J.member "dropped") with
  | Some (J.Int n) -> Alcotest.(check int) "dropped arg exact" (total - limit) n
  | _ -> Alcotest.fail "truncated marker lacks args.dropped"

let test_span_totals_sinkless () =
  (* the srp-serve mode: no out channel, aggregation only *)
  let t = Span.create () in
  Span.install t;
  Fun.protect ~finally:Span.uninstall (fun () ->
      for _ = 1 to 3 do
        Span.with_span ~cat:"stage" "stage.lower" (fun () -> ())
      done;
      Span.with_span ~cat:"pool" "pool.task" (fun () -> ()));
  Alcotest.(check int) "events counted without a sink" 4 (Span.emitted t);
  match Span.totals t with
  | [ ("pool", "pool.task", 1, _); ("stage", "stage.lower", 3, secs) ] ->
    Alcotest.(check bool) "durations accumulate" true (secs >= 0.0)
  | l -> Alcotest.failf "unexpected totals (%d rows)" (List.length l)

let test_span_disabled_is_noop () =
  Alcotest.(check bool) "no tracer installed" false (Span.enabled ());
  Alcotest.(check int) "with_span still runs f" 9
    (Span.with_span "ghost" (fun () -> 9));
  Span.instant "ghost"

(* --- QCheck: random span trees stay well-nested per domain --- *)

(* A span tree described by a nested list shape; running it produces one
   event per node.  The property: in the emitted file, events of each
   tid reconstruct into properly nested intervals (every event either
   contains or is disjoint from every other, and each event fits inside
   the innermost enclosing one). *)
type tree = Node of tree list

let rec tree_gen depth =
  let open QCheck.Gen in
  if depth = 0 then pure (Node [])
  else
    map (fun kids -> Node kids) (list_size (int_bound 3) (tree_gen (depth - 1)))

let rec run_tree i (Node children) =
  Span.with_span ~cat:"q" (Fmt.str "n%d" i) (fun () ->
      List.iteri run_tree children)

let rec count_nodes (Node children) =
  List.fold_left (fun acc c -> acc + count_nodes c) 1 children

let check_well_nested (evs : J.t list) =
  (* group by tid, sort by (ts asc, dur desc); a stack of end-times then
     witnesses the nesting: after popping finished spans, the current
     event must end within the enclosing one *)
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      if str_field "ph" ev = "X" then begin
        let tid = int_field "tid" ev in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
        Hashtbl.replace by_tid tid
          ((float_field "ts" ev, float_field "dur" ev) :: prev)
      end)
    evs;
  Hashtbl.iter
    (fun _tid spans ->
      let spans =
        List.sort
          (fun (ts1, d1) (ts2, d2) ->
            match compare ts1 ts2 with 0 -> compare d2 d1 | c -> c)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun (ts, dur) ->
          while
            match !stack with
            | top :: rest when top <= ts ->
              stack := rest;
              true
            | _ -> false
          do
            ()
          done;
          (match !stack with
          | top :: _ ->
            if ts +. dur > top +. 1e-6 then
              Alcotest.failf
                "span [%f, %f] overflows its enclosing span (end %f)" ts
                (ts +. dur) top
          | [] -> ());
          stack := (ts +. dur) :: !stack)
        spans)
    by_tid

let qcheck_well_nested =
  QCheck.Test.make ~count:30 ~name:"random span trees are well-nested"
    (QCheck.make ~print:(fun t -> Fmt.str "%d nodes" (count_nodes t))
       (tree_gen 4))
    (fun tree ->
      let doc, _ = with_file_tracer (fun () -> run_tree 0 tree) in
      let evs = events doc in
      check_well_nested evs;
      List.length evs = count_nodes tree)

let test_span_multi_domain () =
  let doc, _ =
    with_file_tracer (fun () ->
        let worker k =
          Domain.spawn (fun () ->
              Span.with_span ~cat:"q" (Fmt.str "dom%d" k) (fun () ->
                  Span.with_span ~cat:"q" "leaf" (fun () -> ())))
        in
        let d1 = worker 1 and d2 = worker 2 in
        Domain.join d1;
        Domain.join d2)
  in
  let evs = events doc in
  Alcotest.(check int) "two spans per domain" 4 (List.length evs);
  let tids = List.sort_uniq compare (List.map (int_field "tid") evs) in
  Alcotest.(check int) "distinct domain tracks" 2 (List.length tids);
  check_well_nested evs

(* --- the on/off differential: observability must not perturb runs --- *)

let test_observability_differential () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let plain = Pipeline.profile_compile_run small Pipeline.Alat in
  let span_path = Filename.temp_file "srp_span_diff" ".json" in
  let tl_path = Filename.temp_file "srp_tl_diff" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove span_path;
      Sys.remove tl_path)
  @@ fun () ->
  let span_oc = open_out span_path in
  let tracer = Span.create ~out:span_oc () in
  Span.install tracer;
  let tl_oc = open_out tl_path in
  let sink = Trace.create tl_oc in
  let timeline = Srp_machine.Timeline.create ~interval:64 sink in
  let observed =
    Fun.protect
      ~finally:(fun () ->
        Span.uninstall ();
        Span.close tracer;
        close_out_noerr span_oc;
        Trace.close sink;
        close_out_noerr tl_oc)
      (fun () -> Pipeline.profile_compile_run ~timeline small Pipeline.Alat)
  in
  Alcotest.(check string) "output bit-identical" plain.Pipeline.output
    observed.Pipeline.output;
  Alcotest.(check int64) "exit code identical" plain.Pipeline.exit_code
    observed.Pipeline.exit_code;
  List.iter2
    (fun (name, v0) (name', v1) ->
      Alcotest.(check string) "field order" name name';
      Alcotest.(check int) ("counter " ^ name) v0 v1)
    (C.to_fields plain.Pipeline.counters)
    (C.to_fields observed.Pipeline.counters);
  Alcotest.(check bool) "spans were recorded" true (Span.emitted tracer > 0);
  (* and the span file is loadable *)
  ignore (parse_ok (read_file span_path))

(* --- the timeline sampler --- *)

let timeline_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.of_string l with
         | Ok js -> js
         | Error e -> Alcotest.failf "timeline line %S: %s" l e)

let test_timeline_rows () =
  let w = Srp_workloads.Registry.find "mcf" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let path = Filename.temp_file "srp_timeline" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Trace.create oc in
  let timeline = Srp_machine.Timeline.create ~interval:100 sink in
  let r = Pipeline.profile_compile_run ~timeline small Pipeline.Alat in
  Trace.close sink;
  close_out oc;
  match timeline_lines path with
  | header :: rows ->
    Alcotest.(check string) "header kind" "timeline.header"
      (str_field "ev" header);
    Alcotest.(check string) "schema" "srp-timeline-v1"
      (str_field "schema" header);
    Alcotest.(check int) "interval echoed" 100 (int_field "interval" header);
    Alcotest.(check bool) "at least the closing row" true (rows <> []);
    let cycles = List.map (int_field "c") rows in
    List.iter
      (fun row ->
        Alcotest.(check string) "row kind" "timeline" (str_field "ev" row);
        Alcotest.(check bool) "alat_live bounded" true
          (let v = int_field "alat_live" row in
           v >= 0 && v <= 32);
        Alcotest.(check bool) "rse_dirty nonneg" true
          (int_field "rse_dirty" row >= 0);
        Alcotest.(check bool) "rse_clean nonneg" true
          (int_field "rse_clean" row >= 0);
        (* the in-progress group's instructions retire before its cycle
           is counted, so a window can read slightly above 1.0 *)
        Alcotest.(check bool) "issue_util sane" true
          (let u = float_field "issue_util" row in
           u >= 0.0 && u <= 2.0);
        Alcotest.(check bool) "miss windows nonneg" true
          (int_field "l1_misses" row >= 0 && int_field "l2_misses" row >= 0))
      rows;
    Alcotest.(check bool) "cycles nondecreasing" true
      (List.for_all2 ( <= )
         (List.filteri (fun i _ -> i < List.length cycles - 1) cycles)
         (List.tl cycles));
    (* the unconditional closing row lands at the end of the run *)
    Alcotest.(check int) "final row at the last cycle"
      r.Pipeline.counters.C.cycles
      (List.nth cycles (List.length cycles - 1));
    (* per-window l1 misses sum back to the global counter *)
    let l1_sum =
      List.fold_left (fun acc row -> acc + int_field "l1_misses" row) 0 rows
    in
    Alcotest.(check int) "window l1 misses sum to the counter"
      r.Pipeline.counters.C.l1_misses l1_sum
  | [] -> Alcotest.fail "empty timeline"

(* A row is built only when its sink admits it: a timeline bounded at 5
   lines writes an unbounded timeline's first 5, and counts every later
   row as dropped. *)
let test_timeline_bounded () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let c =
    Pipeline.compile ~profile:(Pipeline.train_profile small)
      ~input:small.Workload.train small Pipeline.Alat
  in
  let sampled ~limit =
    let path = Filename.temp_file "srp_timeline" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let oc = open_out_bin path in
    let sink = Trace.create ~limit oc in
    let timeline = Srp_machine.Timeline.create sink in
    ignore (Pipeline.run ~timeline c);
    Trace.close sink;
    close_out oc;
    (String.split_on_char '\n' (read_file path), sink)
  in
  let full, full_sink = sampled ~limit:max_int in
  let lines, sink = sampled ~limit:5 in
  let rows = Trace.emitted full_sink in
  Alcotest.(check bool) "the run samples more than 5 rows" true (rows > 5);
  Alcotest.(check (list string)) "the first 5 lines, then the truncation record"
    (List.filteri (fun i _ -> i < 5) full
    @ [ Fmt.str {|{"ev":"truncated","dropped":%d}|} (rows - 5); "" ])
    lines;
  Alcotest.(check int) "dropped = unbounded rows - 5" (rows - 5)
    (Trace.dropped sink)

let test_timeline_bad_interval () =
  let sink = Trace.create stdout in
  Alcotest.check_raises "interval 0 rejected"
    (Invalid_argument "Timeline.create: interval 0") (fun () ->
      ignore (Srp_machine.Timeline.create ~interval:0 sink))

(* --- srp report: the span-file consumer --- *)

let test_report_renders_pipeline_spans () =
  let w = Srp_workloads.Registry.find "gzip" in
  let small = { w with Workload.ref_ = w.Workload.train } in
  let doc, _ =
    with_file_tracer (fun () ->
        ignore (Pipeline.profile_compile_run small Pipeline.Alat))
  in
  match Report.Span_report.render doc with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok s ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) (needle ^ " in report") true
          (contains ~needle s))
      [ "stage.lower"; "stage.bundle"; "hot span path"; "total ms"; "spans" ]

let test_report_rejects_garbage () =
  (match Report.Span_report.render (J.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-array accepted");
  match Report.Span_report.render (J.Arr [ J.Int 3 ]) with
  | Ok s ->
    (* non-event entries are skipped, leaving an empty report *)
    Alcotest.(check bool) "empty report" true
      (contains ~needle:"0 complete spans" s)
  | Error _ -> ()

let test_report_counts_truncation () =
  let doc, _ =
    with_file_tracer ~limit:3 (fun () ->
        for i = 1 to 10 do
          Span.with_span ~cat:"t" (Fmt.str "s%d" i) (fun () -> ())
        done)
  in
  match Report.Span_report.render doc with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok s ->
    Alcotest.(check bool) "reports the drop count" true
      (contains ~needle:"7" s && contains ~needle:"truncated" s)

(* --- bench --compare: the srp-bench-v1 regression checker --- *)

let bench_doc ?(name = "k") ?(cycles = 1000) ?(loads = 50) ?(l1_hits = 40)
    ?(indirect_reduced = 19) ?(ablations = []) ?(extra = []) () =
  let counters =
    J.Obj
      ([ ("cycles", J.Int cycles);
         ("loads_retired", J.Int loads);
         ("l1_hits", J.Int l1_hits) ]
      @ extra)
  in
  let reduced = 9 + indirect_reduced in
  J.Obj
    [ ("schema", J.String "srp-bench-v1");
      ("ablations", J.Arr (List.map (fun a -> J.String a) ablations));
      ("benchmarks",
       J.Arr
         [ J.Obj
             [ ("name", J.String name);
               ("figure9",
                J.Obj
                  [ ("benchmark", J.String name);
                    ("direct_pct", J.Float (100.0 *. 9.0 /. float_of_int reduced));
                    ("indirect_pct",
                     J.Float
                       (100.0 *. float_of_int indirect_reduced
                       /. float_of_int reduced));
                    ("direct_loads_reduced", J.Int 9);
                    ("indirect_loads_reduced", J.Int indirect_reduced) ]);
               ("baseline_counters", counters);
               ("alat_counters", counters) ] ]) ]

let compare_ok ~old_doc ~new_doc =
  match Report.Compare.compare_docs ~old_doc ~new_doc with
  | Ok diffs -> diffs
  | Error e -> Alcotest.failf "compare errored: %s" e

let test_compare_self_clean () =
  let doc = bench_doc () in
  let diffs = compare_ok ~old_doc:doc ~new_doc:doc in
  Alcotest.(check int) "self-compare is clean" 0 (List.length diffs);
  Alcotest.(check string) "render says so" "no differences\n"
    (Report.Compare.render diffs)

let test_compare_cycles_exact () =
  (* the simulator is deterministic: one extra cycle is a difference *)
  let old_doc = bench_doc ~cycles:1000 () in
  let diffs = compare_ok ~old_doc ~new_doc:(bench_doc ~cycles:1001 ()) in
  (* both sides of the benchmark moved *)
  Alcotest.(check int) "one cycle flagged on both sides" 2 (List.length diffs);
  let r = List.hd diffs in
  Alcotest.(check string) "counter named" "cycles" r.Report.Compare.r_counter;
  Alcotest.(check (float 1e-9)) "delta" 0.1 r.Report.Compare.r_delta_pct;
  Alcotest.(check bool) "render table mentions it" true
    (contains ~needle:"cycles" (Report.Compare.render diffs))

let test_compare_event_counters_strict () =
  (* +1 load is a difference *)
  let old_doc = bench_doc ~loads:50 () in
  let diffs = compare_ok ~old_doc ~new_doc:(bench_doc ~loads:51 ()) in
  Alcotest.(check int) "one extra load flagged" 2 (List.length diffs);
  Alcotest.(check string) "loads named" "loads_retired"
    (List.hd diffs).Report.Compare.r_counter

let test_compare_falls_and_l1_hits () =
  (* a counter that falls is a difference too, and l1_hits is compared
     like every other counter *)
  let old_doc = bench_doc ~cycles:1000 ~loads:50 ~l1_hits:40 () in
  let new_doc = bench_doc ~cycles:900 ~loads:45 ~l1_hits:999 () in
  let diffs = compare_ok ~old_doc ~new_doc in
  let named c = List.filter (fun r -> r.Report.Compare.r_counter = c) diffs in
  Alcotest.(check int) "three counters on two sides" 6 (List.length diffs);
  Alcotest.(check int) "cycles fell" 2 (List.length (named "cycles"));
  Alcotest.(check int) "loads fell" 2 (List.length (named "loads_retired"));
  Alcotest.(check int) "l1_hits grew" 2 (List.length (named "l1_hits"));
  Alcotest.(check bool) "a fall renders negative" true
    (contains ~needle:"-10.00" (Report.Compare.render diffs))

(* Figure 9 rests on per-site attribution, which no global counter pins,
   so its integer fields are compared exactly too. *)
let test_compare_figure9 () =
  let old_doc = bench_doc () in
  let diffs = compare_ok ~old_doc ~new_doc:(bench_doc ~indirect_reduced:20 ()) in
  match diffs with
  | [ r ] ->
    Alcotest.(check string) "side" "figure9" r.Report.Compare.r_side;
    Alcotest.(check string) "field" "indirect_loads_reduced"
      r.Report.Compare.r_counter;
    Alcotest.(check (pair int int)) "old, new" (19, 20)
      (r.Report.Compare.r_old, r.Report.Compare.r_new);
    (* a class whose loads grew is negative; its delta is relative to
       the size of the old value *)
    let grew = bench_doc ~indirect_reduced:(-10) () in
    (match compare_ok ~old_doc:grew ~new_doc:(bench_doc ~indirect_reduced:(-5) ()) with
    | [ r ] -> Alcotest.(check (float 1e-9)) "delta" 50.0 r.Report.Compare.r_delta_pct
    | ds -> Alcotest.failf "expected one difference, got %d" (List.length ds))
  | _ -> Alcotest.failf "expected one difference, got %d" (List.length diffs)

let test_compare_missing_is_error () =
  let old_doc = bench_doc ~name:"k" () in
  (* a dropped kernel must not read as "no differences" *)
  (match Report.Compare.compare_docs ~old_doc ~new_doc:(bench_doc ~name:"other" ()) with
  | Error e ->
    Alcotest.(check bool) "names the kernel" true (contains ~needle:"k" e)
  | Ok _ -> Alcotest.fail "missing benchmark accepted");
  (* a vanished counter is an error too *)
  let old_doc = bench_doc ~extra:[ ("checks_retired", J.Int 7) ] () in
  (match Report.Compare.compare_docs ~old_doc ~new_doc:(bench_doc ()) with
  | Error e ->
    Alcotest.(check bool) "names the counter" true
      (contains ~needle:"checks_retired" e)
  | Ok _ -> Alcotest.fail "missing counter accepted");
  (* schema mismatches are errors, not empty diffs *)
  match
    Report.Compare.compare_docs ~old_doc:(J.Obj []) ~new_doc:(bench_doc ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema-less document accepted"

(* Sweeps of different builds differ by design: comparing them is an
   error that names both ablation lists, not a table of counter diffs.
   A document without the list cannot say which build it measured. *)
let test_compare_ablations_match () =
  let old_doc = bench_doc () in
  (match
     Report.Compare.compare_docs ~old_doc
       ~new_doc:(bench_doc ~ablations:[ "no-prob" ] ())
   with
  | Error e ->
    Alcotest.(check bool) "names the new build's ablation" true
      (contains ~needle:"no-prob" e)
  | Ok _ -> Alcotest.fail "different ablations accepted");
  let without_list =
    match old_doc with
    | J.Obj fields -> J.Obj (List.remove_assoc "ablations" fields)
    | _ -> assert false
  in
  (match Report.Compare.compare_docs ~old_doc:without_list ~new_doc:old_doc with
  | Error e ->
    Alcotest.(check bool) "names the missing list" true
      (contains ~needle:"ablations" e)
  | Ok _ -> Alcotest.fail "document without ablations accepted");
  let same = bench_doc ~ablations:[ "cascade"; "no-prob" ] () in
  Alcotest.(check int) "equal lists compare clean" 0
    (List.length (compare_ok ~old_doc:same ~new_doc:same))

let suite =
  [ Alcotest.test_case "span: file shape" `Quick test_span_file_shape;
    Alcotest.test_case "span: exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "span: truncation marker" `Quick test_span_truncation;
    Alcotest.test_case "span: sink-less totals" `Quick
      test_span_totals_sinkless;
    Alcotest.test_case "span: disabled is a no-op" `Quick
      test_span_disabled_is_noop;
    QCheck_alcotest.to_alcotest qcheck_well_nested;
    Alcotest.test_case "span: multi-domain tracks" `Quick
      test_span_multi_domain;
    Alcotest.test_case "differential: observability off = on" `Slow
      test_observability_differential;
    Alcotest.test_case "timeline: rows + window sums" `Slow test_timeline_rows;
    Alcotest.test_case "timeline: bounded = unbounded prefix" `Quick
      test_timeline_bounded;
    Alcotest.test_case "timeline: bad interval" `Quick
      test_timeline_bad_interval;
    Alcotest.test_case "report: renders pipeline spans" `Slow
      test_report_renders_pipeline_spans;
    Alcotest.test_case "report: rejects garbage" `Quick
      test_report_rejects_garbage;
    Alcotest.test_case "report: surfaces truncation" `Quick
      test_report_counts_truncation;
    Alcotest.test_case "compare: self is clean" `Quick test_compare_self_clean;
    Alcotest.test_case "compare: cycles exact" `Quick test_compare_cycles_exact;
    Alcotest.test_case "compare: strict event counters" `Quick
      test_compare_event_counters_strict;
    Alcotest.test_case "compare: falls and l1_hits flagged" `Quick
      test_compare_falls_and_l1_hits;
    Alcotest.test_case "compare: figure 9 fields exact" `Quick
      test_compare_figure9;
    Alcotest.test_case "compare: missing data errors" `Quick
      test_compare_missing_is_error;
    Alcotest.test_case "compare: ablations must match" `Quick
      test_compare_ablations_match ]
