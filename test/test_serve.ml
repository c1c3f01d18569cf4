(* The srp-serve-v1 batch protocol: response ordering, dedup, per-job
   pass stats, error isolation, and the summary block — plus an
   env-scaled soak that drives randomized gen_minic programs through the
   daemon and checks each response against the IR interpreter
   (SRP_SOAK_JOBS raises the job count in CI). *)

open Srp_driver
module Json = Srp_obs.Json

let lookup name =
  List.find_opt
    (fun w -> w.Workload.name = name)
    (Srp_workloads.Registry.all ())

(* Run a batch through the daemon and hand back the parsed response
   lines.  Channels go through temp files: the daemon's interface is
   in_channel/out_channel, exactly as bin/srp.ml drives it. *)
let serve_batch ?(capacity = 512) (batch_lines : string list) :
    Json.t list * int =
  let in_path = Filename.temp_file "srp_serve_in" ".jsonl" in
  let out_path = Filename.temp_file "srp_serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) batch_lines;
      close_out oc;
      let ic = open_in in_path in
      let oc = open_out out_path in
      let failed =
        Serve.serve ~lookup ~now:Sys.time ~capacity ic oc
      in
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      ( List.rev_map
          (fun l ->
            match Json.of_string l with
            | Ok js -> js
            | Error e -> Alcotest.failf "unparseable response %S: %s" l e)
          !lines,
        failed ))

let str_field name js =
  match Option.bind (Json.member name js) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" name

let int_field name js =
  match Option.bind (Json.member name js) Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "missing int field %S" name

let bool_member name js =
  match Json.member name js with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S" name

let test_batch () =
  let batch =
    [ {|{"id": "first", "source": "int main() { return 7; }", "level": "O0"}|};
      {|{"id": "dup", "source": "int main() { return 7; }", "level": "O0"}|};
      {|{"id": "other", "source": "int main() { return 3; }", "level": "baseline"}|};
      {|{"id": "bad", "workload": "no-such-kernel"}|};
      {|this is not json|}
    ]
  in
  let responses, failed = serve_batch batch in
  Alcotest.(check int) "one response per line plus summary"
    (List.length batch + 1) (List.length responses);
  Alcotest.(check int) "two failed jobs reported" 2 failed;
  let r = Array.of_list responses in
  (* responses in input order *)
  Alcotest.(check string) "id order" "first" (str_field "id" r.(0));
  Alcotest.(check string) "dup id" "dup" (str_field "id" r.(1));
  Alcotest.(check string) "result type" "result" (str_field "type" r.(0));
  Alcotest.(check int) "exit code" 7 (int_field "exit_code" r.(0));
  Alcotest.(check bool) "first not deduped" false (bool_member "deduped" r.(0));
  Alcotest.(check bool) "duplicate flagged" true (bool_member "deduped" r.(1));
  Alcotest.(check string) "duplicate shares result key"
    (str_field "key" r.(0)) (str_field "key" r.(1));
  Alcotest.(check int) "duplicate shares exit code" 7 (int_field "exit_code" r.(1));
  Alcotest.(check int) "other job independent" 3 (int_field "exit_code" r.(2));
  Alcotest.(check string) "unknown workload errors" "error"
    (str_field "type" r.(3));
  Alcotest.(check string) "parse error errors" "error" (str_field "type" r.(4));
  (* per-job pass stats: each executed job lowered its own source once *)
  let parse_calls js =
    match Json.member "pass_stats" js with
    | Some (Json.Arr entries) ->
      List.fold_left
        (fun acc e ->
          match (Json.member "pass" e, Json.member "name" e) with
          | Some (Json.String "frontend"), Some (Json.String "parse") ->
            acc + Option.value ~default:0 (Option.bind (Json.member "calls" e) Json.to_int_opt)
          | _ -> acc)
        0 entries
    | _ -> Alcotest.fail "missing pass_stats"
  in
  Alcotest.(check int) "job-scoped stats: one lower" 1 (parse_calls r.(0));
  Alcotest.(check int) "job-scoped stats: one lower (other)" 1
    (parse_calls r.(2));
  (* summary *)
  let s = r.(5) in
  Alcotest.(check string) "summary type" "summary" (str_field "type" s);
  Alcotest.(check string) "schema" "srp-serve-v1" (str_field "schema" s);
  Alcotest.(check int) "jobs" 5 (int_field "jobs" s);
  Alcotest.(check int) "unique" 2 (int_field "unique" s);
  Alcotest.(check int) "deduped" 1 (int_field "deduped" s);
  Alcotest.(check int) "errors" 2 (int_field "errors" s);
  match Json.member "cache" s with
  | Some c ->
    Alcotest.(check bool) "nonzero stage misses" true (int_field "misses" c > 0)
  | None -> Alcotest.fail "summary lacks cache block"

(* Span accounting across a batch (the serve instrumentation): every
   executed job emits a serve.job span; deduped resubmissions add only
   enqueue/dedup instants, so the span count tracks unique work, not
   batch size.  Installing a tracer around the daemon is exactly what
   `srp serve --trace-spans` does — serve must use it rather than its
   own, and must leave it installed. *)
let test_serve_spans () =
  let module Span = Srp_obs.Span in
  let tracer = Span.create () in
  Span.install tracer;
  Fun.protect ~finally:Span.uninstall @@ fun () ->
  let job ret = Fmt.str {|{"source": "int main() { return %d; }", "level": "O0"}|} ret in
  let batch = [ job 1; job 1; job 1; job 2 ] in
  let responses, failed = serve_batch batch in
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "all answered" (List.length batch + 1)
    (List.length responses);
  let count cat name =
    List.fold_left
      (fun acc (c, n, k, _) -> if c = cat && n = name then acc + k else acc)
      0 (Span.totals tracer)
  in
  (* every executed job got a span; dedup kept the count at unique *)
  Alcotest.(check int) "one serve.job span per unique job" 2
    (count "serve" "serve.job");
  Alcotest.(check int) "one enqueue instant per line" 4
    (count "serve" "serve.enqueue");
  Alcotest.(check int) "one dedup instant per resubmission" 2
    (count "serve" "serve.dedup");
  Alcotest.(check int) "one respond phase" 1 (count "serve" "serve.respond");
  (* the unique jobs built their stages under the same tracer *)
  Alcotest.(check bool) "stage spans recorded" true
    (count "stage" "stage.lower" > 0);
  (* a second identical batch grows the totals by the same amounts: span
     volume is stable under dedup, not proportional to resubmissions *)
  let before = count "serve" "serve.job" in
  let _ = serve_batch (batch @ [ job 1; job 1 ]) in
  Alcotest.(check int) "second batch adds its unique jobs only"
    (before + 2)
    (count "serve" "serve.job")

(* Nearest-rank percentile edge cases.  The summary sorts with
   Float.compare (a polymorphic-compare sort would still order floats,
   but the typed comparator documents intent and survives a future
   change of element type); the degenerate batch sizes are where an
   off-by-one in ceil(p*n)-1 would bite. *)
let test_percentile () =
  let check = Alcotest.(check (float 0.0)) in
  (* n = 0: an all-error batch still emits a summary *)
  check "empty p50" 0.0 (Serve.percentile [||] 0.50);
  check "empty p100" 0.0 (Serve.percentile [||] 1.0);
  (* n = 1: every percentile is the single sample *)
  check "single p50" 7.0 (Serve.percentile [| 7.0 |] 0.50);
  check "single p95" 7.0 (Serve.percentile [| 7.0 |] 0.95);
  check "single p100" 7.0 (Serve.percentile [| 7.0 |] 1.0);
  (* n = 2: nearest-rank p50 is the FIRST element (rank ceil(0.5*2)=1),
     p95 and max are the second *)
  check "pair p50" 1.0 (Serve.percentile [| 1.0; 9.0 |] 0.50);
  check "pair p95" 9.0 (Serve.percentile [| 1.0; 9.0 |] 0.95);
  check "pair p100" 9.0 (Serve.percentile [| 1.0; 9.0 |] 1.0);
  (* and that the summary actually sorts: an unsorted-input mistake
     would surface here as p50 > p95 *)
  let sorted = [| 3.0; 1.0; 2.0 |] in
  Array.sort Float.compare sorted;
  check "sorted p50" 2.0 (Serve.percentile sorted 0.50)

(* the summary's latency percentiles and per-stage breakdown *)
let test_serve_summary_breakdown () =
  let responses, failed =
    serve_batch
      [ {|{"source": "int main() { return 1; }", "level": "O0"}|};
        {|{"source": "int main() { return 2; }", "level": "baseline"}|};
        {|{"source": "int main() { return 2; }", "level": "baseline"}|} ]
  in
  Alcotest.(check int) "no failures" 0 failed;
  let s = List.nth responses 3 in
  Alcotest.(check string) "summary type" "summary" (str_field "type" s);
  (match Json.member "latency" s with
  | Some lat ->
    let f name =
      match Option.bind (Json.member name lat) Json.to_float_opt with
      | Some v -> v
      | None -> Alcotest.failf "missing latency field %S" name
    in
    let p50 = f "p50_secs" and p95 = f "p95_secs" and mx = f "max_secs" in
    Alcotest.(check bool) "percentiles ordered" true
      (p50 > 0.0 && p50 <= p95 && p95 <= mx)
  | None -> Alcotest.fail "summary lacks latency block");
  match Json.member "stages" s with
  | Some (Json.Obj stages) ->
    (* every pipeline stage ran at least once for O0+baseline builds *)
    List.iter
      (fun stage ->
        match List.assoc_opt stage stages with
        | Some row ->
          Alcotest.(check bool) (stage ^ " built") true
            (int_field "builds" row > 0);
          Alcotest.(check bool) (stage ^ " wall time") true
            (match Option.bind (Json.member "wall_secs" row) Json.to_float_opt with
            | Some v -> v >= 0.0
            | None -> false)
        | None -> Alcotest.failf "summary stages lack %S" stage)
      [ "lower"; "apply-input"; "promote"; "select"; "regalloc"; "layout";
        "bundle" ]
  | _ -> Alcotest.fail "summary lacks stages block"

(* a registered workload through the daemon computes what the
   interpreter computes on its ref input *)
let test_workload_job () =
  let responses, failed =
    serve_batch [ {|{"id": 1, "workload": "mcf", "level": "alat"}|} ]
  in
  Alcotest.(check int) "no failures" 0 failed;
  let r = List.hd responses in
  let w = Srp_workloads.Registry.find "mcf" in
  let code, out, _ =
    Test_random.interp_reference ~input:w.Workload.ref_ w.Workload.source
  in
  Alcotest.(check string) "output matches interpreter" out
    (str_field "output" r);
  Alcotest.(check int) "exit code matches" (Int64.to_int code)
    (int_field "exit_code" r)

(* --- rejected input ---

   A misspelt or retired field must not silently run a default build, and
   an unknown ablation must say what the valid names are. *)
let test_rejects_bad_jobs () =
  let error_of line =
    match serve_batch [ line ] with
    | [ r; _summary ], 1 ->
      Alcotest.(check string) "error type" "error" (str_field "type" r);
      str_field "error" r
    | _ -> Alcotest.failf "expected exactly one failed job for %s" line
  in
  let contains what msg sub =
    let n = String.length sub and m = String.length msg in
    let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
    Alcotest.(check bool) (Fmt.str "%s: %S mentions %S" what msg sub) true
      (at 0)
  in
  let msg = error_of {|{"workload": "gzip", "level": "O0", "levle": "alat"}|} in
  contains "misspelt field" msg "\"levle\"";
  let msg = error_of {|{"workload": "gzip", "sched": false}|} in
  contains "retired field" msg "\"sched\"";
  let msg = error_of {|{"workload": "gzip", "ablations": ["no-shed"]}|} in
  contains "unknown ablation" msg "\"no-shed\"";
  List.iter
    (fun a -> contains "valid names" msg (Pipeline.ablation_name a))
    Pipeline.all_ablations;
  (* a MiniC error reads as LINE:COL: message, not as an exception *)
  let msg =
    error_of {|{"source": "int main() { int x; x = ; return 0; }", "level": "O0"}|}
  in
  Alcotest.(check string) "source error" "1:25: expected expression, found ';'"
    msg

(* Ablation order and repeats do not change a build, so they must not
   change its key: the three spellings run once. *)
let test_ablation_key_canonical () =
  let job abl =
    Fmt.str {|{"source": "int main() { return 5; }", "level": "O0", "ablations": %s}|}
      abl
  in
  let responses, failed =
    serve_batch
      [ job {|["cascade", "single-round"]|};
        job {|["single-round", "cascade"]|};
        job {|["cascade", "single-round", "cascade"]|} ]
  in
  Alcotest.(check int) "no failures" 0 failed;
  match responses with
  | [ a; b; c; _summary ] ->
    Alcotest.(check string) "reversed list: same key" (str_field "key" a)
      (str_field "key" b);
    Alcotest.(check string) "duplicated list: same key" (str_field "key" a)
      (str_field "key" c);
    Alcotest.(check (list bool)) "one execution" [ false; true; true ]
      (List.map (bool_member "deduped") [ a; b; c ])
  | _ -> Alcotest.fail "expected three responses and a summary"

(* --- randomized soak: daemon vs the interpreter ---

   Each job is a random gen_minic program at a random level with a random
   subset of the ablations; the daemon's output and exit code must be the
   interpreter's.  SRP_SOAK_JOBS scales the batch (the CI soak job sets
   200; a malformed or non-positive count fails the soak); the default
   keeps `dune runtest` fast. *)
let soak_jobs = Test_random.env_count "SRP_SOAK_JOBS" ~default:6 ~min:1

let test_soak () =
  let soak_jobs =
    match soak_jobs with Ok n -> n | Error e -> Alcotest.fail e
  in
  let rng = Srp_support.Rng.create 0x5e41e in
  let descs =
    List.init soak_jobs (fun i ->
        let seed = Srp_support.Rng.int rng 1_000_000 in
        let level =
          List.nth Pipeline.all_levels
            (Srp_support.Rng.int rng (List.length Pipeline.all_levels))
        in
        let ablations =
          List.filter
            (fun _ -> Srp_support.Rng.int rng 2 = 0)
            Pipeline.all_ablations
        in
        (i, Gen_minic.program ~seed (), level, ablations))
  in
  let batch =
    List.map
      (fun (i, src, level, ablations) ->
        Json.to_string
          (Json.Obj
             [ ("id", Json.Int i);
               ("source", Json.String src);
               ("level", Json.String (Pipeline.level_name level));
               ("ablations",
                Json.Arr
                  (List.map
                     (fun a -> Json.String (Pipeline.ablation_name a))
                     ablations)) ]))
      descs
  in
  let responses, failed = serve_batch batch in
  Alcotest.(check int) "no failed soak jobs" 0 failed;
  List.iteri
    (fun i (_, src, _, _) ->
      let r = List.nth responses i in
      let code, out, _ = Test_random.interp_reference src in
      Alcotest.(check string) (Fmt.str "soak job %d output" i) out
        (str_field "output" r);
      Alcotest.(check int)
        (Fmt.str "soak job %d exit code" i)
        (Int64.to_int code) (int_field "exit_code" r))
    descs

let suite =
  [ Alcotest.test_case "batch: order, dedup, stats, summary" `Quick test_batch;
    Alcotest.test_case "spans: one per unique job, stable under dedup" `Quick
      test_serve_spans;
    Alcotest.test_case "percentile: nearest-rank n=0/1/2 edges" `Quick
      test_percentile;
    Alcotest.test_case "summary: latency percentiles + stage breakdown" `Quick
      test_serve_summary_breakdown;
    Alcotest.test_case "workload job matches direct pipeline" `Slow
      test_workload_job;
    Alcotest.test_case
      (Fmt.str "soak: %s random jobs vs interpreter"
         (Test_random.count_label soak_jobs))
      `Slow test_soak;
    Alcotest.test_case "rejects unknown fields and ablation names" `Quick
      test_rejects_bad_jobs;
    Alcotest.test_case "ablation order and repeats share one key" `Quick
      test_ablation_key_canonical ]
