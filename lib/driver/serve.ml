(* `srp serve` — the batch compile-and-simulate daemon (ROADMAP
   "production-scale" item).

   Protocol (schema srp-serve-v1): JSON-lines on stdin, one job per line,
   batch ends at EOF.  A job names a built-in workload or carries inline
   MiniC source, plus a level, ablations (any of Pipeline.all_ablations,
   by name) and a fuel bound (the machine config):

     {"id": 1, "workload": "gzip", "level": "alat"}
     {"id": 2, "source": "int main() { return 0; }", "level": "O0",
      "ablations": ["no-sched", "no-split"], "fuel": 1000000}

   Any other field is an error, as is an unknown ablation name.

   The daemon dedupes jobs by content key, fans the unique jobs out on
   the Experiments domain pool over one shared stage store (so every
   build of a workload shares its lower artifact and train profile), and
   answers one JSON line per job in input order, followed by a summary
   line with compiles/sec and the cache hit rate.  Each response carries
   the pass statistics of its own job (Stats.with_scope) — the global
   registry would conflate concurrent jobs. *)

module Json = Srp_obs.Json
module Stats = Srp_obs.Stats
module Span = Srp_obs.Span

type job = {
  j_id : Json.t;  (* echoed back verbatim; line number if absent *)
  j_w : Workload.t;
  j_level : Pipeline.level;
  j_ablations : Pipeline.ablation list;
  j_fuel : int option;
}

(* The job's content key: everything that determines its result.  Two
   jobs with equal keys are the same compile-and-run, whatever their ids
   say — the second is answered from the first's result.  Ablations enter
   in canonical form, so their order and repeats do not matter. *)
let job_key (j : job) : string =
  Stage.Key.digest
    ([ "serve-job"; j.j_w.Workload.source;
       Workload.digest j.j_w.Workload.train;
       Workload.digest j.j_w.Workload.ref_;
       Pipeline.level_name j.j_level ]
    @ List.map Pipeline.ablation_name
        (Pipeline.canonical_ablations j.j_ablations)
    @ [ (match j.j_fuel with None -> "" | Some f -> string_of_int f) ])

let ( let* ) = Result.bind

let job_fields = [ "id"; "workload"; "source"; "level"; "ablations"; "fuel" ]

let parse_job ~(lookup : string -> Workload.t option) ~(line_no : int)
    (js : Json.t) : Json.t * (job, string) result =
  let id =
    match Json.member "id" js with Some v -> v | None -> Json.Int line_no
  in
  let job =
    let* () =
      match js with
      | Json.Obj fields -> (
        match List.find_opt (fun (k, _) -> not (List.mem k job_fields)) fields with
        | Some (k, _) ->
          Error
            (Fmt.str "unknown job field %S (expected one of: %s)" k
               (String.concat ", " job_fields))
        | None -> Ok ())
      | _ -> Error "a job must be a JSON object"
    in
    let* w =
      match (Json.member "workload" js, Json.member "source" js) with
      | Some v, None -> (
        match Option.bind (Some v) Json.to_string_opt with
        | None -> Error "field \"workload\" must be a string"
        | Some name -> (
          match lookup name with
          | Some w -> Ok w
          | None -> Error (Fmt.str "unknown workload %S" name)))
      | None, Some v -> (
        match Json.to_string_opt v with
        | None -> Error "field \"source\" must be a string"
        | Some source ->
          Ok { Workload.name = "<inline>"; description = "inline source";
               source; train = Workload.input [];
               ref_ = Workload.input [] })
      | Some _, Some _ -> Error "give either \"workload\" or \"source\", not both"
      | None, None -> Error "job needs a \"workload\" name or inline \"source\""
    in
    let* level =
      match Json.member "level" js with
      | None -> Ok Pipeline.Alat
      | Some v -> (
        match Option.bind (Json.to_string_opt v) Pipeline.level_of_string with
        | Some l -> Ok l
        | None -> Error "field \"level\" must name an optimization level")
    in
    let* ablations =
      match Json.member "ablations" js with
      | None -> Ok []
      | Some v -> (
        match Json.to_list_opt v with
        | None -> Error "field \"ablations\" must be an array of names"
        | Some items ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match Json.to_string_opt item with
              | Some name ->
                Result.map (fun a -> acc @ [ a ]) (Pipeline.parse_ablation name)
              | None -> Error "field \"ablations\" must be an array of names")
            (Ok []) items)
    in
    let* fuel =
      match Json.member "fuel" js with
      | None -> Ok None
      | Some v -> (
        match Json.to_int_opt v with
        | Some f when f > 0 -> Ok (Some f)
        | _ -> Error "field \"fuel\" must be a positive integer")
    in
    Ok { j_id = id; j_w = w; j_level = level; j_ablations = ablations;
         j_fuel = fuel }
  in
  (id, job)

(* One executed job: the run result plus the pass statistics scoped to
   this job alone. *)
type outcome = (Pipeline.run_result * Stats.Scope.t, exn) result

let run_job ~cache ~key (j : job) : Pipeline.run_result * Stats.Scope.t =
  Span.with_span ~cat:"serve" "serve.job"
    ~args:
      [ ("key", Json.String key);
        ("workload", Json.String j.j_w.Workload.name);
        ("level", Json.String (Pipeline.level_name j.j_level)) ]
    (fun () ->
      Stats.with_scope (fun () ->
          Pipeline.profile_compile_run ?fuel:j.j_fuel ~cache
            ~ablations:j.j_ablations j.j_w j.j_level))

let result_json (j : job) ~key ~deduped (r : Pipeline.run_result)
    (scope : Stats.Scope.t) : Json.t =
  Json.Obj
    [ ("type", Json.String "result");
      ("schema", Json.String "srp-serve-v1");
      ("id", j.j_id);
      ("workload", Json.String j.j_w.Workload.name);
      ("level", Json.String (Pipeline.level_name j.j_level));
      ("key", Json.String key);
      ("deduped", Json.Bool deduped);
      ("exit_code", Json.Int (Int64.to_int r.Pipeline.exit_code));
      ("output", Json.String r.Pipeline.output);
      ("counters", Srp_machine.Counters.to_json r.Pipeline.counters);
      ("pass_stats", Stats.Scope.to_json scope) ]

let error_json (id : Json.t) (msg : string) : Json.t =
  Json.Obj
    [ ("type", Json.String "error");
      ("schema", Json.String "srp-serve-v1");
      ("id", id);
      ("error", Json.String msg) ]

(* Nearest-rank percentile over a sorted array; 0 for an empty batch. *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0
              (min (n - 1)
                 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let summary_json ~jobs ~unique ~errors ~deduped ~wall_secs
    ~(latencies : float array) ~(stages : (string * int * float) list)
    ~(cache_stats : Stage.cache_stats) : Json.t =
  let compiles_per_sec =
    if wall_secs > 0.0 then float_of_int unique /. wall_secs else 0.0
  in
  let sorted = Array.copy latencies in
  Array.sort Float.compare sorted;
  Json.Obj
    [ ("type", Json.String "summary");
      ("schema", Json.String "srp-serve-v1");
      ("jobs", Json.Int jobs);
      ("unique", Json.Int unique);
      ("deduped", Json.Int deduped);
      ("errors", Json.Int errors);
      ("wall_secs", Json.Float wall_secs);
      ("compiles_per_sec", Json.Float compiles_per_sec);
      ("latency",
       Json.Obj
         [ ("p50_secs", Json.Float (percentile sorted 0.50));
           ("p95_secs", Json.Float (percentile sorted 0.95));
           ("max_secs", Json.Float (percentile sorted 1.0)) ]);
      ("stages",
       Json.Obj
         (List.map
            (fun (stage, builds, secs) ->
              ( stage,
                Json.Obj
                  [ ("builds", Json.Int builds);
                    ("wall_secs", Json.Float secs) ] ))
            stages));
      ("cache",
       Json.Obj
         [ ("hits", Json.Int cache_stats.Stage.hits);
           ("misses", Json.Int cache_stats.Stage.misses);
           ("evictions", Json.Int cache_stats.Stage.evictions);
           ("hit_rate", Json.Float (Stage.hit_rate cache_stats)) ]) ]

(* Read the whole batch, answer every line in order, emit the summary.
   [now] supplies wall-clock time (Unix.gettimeofday from bin/ — this
   library stays Unix-free).  Returns the number of failed jobs.

   The batch always runs under a span tracer: the one already installed
   (`srp serve --trace-spans`), else a sink-less tracer created for the
   batch — either way the summary line's per-stage breakdown comes from
   its aggregated totals, so daemon health is visible without a trace
   file. *)
let serve ~(lookup : string -> Workload.t option) ~(now : unit -> float)
    ?(capacity = 512) (ic : in_channel) (oc : out_channel) : int =
  let owned_tracer =
    match Span.active () with
    | Some _ -> None
    | None ->
      let t = Span.create () in
      Span.install t;
      Some t
  in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then lines := line :: !lines
     done
   with End_of_file -> ());
  let lines = List.rev !lines in
  (* parse every line first: a batch with a malformed line still runs the
     rest *)
  let parsed =
    List.mapi
      (fun i line ->
        match Json.of_string line with
        | Error e -> (Json.Int (i + 1), Error (Fmt.str "parse error: %s" e))
        | Ok js -> parse_job ~lookup ~line_no:(i + 1) js)
      lines
  in
  (* dedupe by content key: first occurrence executes, the rest share *)
  let by_key : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let uniq : (job * string) list ref = ref [] in
  let nuniq = ref 0 in
  let routed =
    List.map
      (fun (id, parse) ->
        Span.instant ~cat:"serve" "serve.enqueue" ~args:[ ("id", id) ];
        match parse with
        | Error e -> (id, Error e)
        | Ok j ->
          let key = job_key j in
          (match Hashtbl.find_opt by_key key with
          | Some slot ->
            Span.instant ~cat:"serve" "serve.dedup"
              ~args:[ ("id", id); ("key", Json.String key) ];
            (id, Ok (j, key, slot, true))
          | None ->
            let slot = !nuniq in
            Hashtbl.replace by_key key slot;
            incr nuniq;
            uniq := (j, key) :: !uniq;
            (id, Ok (j, key, slot, false))))
      parsed
  in
  let uniq = Array.of_list (List.rev !uniq) in
  let cache = Stage.create ~capacity () in
  let latencies = Array.make (Array.length uniq) 0.0 in
  let t0 = now () in
  let outcomes : outcome array =
    Experiments.pool_map ~ntasks:(Array.length uniq) (fun i ->
        let j, key = uniq.(i) in
        let l0 = Srp_obs.Clock.now () in
        Fun.protect
          ~finally:(fun () -> latencies.(i) <- Srp_obs.Clock.now () -. l0)
          (fun () -> run_job ~cache ~key j))
  in
  let wall_secs = now () -. t0 in
  let failed = ref 0 in
  let ndeduped = ref 0 in
  Span.with_span ~cat:"serve" "serve.respond" (fun () ->
      List.iter
        (fun (id, routed) ->
          let doc =
            match routed with
            | Error e ->
              incr failed;
              error_json id e
            | Ok (j, key, slot, deduped) -> (
              if deduped then incr ndeduped;
              match outcomes.(slot) with
              | Ok (r, scope) -> result_json j ~key ~deduped r scope
              | Error e ->
                incr failed;
                error_json id
                  (match Srp_frontend.Lower.error_message e with
                  | Some msg -> msg
                  | None -> Printexc.to_string e))
          in
          output_string oc (Json.to_string doc);
          output_char oc '\n')
        routed);
  (* per-stage wall-time breakdown: the tracer's aggregated "stage"
     category, names stripped of their "stage." prefix *)
  let stages =
    match Span.active () with
    | None -> []
    | Some t ->
      List.filter_map
        (fun (cat, name, count, secs) ->
          if cat <> "stage" then None
          else
            let stage =
              if String.length name > 6 && String.sub name 0 6 = "stage." then
                String.sub name 6 (String.length name - 6)
              else name
            in
            Some (stage, count, secs))
        (Span.totals t)
  in
  (match owned_tracer with Some _ -> Span.uninstall () | None -> ());
  let summary =
    summary_json ~jobs:(List.length routed) ~unique:(Array.length uniq)
      ~errors:!failed ~deduped:!ndeduped ~wall_secs ~latencies ~stages
      ~cache_stats:(Stage.stats cache)
  in
  output_string oc (Json.to_string summary);
  output_char oc '\n';
  flush oc;
  !failed
