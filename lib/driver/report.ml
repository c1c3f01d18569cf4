(* Derivation of the paper's evaluation figures from counter pairs.

   Figure 8 — per benchmark, the reduction (in %) of total CPU cycles,
   data-access cycles and retired loads of the speculative build relative
   to the baseline build.
   Figure 9 — the loads the speculative build retired fewer of than the
   baseline, split between direct and indirect references (from the
   per-site histogram of retired loads).
   Figure 10 — checks/loads and the mis-speculation ratio
   (failed checks / checks retired).
   Figure 11 — RSE cycle increase relative to baseline, and RSE cycles as
   a fraction of total cycles. *)

module C = Srp_machine.Counters
module Site_hist = Srp_obs.Site_hist

let pct_reduction ~base ~new_ =
  if base = 0 then 0.0
  else 100.0 *. (float_of_int (base - new_) /. float_of_int base)

type fig8_row = {
  f8_name : string;
  cpu_cycles_red : float;
  data_access_red : float;
  loads_red : float;
}

let figure8_row ~name ~(base : C.t) ~(spec : C.t) : fig8_row =
  { f8_name = name;
    cpu_cycles_red = pct_reduction ~base:base.C.cycles ~new_:spec.C.cycles;
    data_access_red =
      pct_reduction ~base:base.C.data_access_cycles ~new_:spec.C.data_access_cycles;
    loads_red = pct_reduction ~base:base.C.loads_retired ~new_:spec.C.loads_retired }

(* Figure 9 from the machine, as the paper's pfmon measured it: the
   (direct, indirect) loads one run retired.  Every load-carrying site of
   the build's own IR (a load, a check's reload, a software check, the
   loads of a chk.a recovery list) takes the class of its address; a site
   no IR instruction names (a register-allocator fill, site -1) is in
   neither class. *)
let retired_loads_by_class (r : Pipeline.run_result) : int * int =
  let open Srp_ir in
  let classes = Hashtbl.create 64 in
  let rec visit = function
    | Instr.Load { addr; site; _ } | Instr.Sw_check { addr; site; _ } ->
      Hashtbl.replace classes site (Ops.is_direct addr)
    | Instr.Check { addr; site; recovery; _ } ->
      Hashtbl.replace classes site (Ops.is_direct addr);
      List.iter visit recovery
    | _ -> ()
  in
  List.iter
    (Func.iter_instrs (fun _ -> visit))
    (Program.funcs r.Pipeline.compiled.Pipeline.ir);
  Hashtbl.fold
    (fun site direct (d, i) ->
      let n = Site_hist.count r.Pipeline.site_stats ~site Site_hist.Loads_retired in
      if direct then (d + n, i) else (d, i + n))
    classes (0, 0)

type fig9_row = {
  f9_name : string;
  direct_reduced : int; (* direct loads retired, baseline minus alat *)
  indirect_reduced : int;
  direct_pct : float; (* share of the summed positive reductions *)
  indirect_pct : float;
}

let figure9_row ~name ~(base : Pipeline.run_result) ~(spec : Pipeline.run_result)
    : fig9_row =
  let bd, bi = retired_loads_by_class base in
  let sd, si = retired_loads_by_class spec in
  let d = bd - sd and i = bi - si in
  let total = max 0 d + max 0 i in
  let pct x =
    if total = 0 then 0.0 else 100.0 *. float_of_int (max 0 x) /. float_of_int total
  in
  { f9_name = name; direct_reduced = d; indirect_reduced = i;
    direct_pct = pct d; indirect_pct = pct i }

type fig10_row = {
  f10_name : string;
  checks_per_load : float; (* checks retired / loads retired, % *)
  misspec_ratio : float; (* failed checks / checks retired, % *)
}

let figure10_row ~name ~(spec : C.t) : fig10_row =
  let ratio a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  { f10_name = name;
    checks_per_load = ratio spec.C.checks_retired spec.C.loads_retired;
    misspec_ratio = ratio spec.C.check_failures spec.C.checks_retired }

type fig11_row = {
  f11_name : string;
  rse_increase : float; (* % increase of RSE cycles vs baseline *)
  rse_fraction : float; (* RSE cycles / total cycles of the spec build, % *)
}

let figure11_row ~name ~(base : C.t) ~(spec : C.t) : fig11_row =
  let incr =
    if base.C.rse_cycles = 0 then if spec.C.rse_cycles = 0 then 0.0 else 100.0
    else
      100.0
      *. (float_of_int (spec.C.rse_cycles - base.C.rse_cycles)
         /. float_of_int base.C.rse_cycles)
  in
  { f11_name = name; rse_increase = incr;
    rse_fraction =
      (if spec.C.cycles = 0 then 0.0
       else 100.0 *. float_of_int spec.C.rse_cycles /. float_of_int spec.C.cycles) }

(* --- JSON rows (the machine-readable form of Figures 8-11) --- *)

module J = Srp_obs.Json

let fig8_json (r : fig8_row) : J.t =
  J.Obj
    [ ("benchmark", J.String r.f8_name);
      ("cpu_cycles_reduction_pct", J.Float r.cpu_cycles_red);
      ("data_access_reduction_pct", J.Float r.data_access_red);
      ("loads_reduction_pct", J.Float r.loads_red) ]

let fig9_json (r : fig9_row) : J.t =
  J.Obj
    [ ("benchmark", J.String r.f9_name);
      ("direct_pct", J.Float r.direct_pct);
      ("indirect_pct", J.Float r.indirect_pct);
      ("direct_loads_reduced", J.Int r.direct_reduced);
      ("indirect_loads_reduced", J.Int r.indirect_reduced) ]

let fig10_json (r : fig10_row) : J.t =
  J.Obj
    [ ("benchmark", J.String r.f10_name);
      ("checks_per_load_pct", J.Float r.checks_per_load);
      ("misspeculation_pct", J.Float r.misspec_ratio) ]

let fig11_json (r : fig11_row) : J.t =
  J.Obj
    [ ("benchmark", J.String r.f11_name);
      ("rse_cycles_increase_pct", J.Float r.rse_increase);
      ("rse_total_cycles_pct", J.Float r.rse_fraction) ]

(* --- table rendering --- *)

let pct = Fmt.str "%.2f"

let render_figure8 rows =
  Srp_support.Pp_util.render_table
    ~header:[ "benchmark"; "cpu cycles red %"; "data access red %"; "loads red %" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.f8_name; pct r.cpu_cycles_red; pct r.data_access_red; pct r.loads_red ])
         rows)

let render_figure9 rows =
  Srp_support.Pp_util.render_table
    ~header:
      [ "benchmark"; "direct %"; "indirect %"; "direct loads red";
        "indirect loads red" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.f9_name; pct r.direct_pct; pct r.indirect_pct;
             string_of_int r.direct_reduced; string_of_int r.indirect_reduced ])
         rows)

let render_figure10 rows =
  Srp_support.Pp_util.render_table
    ~header:[ "benchmark"; "checks/loads %"; "mis-speculation %" ]
    ~rows:
      (List.map
         (fun r -> [ r.f10_name; pct r.checks_per_load; pct r.misspec_ratio ])
         rows)

let render_figure11 rows =
  Srp_support.Pp_util.render_table
    ~header:[ "benchmark"; "RSE cycles increase %"; "RSE/total cycles %" ]
    ~rows:
      (List.map
         (fun r -> [ r.f11_name; pct r.rse_increase; Fmt.str "%.4f" r.rse_fraction ])
         rows)

(* --- `srp report`: consume an srp-spans-v1 file --- *)

module Span_report = struct
  (* One complete ("ph":"X") event of a span file; ts/dur in µs. *)
  type event = { e_name : string; e_ts : float; e_dur : float; e_tid : int }

  (* Parse the trace-event array, keeping complete events and noting the
     "truncated" marker's drop count.  Instants (cache hits, enqueues)
     carry no duration and don't participate in the time tables. *)
  let parse (doc : J.t) : (event list * int, string) result =
    match J.to_list_opt doc with
    | None -> Error "span file is not a JSON array of trace events"
    | Some items ->
      let dropped = ref 0 in
      let evs =
        List.filter_map
          (fun it ->
            let str k = Option.bind (J.member k it) J.to_string_opt in
            let num k = Option.bind (J.member k it) J.to_float_opt in
            (if str "name" = Some "truncated" then
               match
                 Option.bind (J.member "args" it) (J.member "dropped")
               with
               | Some (J.Int n) -> dropped := n
               | _ -> ());
            match str "ph", str "name", num "ts", num "dur" with
            | Some "X", Some name, Some ts, Some dur ->
              Some
                { e_name = name; e_ts = ts; e_dur = dur;
                  e_tid =
                    Option.value ~default:0
                      (Option.bind (J.member "tid" it) J.to_int_opt) }
            | _ -> None)
          items
      in
      Ok (evs, !dropped)

  type agg = {
    mutable count : int;
    mutable total : float; (* µs, inclusive of children *)
    mutable self : float; (* µs, minus direct children *)
  }

  let touch tbl key =
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
      let a = { count = 0; total = 0.0; self = 0.0 } in
      Hashtbl.replace tbl key a;
      a

  (* Reconstruct nesting per domain from the interval structure: events
     sorted by (start asc, dur desc) visit parents before children, and a
     stack of still-open intervals yields each event's span path
     ("a;b;c").  Self time = duration minus direct children.  Returns
     (per (name, tid) table, per path table). *)
  let analyze (evs : event list) :
      (string * int, agg) Hashtbl.t * (string, agg) Hashtbl.t =
    let by_span : (string * int, agg) Hashtbl.t = Hashtbl.create 32 in
    let by_path : (string, agg) Hashtbl.t = Hashtbl.create 32 in
    let tids = Hashtbl.create 8 in
    List.iter (fun e -> Hashtbl.replace tids e.e_tid ()) evs;
    Hashtbl.iter
      (fun tid () ->
        let mine =
          List.filter (fun e -> e.e_tid = tid) evs
          |> List.sort (fun a b ->
                 match compare a.e_ts b.e_ts with
                 | 0 -> compare b.e_dur a.e_dur
                 | c -> c)
        in
        (* stack of open (end-µs, path) frames, innermost first *)
        let stack = ref [] in
        List.iter
          (fun e ->
            let a = touch by_span (e.e_name, tid) in
            a.count <- a.count + 1;
            a.total <- a.total +. e.e_dur;
            while
              match !stack with
              | (end_, _) :: rest when end_ <= e.e_ts ->
                stack := rest;
                true
              | _ -> false
            do
              ()
            done;
            let path =
              match !stack with
              | [] -> e.e_name
              | (_, ppath) :: _ ->
                (* charge this event to its parent path's children *)
                let p = touch by_path ppath in
                p.self <- p.self -. e.e_dur;
                ppath ^ ";" ^ e.e_name
            in
            let pa = touch by_path path in
            pa.count <- pa.count + 1;
            pa.total <- pa.total +. e.e_dur;
            pa.self <- pa.self +. e.e_dur;
            stack := (e.e_ts +. e.e_dur, path) :: !stack)
          mine)
      tids;
    (by_span, by_path)

  let ms us = Fmt.str "%.3f" (us /. 1e3)

  (* The per-stage/per-domain wall-time table: one row per (span name,
     domain), busiest first. *)
  let span_table by_span : string =
    let rows =
      Hashtbl.fold (fun (name, tid) a acc -> (name, tid, a) :: acc) by_span []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b.total a.total)
      |> List.map (fun (name, tid, a) ->
             [ name; string_of_int tid; string_of_int a.count; ms a.total ])
    in
    Srp_support.Pp_util.render_table
      ~header:[ "span"; "domain"; "count"; "total ms" ] ~rows

  (* The text flamegraph: top-K span paths by self time, indented by
     nesting depth. *)
  let flamegraph ?(top_k = 15) by_path : string =
    let rows =
      Hashtbl.fold (fun path a acc -> (path, a) :: acc) by_path []
      |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)
      |> List.filteri (fun i _ -> i < top_k)
      |> List.map (fun (path, a) ->
             let parts = String.split_on_char ';' path in
             let depth = List.length parts - 1 in
             let leaf = List.nth parts depth in
             [ String.make (2 * depth) ' ' ^ leaf;
               string_of_int a.count; ms a.self; ms a.total ])
    in
    Srp_support.Pp_util.render_table
      ~header:[ "hot span path (by self time)"; "count"; "self ms"; "total ms" ]
      ~rows

  (* The whole `srp report` rendering for one span file. *)
  let render ?top_k (doc : J.t) : (string, string) result =
    match parse doc with
    | Error e -> Error e
    | Ok (evs, dropped) ->
      let by_span, by_path = analyze evs in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Fmt.str "%d complete spans across %d domains%s\n\n" (List.length evs)
           (Hashtbl.length
              (let t = Hashtbl.create 8 in
               List.iter (fun e -> Hashtbl.replace t e.e_tid ()) evs;
               t))
           (if dropped > 0 then Fmt.str " (truncated: %d dropped)" dropped
            else ""));
      Buffer.add_string buf (span_table by_span);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (flamegraph ?top_k by_path);
      Ok (Buffer.contents buf)
end

(* --- `srp bench --compare`: exact gate over two srp-bench-v1 docs --- *)

module Compare = struct
  (* The simulator is deterministic, so every counter is exact: any
     difference, up or down, is reported.  Figure 9's integer fields are
     held to the same rule: they rest on per-site attribution, which no
     global counter pins. *)
  type difference = {
    r_bench : string;
    r_side : string; (* "baseline" | "alat" | "figure9" *)
    r_counter : string;
    r_old : int;
    r_new : int;
    r_delta_pct : float;
  }

  let bench_index (doc : J.t) : ((string, J.t) Hashtbl.t, string) result =
    match Option.bind (J.member "schema" doc) J.to_string_opt with
    | Some "srp-bench-v1" -> (
      match Option.bind (J.member "benchmarks" doc) J.to_list_opt with
      | None -> Error "missing \"benchmarks\" array"
      | Some entries ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun e ->
            match Option.bind (J.member "name" e) J.to_string_opt with
            | Some name -> Hashtbl.replace tbl name e
            | None -> ())
          entries;
        Ok tbl)
    | _ -> Error "not an srp-bench-v1 document"

  (* Compare one counters object pair; missing fields on the new side are
     errors (a counter vanished), not silently skipped. *)
  let compare_counters ~bench ~side (old_c : J.t) (new_c : J.t) :
      (difference list, string) result =
    match old_c with
    | J.Obj fields ->
      List.fold_left
        (fun acc (counter, old_v) ->
          match acc with
          | Error _ -> acc
          | Ok diffs -> (
            match old_v, Option.bind (J.member counter new_c) J.to_int_opt with
            | J.Int old_v, Some new_v when new_v <> old_v ->
              Ok
                ({ r_bench = bench; r_side = side; r_counter = counter;
                   r_old = old_v; r_new = new_v;
                   r_delta_pct =
                     100.0 *. float_of_int (new_v - old_v)
                     /. float_of_int (max 1 (abs old_v)) }
                :: diffs)
            | J.Int _, None ->
              Error (Fmt.str "%s/%s: counter %S missing from new document" bench side counter)
            | _ -> Ok diffs))
        (Ok []) fields
    | _ -> Error (Fmt.str "%s/%s: counters are not an object" bench side)

  (* The canonical ablation list a sweep's alat builds ran with. *)
  let ablations (doc : J.t) : (string list, string) result =
    match Option.bind (J.member "ablations" doc) J.to_list_opt with
    | Some l -> Ok (List.filter_map J.to_string_opt l)
    | None -> Error "missing \"ablations\" list"

  (* Diff two srp-bench-v1 documents per kernel x level.  A benchmark
     present in [old_doc] but absent from [new_doc] is an error — a
     silently dropped kernel must not read as "no differences".  So are
     two sweeps of different builds: their counters differ by design. *)
  let compare_docs ~(old_doc : J.t) ~(new_doc : J.t) : (difference list, string) result =
    let ( let* ) = Result.bind in
    let tagged side r = Result.map_error (fun e -> side ^ ": " ^ e) r in
    let* old_tbl = tagged "old" (bench_index old_doc) in
    let* new_tbl = tagged "new" (bench_index new_doc) in
    let* old_abl = tagged "old" (ablations old_doc) in
    let* new_abl = tagged "new" (ablations new_doc) in
    let show l = "[" ^ String.concat ", " l ^ "]" in
    if old_abl <> new_abl then
      Error (Fmt.str "ablations differ: old %s, new %s" (show old_abl) (show new_abl))
    else
      let names =
        Hashtbl.fold (fun name _ acc -> name :: acc) old_tbl []
        |> List.sort compare
      in
      List.fold_left
        (fun acc name ->
          let* diffs = acc in
          match Hashtbl.find_opt new_tbl name with
          | None -> Error (Fmt.str "benchmark %S missing from new document" name)
          | Some new_e ->
            let old_e = Hashtbl.find old_tbl name in
            let side side_name field =
              match J.member field old_e, J.member field new_e with
              | Some o, Some n -> compare_counters ~bench:name ~side:side_name o n
              | _ -> Error (Fmt.str "%s: missing %s" name field)
            in
            let* base_diffs = side "baseline" "baseline_counters" in
            let* alat_diffs = side "alat" "alat_counters" in
            let* fig9_diffs = side "figure9" "figure9" in
            Ok (diffs @ base_diffs @ alat_diffs @ fig9_diffs))
        (Ok []) names

  let render (diffs : difference list) : string =
    if diffs = [] then "no differences\n"
    else
      Srp_support.Pp_util.render_table
        ~header:[ "benchmark"; "side"; "counter"; "old"; "new"; "delta %" ]
        ~rows:
          (List.map
             (fun r ->
               [ r.r_bench; r.r_side; r.r_counter; string_of_int r.r_old;
                 string_of_int r.r_new; Fmt.str "%+.2f" r.r_delta_pct ])
             diffs)
end
