(* Pass statistics — an LLVM -stats style registry (cf. STATISTIC in
   RegisterPromotion.cpp).  Every compiler phase reports named counters and
   timers into one process-global table; the driver renders it as a table
   (`Stats.report`) or as JSON (`Stats.to_json`).

   The registry is process-global and accumulates across runs in the same
   process (the bench harness compiles dozens of programs; its pass stats
   are the totals).  `reset` clears it — handles obtained before a reset
   keep working but no longer feed the report, so instrumentation sites
   look counters up at use time rather than caching them.

   The bench harness compiles workloads from a pool of domains, so every
   access to the shared table and to entry fields takes one global mutex
   — these are tiny critical sections (int bumps, table lookups), far off
   any hot path.  The report orders entries by (pass, name) so its output
   does not depend on which domain registered a counter first. *)

type kind = Counter | Timer

type entry = {
  pass : string;
  name : string;
  kind : kind;
  mutable count : int; (* counter value, or timer invocation count *)
  mutable secs : float; (* timers only: accumulated wall-clock seconds *)
}

type counter = entry

type registry = {
  tbl : (string * string, entry) Hashtbl.t;
  mutable order : entry list; (* reverse insertion order *)
}

let reg = { tbl = Hashtbl.create 64; order = [] }
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

(* One JSON object per entry; its kind, not its value, picks the shape. *)
let entry_json e : Json.t =
  Json.Obj
    ([ ("pass", Json.String e.pass); ("name", Json.String e.name) ]
    @
    match e.kind with
    | Counter -> [ ("value", Json.Int e.count) ]
    | Timer -> [ ("seconds", Json.Float e.secs); ("calls", Json.Int e.count) ])

let by_key a b = compare (a.pass, a.name) (b.pass, b.name)

(* --- per-job scopes ---

   The process-global registry conflates concurrent daemon jobs: `srp
   serve` compiles from a pool of domains, and a response must report the
   pass statistics of *its* job only.  A scope is a domain-local shadow
   registry: while active, every bump lands in both the global table and
   the scope, so existing instrumentation sites need no changes.  Scopes
   are per-domain (Domain.DLS), and each worker domain runs one job at a
   time, so two concurrent jobs never bleed counters into each other.
   Work a job *waits on* rather than executes (a cache hit on another
   domain's in-flight stage build) is charged to the builder's scope, not
   the waiter's — scope stats mean "work this job performed". *)

module Scope = struct
  type t = { stbl : (string * string, entry) Hashtbl.t }

  let create () = { stbl = Hashtbl.create 16 }

  let entry scope ~pass ~name kind =
    match Hashtbl.find_opt scope.stbl (pass, name) with
    | Some e -> e
    | None ->
      let e = { pass; name; kind; count = 0; secs = 0.0 } in
      Hashtbl.replace scope.stbl (pass, name) e;
      e

  let value scope ~pass name =
    match Hashtbl.find_opt scope.stbl (pass, name) with
    | Some e -> e.count
    | None -> 0

  (* sorted by (pass, name) like the global report *)
  let to_json scope : Json.t =
    Json.Arr
      (Hashtbl.fold (fun _ e acc -> e :: acc) scope.stbl []
      |> List.sort by_key |> List.map entry_json)
end

(* The active scope of the calling domain, if any.  Only touched by its
   own domain, so no locking beyond the global mutex already held at the
   bump sites. *)
let scope_key : Scope.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_scope () = !(Domain.DLS.get scope_key)

let with_scope (f : unit -> 'a) : 'a * Scope.t =
  let slot = Domain.DLS.get scope_key in
  let saved = !slot in
  let scope = Scope.create () in
  slot := Some scope;
  let v =
    Fun.protect ~finally:(fun () -> slot := saved) f
  in
  (v, scope)

(* Apply [f] to the global entry [e], under the lock, and to the calling
   domain's entry of the same name in its active scope, if any. *)
let bump (e : entry) f =
  locked (fun () -> f e);
  match current_scope () with
  | None -> ()
  | Some scope -> f (Scope.entry scope ~pass:e.pass ~name:e.name e.kind)

let reset () =
  locked @@ fun () ->
  Hashtbl.reset reg.tbl;
  reg.order <- []

let find_or_add ~pass ~name kind =
  locked @@ fun () ->
  match Hashtbl.find_opt reg.tbl (pass, name) with
  | Some e -> e
  | None ->
    let e = { pass; name; kind; count = 0; secs = 0.0 } in
    Hashtbl.replace reg.tbl (pass, name) e;
    reg.order <- e :: reg.order;
    e

let counter ~pass name : counter = find_or_add ~pass ~name Counter

let add (c : counter) n = bump c (fun e -> e.count <- e.count + n)

let incr c = add c 1

let set_max (c : counter) n = bump c (fun e -> if n > e.count then e.count <- n)

let value (c : counter) = locked @@ fun () -> c.count

(* Read a statistic without creating it: (count-or-calls, seconds). *)
let find ~pass name =
  locked @@ fun () ->
  match Hashtbl.find_opt reg.tbl (pass, name) with
  | Some e -> Some (e.count, e.secs)
  | None -> None

(* Accumulate monotonic wall-clock time.  This used to read Sys.time —
   *process* CPU time — which double-counts under the Domain pool: while
   one worker timed its phase, every other busy worker's CPU seconds
   landed in the same delta.  Timed scopes also surface as spans
   ("pass.name") when a tracer is installed, so pass phases appear in
   the flamegraph with no extra instrumentation. *)
let time ~pass name f =
  let e = find_or_add ~pass ~name Timer in
  let t0 = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.now () -. t0 in
      bump e (fun e ->
          e.secs <- e.secs +. dt;
          e.count <- e.count + 1))
    (fun () -> Span.with_span ~cat:"pass" (pass ^ "." ^ name) f)

(* Sorted, not insertion-ordered: with domains racing to register
   counters, insertion order is run-dependent; (pass, name) is not. *)
let entries () = locked (fun () -> reg.order) |> List.sort by_key

let report () : string =
  let rows =
    List.map
      (fun e ->
        match e.kind with
        | Counter -> [ e.pass; e.name; string_of_int e.count; "" ]
        | Timer ->
          [ e.pass; e.name; Fmt.str "%.4fs" e.secs; Fmt.str "%d calls" e.count ])
      (entries ())
  in
  if rows = [] then "(no statistics recorded)\n"
  else
    (* lightweight fixed-width table; lib/support is not a dependency *)
    let widths = [| 0; 0; 0; 0 |] in
    List.iter
      (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
      ([ "pass"; "statistic"; "value"; "" ] :: rows);
    let buf = Buffer.create 256 in
    let render row =
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf c;
          if i < 3 then
            Buffer.add_string buf (String.make (widths.(i) - String.length c) ' '))
        row;
      Buffer.add_char buf '\n'
    in
    render [ "pass"; "statistic"; "value"; "" ];
    render
      (List.map (fun w -> String.make w '-') (Array.to_list widths)
      |> function
      | [ a; b; c; _ ] -> [ a; b; c; "" ]
      | r -> r);
    List.iter render rows;
    Buffer.contents buf

let to_json () : Json.t = Json.Arr (List.map entry_json (entries ()))
