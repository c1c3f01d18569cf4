(* Per-site event attribution — the pfmon event-sampling stand-in.

   pfmon on a real Itanium can sample which instruction address caused an
   ALAT event; our machine knows something better — the stable IR site id
   every load/store/check carries from lowering onward.  The machine
   records each memory-system event against its originating site here,
   which is what lets a report say *which load site* mis-speculates (and
   lets tests assert that per-site sums equal the global counters).

   Event names deliberately match the Counters.t field names so the
   cross-check between histogram and global counters is by-name. *)

type event =
  | Loads_retired
  | Fp_loads_retired
  | Stores_retired
  | Alat_inserts
  | Alat_evictions
  | Alat_store_invalidations
  | Checks_retired
  | Check_failures
  | Branch_mispredicts
  | Split_stalls

let all_events =
  [ Loads_retired; Fp_loads_retired; Stores_retired; Alat_inserts;
    Alat_evictions; Alat_store_invalidations; Checks_retired; Check_failures;
    Branch_mispredicts; Split_stalls ]

let event_index = function
  | Loads_retired -> 0
  | Fp_loads_retired -> 1
  | Stores_retired -> 2
  | Alat_inserts -> 3
  | Alat_evictions -> 4
  | Alat_store_invalidations -> 5
  | Checks_retired -> 6
  | Check_failures -> 7
  | Branch_mispredicts -> 8
  | Split_stalls -> 9

let n_events = List.length all_events

let event_name = function
  | Loads_retired -> "loads_retired"
  | Fp_loads_retired -> "fp_loads_retired"
  | Stores_retired -> "stores_retired"
  | Alat_inserts -> "alat_inserts"
  | Alat_evictions -> "alat_evictions"
  | Alat_store_invalidations -> "alat_store_invalidations"
  | Checks_retired -> "checks_retired"
  | Check_failures -> "check_failures"
  | Branch_mispredicts -> "branch_mispredicts"
  | Split_stalls -> "split_stalls"

(* site id -> event counts, densely and flat: the count of event [i] at
   site [s] is [counts.((s + 1) * n_events + i)].  Site ids come densely
   from [Site.Gen]; site -1 is the synthetic site codegen uses for spill
   traffic it manufactures itself.  A site beyond the table grows it, on
   a slow path. *)
type t = { mutable counts : int array }

let create () : t = { counts = Array.make (64 * n_events) 0 }

let[@inline never] grow (t : t) ~site ev =
  if site < -1 then invalid_arg "Site_hist.record: site below -1";
  let len = Array.length t.counts in
  let counts = Array.make (max ((site + 2) * n_events) (2 * len)) 0 in
  Array.blit t.counts 0 counts 0 len;
  t.counts <- counts;
  let i = ((site + 1) * n_events) + event_index ev in
  counts.(i) <- counts.(i) + 1

let record (t : t) ~site ev =
  let i = ((site + 1) * n_events) + event_index ev in
  let counts = t.counts in
  if site >= -1 && i < Array.length counts then
    Array.unsafe_set counts i (Array.unsafe_get counts i + 1)
  else grow t ~site ev

let count (t : t) ~site ev =
  let i = ((site + 1) * n_events) + event_index ev in
  if site < -1 || i >= Array.length t.counts then 0 else t.counts.(i)

(* Recorded sites with their rows, ascending by site.  Every recorded
   event adds one, so a site was recorded exactly when its row is not all
   zero. *)
let recorded (t : t) =
  let acc = ref [] in
  for k = (Array.length t.counts / n_events) - 1 downto 0 do
    let r = Array.sub t.counts (k * n_events) n_events in
    if Array.exists (fun c -> c <> 0) r then acc := (k - 1, r) :: !acc
  done;
  !acc

let total (t : t) ev =
  let acc = ref 0 in
  let i = ref (event_index ev) in
  while !i < Array.length t.counts do
    acc := !acc + t.counts.(!i);
    i := !i + n_events
  done;
  !acc

let sites (t : t) = List.map fst (recorded t)

(* Sites ranked by [ev], descending; ties by site id for determinism. *)
let top (t : t) ev ~n =
  let i = event_index ev in
  List.filter_map (fun (s, r) -> if r.(i) > 0 then Some (s, r.(i)) else None) (recorded t)
  |> List.sort (fun (s1, c1) (s2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare s1 s2)
  |> List.filteri (fun k _ -> k < n)

let to_json (t : t) : Json.t =
  Json.Arr
    (List.map
       (fun (s, r) ->
         Json.Obj
           (("site", Json.Int s)
           :: List.concat_map
                (fun ev ->
                  let c = r.(event_index ev) in
                  if c = 0 then [] else [ (event_name ev, Json.Int c) ])
                all_events))
       (recorded t))

(* The "top mis-speculating sites" report: sites whose checks failed, with
   their check volume and failure rate — what pfmon event sampling would
   show for ALAT_CAPACITY_MISS-style events. *)
let pp_top_missers ppf (t : t) =
  match top t Check_failures ~n:10 with
  | [] -> Fmt.pf ppf "no mis-speculating sites"
  | worst ->
    Fmt.pf ppf "@[<v>top mis-speculating sites:@,%-6s %10s %10s %8s@," "site"
      "failures" "checks" "rate";
    List.iter
      (fun (s, fails) ->
        let checks = count t ~site:s Checks_retired in
        let rate =
          if checks = 0 then 0.0
          else 100.0 *. float_of_int fails /. float_of_int checks
        in
        Fmt.pf ppf "s%-5d %10d %10d %7.2f%%@," s fails checks rate)
      worst;
    Fmt.pf ppf "@]"

(* The "top mispredicting branches" report: branch sites ranked by static
   predictor misses — the view that makes a mispredict-per-iteration loop
   pathology visible instead of a single opaque global counter. *)
let pp_top_mispredicts ppf (t : t) =
  match top t Branch_mispredicts ~n:10 with
  | [] -> Fmt.pf ppf "no mispredicting branches"
  | worst ->
    Fmt.pf ppf "@[<v>top mispredicting branches:@,%-6s %12s@," "site"
      "mispredicts";
    List.iter (fun (s, n) -> Fmt.pf ppf "s%-5d %12d@," s n) worst;
    Fmt.pf ppf "@]"
