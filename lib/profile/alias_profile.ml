(* The alias profile: for every memory-op site, per-location dynamic hit
   counts (how many of the site's executions touched each abstract
   location), plus execution counts.

   This is the feedback the speculative compiler consumes (paper section
   3.1), upgraded from target *sets* to target *frequencies*: a chi on
   location L at site s is marked speculative not just when the profile
   says s never touched L, but — under the expected-value gate — when it
   touched L rarely enough that the saved load latency beats the expected
   check/recovery cost.  The set semantics are recoverable ([targets]):
   a location is a member iff its hit count is nonzero.  Serializable to
   a simple text format so train-input profiles can be saved and
   replayed. *)

open Srp_ir
module Location = Srp_alias.Location

type t = {
  hits : int Location.Map.t Site.Tbl.t;
      (* site -> location -> dynamic accesses of the site that touched it *)
  counts : int Site.Tbl.t;
  block_counts : (string * int, int) Hashtbl.t; (* (func, label id) -> executions *)
}

let create () =
  { hits = Site.Tbl.create 64; counts = Site.Tbl.create 64;
    block_counts = Hashtbl.create 64 }

(* The bulk adders: a profiler counts in its own representation and adds
   its totals here.  Adding 0 changes nothing, so no table gains an entry
   that no event made. *)
let check_n what n =
  if n < 0 then Fmt.invalid_arg "Alias_profile.%s: negative count %d" what n;
  n > 0

let add_block_count t ~func ~label_id n =
  if check_n "add_block_count" n then begin
    let key = (func, label_id) in
    let c = try Hashtbl.find t.block_counts key with Not_found -> 0 in
    Hashtbl.replace t.block_counts key (c + n)
  end

let block_count t ~func ~label_id =
  try Hashtbl.find t.block_counts (func, label_id) with Not_found -> 0

let add_hits t site loc n =
  if check_n "add_hits" n then begin
    let cur =
      match Site.Tbl.find_opt t.hits site with
      | Some m -> m
      | None -> Location.Map.empty
    in
    let h = match Location.Map.find_opt loc cur with Some h -> h | None -> 0 in
    Site.Tbl.replace t.hits site (Location.Map.add loc (h + n) cur)
  end

let add_count t site n =
  if check_n "add_count" n then begin
    let c = match Site.Tbl.find_opt t.counts site with Some c -> c | None -> 0 in
    Site.Tbl.replace t.counts site (c + n)
  end

let count t site =
  match Site.Tbl.find_opt t.counts site with Some c -> c | None -> 0

(* Was [site] ever executed at all?  Defined by the execution count, not
   table membership, so a deserialized `count 0` site is *not* executed
   (it never ran under training, exactly like an absent site). *)
let executed t site = count t site > 0

let hit_map t site =
  match Site.Tbl.find_opt t.hits site with
  | Some m -> m
  | None -> Location.Map.empty

let touch_count t site loc =
  match Location.Map.find_opt loc (hit_map t site) with
  | Some n -> n
  | None -> 0

let targets t site =
  Location.Map.fold
    (fun loc n acc -> if n > 0 then Location.Set.add loc acc else acc)
    (hit_map t site) Location.Set.empty

(* Observed conflict frequency: the fraction of [site]'s training
   executions that touched [loc].  Degenerate inputs (hand-written or v1
   profiles where hits exist without a count) fall back to the binary
   verdict, so the rate is 0 exactly when [touch_count] is 0.  A site
   never executed under the training input touches nothing: the
   aggressive choice the paper makes (its kills become chi_s, and a
   mis-speculation check catches the rare cases where the ref input
   disagrees). *)
let conflict_rate t site loc =
  let h = touch_count t site loc in
  if h <= 0 then 0.0
  else
    let c = count t site in
    if c <= 0 then 1.0 else Float.min 1.0 (float_of_int h /. float_of_int c)

let sites t = Site.Tbl.fold (fun s _ acc -> s :: acc) t.counts [] |> List.sort Site.compare

let pp ppf t =
  List.iter
    (fun site ->
      Fmt.pf ppf "%a: count=%d targets={%a}@." Site.pp site (count t site)
        (Srp_support.Pp_util.pp_list (fun ppf (loc, n) ->
             Fmt.pf ppf "%a=%d" Location.pp loc n))
        (Location.Map.bindings (hit_map t site)))
    (sites t)

(* --- serialization ---

   A simple line-oriented text format so train-input profiles can be saved
   and fed to later compilations (the paper's feedback file).  v2 carries
   per-location hit counts and is declared by a header line:

     srp-profile-v2
     site <id> count <n> targets sym:<symbol-id>=<hits> heap:<site-id>=<hits> ...
     block <func> <label-id> <count>

   The v1 format (no header, bare sym:<id>/heap:<id> targets) is still
   loadable: each v1 target gets hits = the site's execution count, the
   conservative reading under which every recorded location conflicts on
   every execution — reproducing v1's binary verdicts exactly.

   Site lines are sorted by site id and block lines by (func, label id),
   so identical training runs produce byte-identical profiles (and thus
   stable content keys for the staged pipeline).

   Symbols are referenced by id; decoding therefore needs the same program
   (ids are deterministic given the source), which the driver guarantees by
   recompiling from the same file. *)

let format_header = "srp-profile-v2"

(* Written piece by piece into one buffer: every alat compile saves its
   profile to fingerprint the promotion config. *)
let save (t : t) : string =
  let buf = Buffer.create 1024 in
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int n = str (string_of_int n) in
  str format_header;
  chr '\n';
  List.iter
    (fun site ->
      str "site ";
      int (Site.to_int site);
      str " count ";
      int (count t site);
      str " targets";
      Location.Map.iter
        (fun loc hits ->
          (match loc with
          | Location.Sym s ->
            str " sym:";
            int (Symbol.id s)
          | Location.Heap h ->
            str " heap:";
            int (Site.to_int h));
          chr '=';
          int hits)
        (hit_map t site);
      chr '\n')
    (sites t);
  Hashtbl.fold (fun key c acc -> (key, c) :: acc) t.block_counts []
  |> List.sort (fun ((f1, l1), _) ((f2, l2), _) ->
         match String.compare f1 f2 with 0 -> Int.compare l1 l2 | c -> c)
  |> List.iter (fun ((func, label_id), c) ->
         str "block ";
         str func;
         chr ' ';
         int label_id;
         chr ' ';
         int c;
         chr '\n');
  Buffer.contents buf

exception Parse_error of string

(* [load ~symbols text] rebuilds a profile; [symbols] maps symbol ids back
   to symbols (from the program being compiled).  Malformed numeric fields
   and duplicate site/block lines raise [Parse_error] naming the offending
   line — a corrupt or concatenated profile must never silently last-win. *)
let load ~(symbols : (int, Srp_ir.Symbol.t) Hashtbl.t) (text : string) : t =
  let t = create () in
  let parse_line line =
    let int_field s =
      match int_of_string_opt s with
      | Some n -> n
      | None ->
        raise (Parse_error (Fmt.str "bad integer %S in line: %s" s line))
    in
    let target_loc kind id =
      match kind with
      | "sym" -> (
        match Hashtbl.find_opt symbols (int_field id) with
        | Some s -> Location.Sym s
        | None -> raise (Parse_error ("unknown symbol id " ^ id)))
      | "heap" -> Location.Heap (int_field id)
      | _ -> raise (Parse_error ("bad target kind " ^ kind))
    in
    match String.split_on_char ' ' (String.trim line) with
    | [] | [ "" ] -> ()
    | [ header ] when header = format_header -> ()
    | "site" :: site :: "count" :: n :: "targets" :: rest ->
      let site = int_field site in
      if Site.Tbl.mem t.counts site then
        raise (Parse_error (Fmt.str "duplicate site %d in line: %s" site line));
      let n = int_field n in
      Site.Tbl.replace t.counts site n;
      let hits =
        List.fold_left
          (fun acc tok ->
            let loc, h =
              match String.split_on_char ':' tok with
              | [ kind; id ] -> (
                (* v2 target "kind:id=hits"; v1 target "kind:id" gets
                   hits = site count (every execution conflicted). *)
                match String.split_on_char '=' id with
                | [ id; h ] -> (target_loc kind id, int_field h)
                | [ id ] -> (target_loc kind id, max n 1)
                | _ -> raise (Parse_error ("bad target " ^ tok)))
              | _ -> raise (Parse_error ("bad target " ^ tok))
            in
            if Location.Map.mem loc acc then
              raise
                (Parse_error (Fmt.str "duplicate target %s in line: %s" tok line));
            Location.Map.add loc h acc)
          Location.Map.empty rest
      in
      Site.Tbl.replace t.hits site hits
    | "block" :: func :: label_id :: c :: [] ->
      let key = (func, int_field label_id) in
      if Hashtbl.mem t.block_counts key then
        raise (Parse_error ("duplicate block line: " ^ line));
      Hashtbl.replace t.block_counts key (int_field c)
    | _ -> raise (Parse_error ("bad line: " ^ line))
  in
  List.iter parse_line (String.split_on_char '\n' text);
  t
