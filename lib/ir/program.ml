(* A whole program: global symbols, global initializers, functions, and the
   shared id generators that keep ids dense across the program. *)

(* An initializer's words.  Read-only: built by copying an array, with no
   setter, so one payload can be shared by every clone of a program and by
   the workload input it came from, and a digest taken of it stays true. *)
module Payload : sig
  type 'a t

  val of_array : 'a array -> 'a t
  val length : 'a t -> int
  val get : 'a t -> int -> 'a
  val iteri : (int -> 'a -> unit) -> 'a t -> unit
end = struct
  type 'a t = 'a array

  let of_array = Array.copy
  let length = Array.length
  let get = Array.get
  let iteri = Array.iteri
end

type global_init =
  | Init_zero
  | Init_ints of int64 Payload.t
  | Init_floats of float Payload.t

type t = {
  globals : (Symbol.t * global_init) list Stdlib.ref;
  funcs : (string, Func.t) Hashtbl.t;
  mutable func_order : string list;
  sym_gen : Symbol.Gen.t;
  site_gen : Site.Gen.t;
}

let create () =
  { globals = Stdlib.ref []; funcs = Hashtbl.create 16; func_order = [];
    sym_gen = Symbol.Gen.create (); site_gen = Site.Gen.create () }

let add_global t s init = t.globals := (s, init) :: !(t.globals)
let globals t = List.rev !(t.globals)

(* Copy for the staged pipeline's shared artifacts: a cached lowered
   program is immutable by contract, so consumers that mutate (input
   application, promotion) work on a clone.  Everything mutable is copied
   — functions, the globals list, [func_order], the id generators — by a
   Marshal round trip of a shell whose initializers are blanked: the IR is
   pure data (no closures, no custom blocks), so the copy is faithful, and
   internal sharing (symbols referenced from both the globals list and
   instruction operands) is preserved within it.  The read-only payloads
   are not copied: the clone's globals get the source's, by position.  The
   source is only read, never written, even for a moment — other domains
   may be reading it.  Identity is by id everywhere, so the clone behaves
   exactly like a fresh lowering of the same source. *)
let clone (t : t) : t =
  let globals = !(t.globals) in
  let blanked = List.map (fun (s, _) -> (s, Init_zero)) globals in
  let shell = { t with globals = Stdlib.ref blanked } in
  let c : t = Marshal.from_string (Marshal.to_string shell []) 0 in
  c.globals :=
    List.map2 (fun (s, _) (_, init) -> (s, init)) !(c.globals) globals;
  c

(* Replace a global's initializer (workload input injection). *)
let set_global_init t name init =
  t.globals :=
    List.map
      (fun (s, old) -> if Symbol.name s = name then (s, init) else (s, old))
      !(t.globals)

let add_func t f =
  let name = Func.name f in
  if Hashtbl.mem t.funcs name then
    Fmt.invalid_arg "Program.add_func: duplicate function %s" name;
  Hashtbl.replace t.funcs name f;
  t.func_order <- t.func_order @ [ name ]

let find_func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> Fmt.invalid_arg "Program.find_func: no function %s" name

let find_func_opt t name = Hashtbl.find_opt t.funcs name

let funcs t = List.map (Hashtbl.find t.funcs) t.func_order

let main t = find_func t "main"

(* Builtins are handled by the interpreter and the machine runtime, not
   defined as IR functions. *)
let builtins = [ "print_int"; "print_float"; "malloc" ]

let is_builtin name = List.mem name builtins

let all_symbols t =
  let gs = List.map fst (globals t) in
  let locals =
    List.concat_map (fun f -> Func.formals f @ Func.locals f) (funcs t)
  in
  gs @ locals

let pp ppf t =
  List.iter
    (fun (s, _) -> Fmt.pf ppf "global %a (%d bytes)@." Symbol.pp s (Symbol.size_bytes s))
    (globals t);
  List.iter (fun f -> Fmt.pf ppf "%a@." Func.pp f) (funcs t)
