(* Andersen's node table.  Nodes stand for the *content* of an entity: a
   symbol's cell(s), a heap object's cells, a temp's value, a function's
   return value, or an analysis-internal value.  [memory_nodes] maps the
   first two back to the abstract locations queries answer with. *)

open Srp_ir

type key =
  | K_sym of int (* Symbol id *)
  | K_heap of int (* allocation Site id *)
  | K_temp of string * int (* (function name, temp id): temp ids are per-function *)
  | K_ret of string (* function return value *)
  | K_anon of int (* analysis-internal value node *)

type t = {
  ids : (key, int) Hashtbl.t;
  mutable keys : key list; (* reverse order of allocation *)
  mutable count : int;
  sym_of_id : (int, Symbol.t) Hashtbl.t; (* symbol id -> symbol, for decoding *)
}

let create () =
  { ids = Hashtbl.create 64; keys = []; count = 0; sym_of_id = Hashtbl.create 64 }

let node t key =
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
    let id = t.count in
    t.count <- t.count + 1;
    Hashtbl.replace t.ids key id;
    t.keys <- key :: t.keys;
    id

let node_of_sym t s =
  Hashtbl.replace t.sym_of_id (Symbol.id s) s;
  node t (K_sym (Symbol.id s))

let node_of_heap t site = node t (K_heap (Site.to_int site))
let node_of_temp t ~func tmp = node t (K_temp (func, Temp.id tmp))
let node_of_ret t func = node t (K_ret func)

let fresh_anon t =
  let id = t.count in
  node t (K_anon id)

(* All (node id, location) pairs. *)
let memory_nodes t =
  let acc = ref [] in
  List.iteri
    (fun i key ->
      let id = t.count - 1 - i in
      match key with
      | K_sym sid -> acc := (id, Location.Sym (Hashtbl.find t.sym_of_id sid)) :: !acc
      | K_heap site -> acc := (id, Location.Heap site) :: !acc
      | K_temp _ | K_ret _ | K_anon _ -> ())
    t.keys;
  !acc
