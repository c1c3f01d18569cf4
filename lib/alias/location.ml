(* Abstract memory locations: named symbols and heap objects named by their
   allocation site (the naming scheme the paper's companion work [7] calls
   malloc-site naming).  Field-insensitive: an aggregate symbol or heap
   object is one location; offsets within it are not distinguished by the
   static analyses (the dynamic profile is also collected at this
   granularity so the two compose). *)

open Srp_ir

type t =
  | Sym of Symbol.t
  | Heap of Site.t (* allocation site *)

let compare a b =
  match a, b with
  | Sym s1, Sym s2 -> Symbol.compare s1 s2
  | Heap h1, Heap h2 -> Site.compare h1 h2
  | Sym _, Heap _ -> -1
  | Heap _, Sym _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Sym s -> Symbol.pp ppf s
  | Heap site -> Fmt.pf ppf "heap@%a" Site.pp site

let to_string l = Fmt.str "%a" pp l

let mty = function
  | Sym s -> Some (Symbol.mty s)
  | Heap _ -> None (* heap cells may hold either; never filtered by type *)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)
