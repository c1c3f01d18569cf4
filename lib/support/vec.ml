(* Growable array. OCaml 5.1 has no [Dynarray] (added in 5.2), so we carry a
   small, allocation-friendly equivalent used throughout the IR and the
   simulator. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* slot filler; never observable through the API *)
}

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let make ~dummy n x =
  let n' = max n 8 in
  let data = Array.make n' dummy in
  Array.fill data 0 n x;
  { data; len = n; dummy }

let length t = t.len

let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let top t =
  if t.len = 0 then invalid_arg "Vec.top: empty";
  t.data.(t.len - 1)

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_list t = List.init t.len (fun i -> t.data.(i))

let of_list ~dummy xs =
  let t = create ~dummy in
  List.iter (push t) xs;
  t

let map ~dummy f t =
  let r = create ~dummy in
  iter (fun x -> push r (f x)) t;
  r
