(* Small formatting helpers shared by the IR / assembly printers and the
   benchmark report tables. *)

let pp_list ?(sep = ", ") pp_elt ppf xs =
  Fmt.(list ~sep:(fun ppf () -> string ppf sep) pp_elt) ppf xs

let to_string pp x = Fmt.str "%a" pp x

(* Right-pad [s] to [width] with spaces (for fixed-width report tables). *)
let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

(* Left-pad, for numeric columns. *)
let lpad width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

(* Render a table: header row + data rows, columns auto-sized, first column
   left-aligned, the rest right-aligned.  Used by the bench harness to print
   the per-figure tables. *)
let render_table ~header ~rows =
  let all = header :: rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter measure all;
  let buf = Buffer.create 256 in
  let render_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        let s = if i = 0 then pad widths.(i) cell else lpad widths.(i) cell in
        Buffer.add_string buf s)
      row;
    Buffer.add_char buf '\n'
  in
  render_row header;
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf
