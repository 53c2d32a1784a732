type align = Left | Right

type t = {
  headers : string list;
  ncols : int;
  mutable aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ~headers =
  let ncols = List.length headers in
  { headers; ncols; aligns = List.map (fun _ -> Right) headers; rows = [] }

let set_align t aligns =
  if List.length aligns <> t.ncols then
    invalid_arg "Tabular.set_align: arity mismatch";
  t.aligns <- aligns

let add_row t cells =
  let n = List.length cells in
  if n > t.ncols then invalid_arg "Tabular.add_row: too many cells";
  let cells =
    if n = t.ncols then cells
    else cells @ List.init (t.ncols - n) (fun _ -> "")
  in
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let measure cs =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cs
  in
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let emit_cells cs =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i (c, a) ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad a widths.(i) c))
      (List.map2 (fun c a -> (c, a)) cs t.aligns);
    Buffer.add_string buf " |\n"
  in
  let emit_rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  emit_rule ();
  emit_cells t.headers;
  emit_rule ();
  List.iter emit_cells rows;
  emit_rule ();
  Buffer.contents buf

let print t = print_string (render t)
