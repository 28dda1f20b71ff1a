type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
  mutable notes : string list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Tables.add_row: arity mismatch";
  t.rows <- row :: t.rows

let add_note t note = t.notes <- note :: t.notes

let cell_int = string_of_int

let cell_float ?(decimals = 2) x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*f" decimals x

let cell_bool b = if b then "yes" else "no"

let print t =
  let ppf = Format.std_formatter in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i header ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length header) rows)
      t.columns
  in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    let cells = List.map2 pad widths row in
    (* padding leaves trailing blanks on the last column; drop them *)
    let line = String.concat "  " cells in
    let rec rstrip i = if i > 0 && line.[i - 1] = ' ' then rstrip (i - 1) else i in
    Format.fprintf ppf "  %s@." (String.sub line 0 (rstrip (String.length line)))
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  render_row t.columns;
  let rule = List.map (fun w -> String.make w '-') widths in
  render_row rule;
  List.iter render_row rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) (List.rev t.notes);
  Format.pp_print_flush ppf ()
