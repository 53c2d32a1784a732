type col_type = TInt | TStr

let col_type_to_string = function TInt -> "INTEGER" | TStr -> "TEXT"

type column = { col_name : string; col_type : col_type }

type table = {
  table_name : string;
  columns : column list;
}

let table name cols =
  let columns =
    List.map (fun (col_name, col_type) -> { col_name; col_type }) cols
  in
  let names = List.map (fun c -> c.col_name) columns in
  if not (List.mem "id" names) then
    invalid_arg (Printf.sprintf "Schema.table %s: missing id column" name);
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg (Printf.sprintf "Schema.table %s: duplicate column" name);
  { table_name = name; columns }

let column_index t name =
  let rec go i = function
    | [] -> raise Not_found
    | c :: _ when String.equal c.col_name name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let has_column t name = List.exists (fun c -> String.equal c.col_name name) t.columns

let arity t = List.length t.columns

let create_table_sql t =
  let col c =
    let base = c.col_name ^ " " ^ col_type_to_string c.col_type in
    if String.equal c.col_name "id" then base ^ " PRIMARY KEY" else base
  in
  Printf.sprintf "CREATE TABLE %s (%s);" t.table_name
    (String.concat ", " (List.map col t.columns))

type t = table list
